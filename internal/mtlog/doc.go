// Package mtlog implements the write-ahead journals of both 2PC roles:
// the coordinator's multitransaction journal (Journal) and the
// participant's prepared-state journal (ParticipantJournal). Together
// they make the paper's flexible-transaction guarantees (vital sets,
// compensation, acceptable termination states) survive a crash of either
// side.
//
// Both are thin views over one internal/wal Log, which owns the file:
// framing, torn-tail truncation, flush-to-LSN durability, atomic rewrite,
// fail-stop on I/O errors. What lives here is 2PC-specific: the Record
// JSON, which record types are forced, multitransaction-id allocation,
// state reconstruction, and what each journal's compaction may drop.
//
// The coordinator journal (DESIGN.md §7, §10) records per
// multitransaction its begin (task topology, compensation SQL), each
// participant's prepared record, the commit/rollback decision (forced
// before any commit is delivered), per-task outcomes, and end. The
// participant journal (DESIGN.md §9) forces each PREPARED vote with its
// redo SQL before the vote is returned and keeps outcome tombstones until
// the coordinator acknowledges them.
package mtlog
