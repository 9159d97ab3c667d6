// Package storage is the disk-format layer of the simulated local DBMSs:
// fixed-size slotted heap pages, a pin-counted buffer pool with clock
// eviction, heap files with a free-space map, order-preserving key
// encoding, and an in-memory B-tree index. relstore re-homes its tables
// on this package; nothing above relstore — the SQL engine, the LDBMS
// session layer, the LAMs, or the federation tiers — sees any of it.
//
// The layering mirrors a conventional single-site DBMS:
//
//	HeapFile   — a table's pages; Insert/Update/Delete by RID,
//	             ReadPageCounted of any number of one page's slots
//	             under a single pin (the bytes are valid only inside
//	             its callback; the pin is gone when it returns),
//	             page-at-a-time Scan, and a free-space map for O(1)
//	             placement of new tuples.
//	Pool       — the buffer pool. Every page read or write goes through
//	             Fetch/Unpin; misses read from the Backing, and when all
//	             frames are full an unpinned frame is evicted by the
//	             clock algorithm (dirty frames are written back first).
//	             Hit/miss/eviction/flush counters feed internal/obs.
//	Backing    — where evicted and checkpointed pages live: MemBacking
//	             (a slice standing in for a disk, the default) or
//	             FileBacking (a real file, used by -data-dir).
//	Page       — the slotted-page codec: a checksummed header, a slot
//	             directory growing down the page, and tuple bytes
//	             growing up from the end, with in-page compaction when
//	             free space is fragmented.
//	BTree      — an order-preserving in-memory B-tree from encoded keys
//	             to heap positions, with node split and merge/borrow on
//	             underflow. Rebuilt from the heap on open; tables with
//	             declared PRIMARY KEY columns keep one.
//	EncodeRow / EncodeKey — the tuple codec (self-describing, compact)
//	             and the order-preserving composite key codec the B-tree
//	             sorts by. DecodeRowInto appends a tuple's values to a
//	             caller's buffer, so a scan decodes a page's rows into one
//	             slice it reuses; DecodeRow allocates a row of its own.
//	Sarg       — a search argument, "column op constant": MatchSargs
//	             judges an encoded tuple against a scan's sargs without
//	             decoding it, so a scan decodes only the tuples that pass.
//
// Durability model: pages are written back on eviction and on
// Checkpoint; there is no page-level redo log. A store that uses
// FileBacking is therefore checkpoint-consistent — the federation's
// crash-safety for in-flight multitransactions comes from the mtlog
// coordinator journal and the participant redo journals, which replay
// effects above this layer.
package storage
