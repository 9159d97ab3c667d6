// Package relstore implements the relational storage layer that backs
// each simulated local DBMS: named databases holding tables and view
// definitions, with undo-logged transactions, a visible prepared-to-commit
// state, and table-granularity two-phase locking with timeout-based
// deadlock resolution.
//
// Table data lives in internal/storage heap files behind a per-store
// buffer pool: slotted 4 KiB pages, optionally persisted to a data
// directory, with a B-tree index over each table's declared key columns.
// The transaction layer addresses rows by stable index — the position in
// the table's RID table — so undo records survive any page-level
// relocation the heap performs underneath.
//
// The package is deliberately ignorant of SQL; internal/sqlengine drives it
// through Tx methods. Keeping the storage layer independent lets the LDBMS
// simulator expose exactly the commit-capability heterogeneity the paper's
// semantics depend on.
package relstore

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"msql/internal/schema"
	"msql/internal/sqlval"
	"msql/internal/storage"
)

// Errors only this engine reports; the ones every engine shares
// (missing objects, lock timeouts, width and key violations) are the
// schema package's.
var (
	ErrViewExists  = errors.New("relstore: view already exists")
	ErrTxDone      = errors.New("relstore: transaction is not active")
	ErrNotPrepared = errors.New("relstore: transaction is not prepared")
	ErrNullKey     = errors.New("relstore: NULL in primary key column")
)

// Table holds a schema and rows. Row data lives on heap pages; the table
// keeps one RID per row in insertion order, and that position — the
// stable index — is how transactions address rows. Deleted rows become
// NilRID tombstones so undo records stay valid within a transaction's
// lifetime; tombstones are compacted when the deleting transaction
// finishes, while it still holds the table exclusively.
type Table struct {
	Name    string
	Columns []schema.Column
	keys    []int // Columns positions with Key set, declaration order
	heap    *storage.HeapFile
	backing storage.Backing
	file    string // file name under the store dir; "" when in memory
	rids    []storage.RID
	dead    int
	live    atomic.Int64   // len(rids) - dead, readable without the table lock
	index   *storage.BTree // non-nil iff len(keys) > 0
	ioErr   error          // first storage fault, sticky
	enc     []byte         // insertRow's encode buffer: the heap copies tuples onto its pages
}

func keyColumns(cols []schema.Column) []int {
	var keys []int
	for i, c := range cols {
		if c.Key {
			keys = append(keys, i)
		}
	}
	return keys
}

// newTable creates an empty table with a fresh heap in s's pool.
func (s *Store) newTable(name string, cols []schema.Column) (*Table, error) {
	t := &Table{
		Name:    name,
		Columns: append([]schema.Column(nil), cols...),
	}
	t.keys = keyColumns(t.Columns)
	if len(t.keys) > 0 {
		t.index = storage.NewBTree()
	}
	b, file, err := s.newBacking(name)
	if err != nil {
		return nil, err
	}
	t.backing = b
	t.file = file
	t.heap = storage.NewHeapFile(s.pool, b)
	return t, nil
}

// destroy releases the table's heap: pool frames, backing, and the data
// file if persistent. Called when a create is rolled back or a drop
// commits.
func (t *Table) destroy(s *Store) {
	t.heap.Drop()
	t.backing.Close()
	if t.file != "" {
		os.Remove(filepath.Join(s.dir, t.file))
	}
}

// RowCount returns the number of live rows. It needs no lock on the
// table, so it may count rows of transactions still in flight.
func (t *Table) RowCount() int { return int(t.live.Load()) }

// KeyColumns returns the positions of the primary-key columns, in
// declaration order, or nil when the table has no declared key.
func (t *Table) KeyColumns() []int { return append([]int(nil), t.keys...) }

// Err returns the first storage fault the table hit, if any. Reads that
// fail (a torn page surfacing at runtime, an I/O error on a persistent
// heap) latch here rather than panicking mid-scan.
func (t *Table) Err() error { return t.ioErr }

func (t *Table) fault(err error) {
	if t.ioErr == nil {
		t.ioErr = fmt.Errorf("relstore: table %s: %w", t.Name, err)
	}
}

// keyOf encodes row's primary-key columns in index order.
func (t *Table) keyOf(row schema.Row) []byte {
	vals := make([]sqlval.Value, len(t.keys))
	for i, ci := range t.keys {
		vals[i] = row[ci]
	}
	return storage.EncodeKey(nil, vals)
}

// rowAt reads and decodes the row at a stable index; nil for tombstones
// and out-of-range indexes. Page traffic is recorded on pc (nil counts
// nothing): the counter is per-call rather than per-table because
// concurrent readers share the Table under shared locks — attribution
// must follow the statement, not the structure. The row is decoded
// straight from the pinned page into a new row the caller owns.
func (t *Table) rowAt(idx int, pc *storage.PageCounters) (schema.Row, error) {
	if idx < 0 || idx >= len(t.rids) || t.rids[idx].IsNil() {
		return nil, nil
	}
	var row schema.Row
	err := t.heap.ReadPageCounted(t.rids[idx:idx+1], pc, func(data []byte) (err error) {
		row, err = storage.DecodeRow(data)
		return err
	})
	if err != nil {
		return nil, err
	}
	return row, nil
}

// RowAt returns the row at a stable index, or nil when deleted, with
// page traffic recorded on pc (nil counts nothing).
func (t *Table) RowAt(idx int, pc *storage.PageCounters) schema.Row {
	row, err := t.rowAt(idx, pc)
	if err != nil {
		t.fault(err)
		return nil
	}
	return row
}

// ForEach iterates live rows with their stable indexes through a
// TableIter, stopping when fn returns false. The row is borrowed: it is
// valid only during the call, so fn clones what it keeps. The caller
// must hold a lock on the table via a Tx.
func (t *Table) ForEach(fn func(idx int, row schema.Row) bool) {
	it := t.IterCounted(nil, nil)
	for {
		idx, row, ok := it.Next()
		if !ok || !fn(idx, row) {
			return
		}
	}
}

// TableIter is a pull-based cursor over a table's live rows in stable-
// index order, for volcano-style executors. It reads a page at a time:
// the next run of stable indexes whose RIDs lie on one heap page is read
// under a single pin and decoded into a value buffer the cursor owns and
// reuses, and the pin is dropped before Next returns, so no pin outlives
// a call and nested scans never exhaust a small pool. A row Next returns
// is borrowed from that buffer: it is valid until the next Next or
// Reset, and a caller that keeps it must clone it. The caller must hold
// a lock on the table via a Tx for the cursor's lifetime.
//
// A cursor opened with search arguments checks them on each tuple's
// bytes while the page is pinned (storage.MatchSargs) and decodes and
// returns only the tuples that satisfy all of them.
type TableIter struct {
	t     *Table
	pos   int // next stable index to batch
	pc    *storage.PageCounters
	sargs []storage.Sarg

	// The batch: the live rows of one page. Row k sits at stable index
	// idx[k] and is vals[ends[k-1]:ends[k]] (from 0 for k == 0); rows
	// need not share a width.
	rids []storage.RID
	idx  []int
	ends []int
	vals []sqlval.Value
	k    int   // next row of the batch to return
	err  error // fault that cut the batch short, reported after its rows
}

// IterCounted returns a cursor recording its page traffic on pc
// (nil-safe), attributing reads to the statement driving the cursor,
// and yielding only the rows that satisfy every sarg (all rows when
// sargs is empty).
func (t *Table) IterCounted(pc *storage.PageCounters, sargs []storage.Sarg) *TableIter {
	return &TableIter{t: t, pc: pc, sargs: sargs}
}

// Next returns the next live row and its stable index; ok is false at
// the end of the table (or on a storage fault, which latches in Err).
// The row is valid until the next Next or Reset.
func (it *TableIter) Next() (idx int, row schema.Row, ok bool) {
	for it.k == len(it.ends) {
		if it.err != nil {
			it.t.fault(it.err)
			it.err = nil
			return 0, nil, false
		}
		if it.pos >= len(it.t.rids) {
			return 0, nil, false
		}
		it.fill()
	}
	k := it.k
	it.k++
	lo, hi := 0, it.ends[k]
	if k > 0 {
		lo = it.ends[k-1]
	}
	return it.idx[k], schema.Row(it.vals[lo:hi:hi]), true
}

// fill reads the next page's run of live rows that satisfy the sargs
// into the batch. A fault keeps the rows decoded before it and is
// reported once they are out.
func (it *TableIter) fill() {
	it.rids, it.idx, it.ends, it.vals, it.k = it.rids[:0], it.idx[:0], it.ends[:0], it.vals[:0], 0
	rids := it.t.rids
	for it.pos < len(rids) && rids[it.pos].IsNil() {
		it.pos++
	}
	if it.pos == len(rids) {
		return
	}
	pg := rids[it.pos].Page
	for ; it.pos < len(rids); it.pos++ {
		rid := rids[it.pos]
		if rid.IsNil() {
			continue
		}
		if rid.Page != pg {
			break
		}
		it.rids = append(it.rids, rid)
		it.idx = append(it.idx, it.pos)
	}
	// The callback sees the run's tuples in order; j counts them and the
	// stable indexes of the ones kept move down to idx[:len(ends)].
	j := 0
	it.err = it.t.heap.ReadPageCounted(it.rids, it.pc, func(data []byte) error {
		j++
		if len(it.sargs) > 0 {
			if ok, err := storage.MatchSargs(data, it.sargs); !ok || err != nil {
				return err
			}
		}
		vals, err := storage.DecodeRowInto(it.vals, data)
		if err != nil {
			return err
		}
		it.vals = vals
		it.idx[len(it.ends)] = it.idx[j-1]
		it.ends = append(it.ends, len(vals))
		return nil
	})
	it.idx = it.idx[:len(it.ends)]
}

// Reset repositions the cursor before the first row.
func (it *TableIter) Reset() {
	it.pos, it.k, it.err = 0, 0, nil
	it.ends = it.ends[:0]
}

// LookupKey probes the primary-key index with the given key values and
// returns the matching row's stable index. ok is false when the table
// has no index, the key shape is wrong, or no row matches.
func (t *Table) LookupKey(vals []sqlval.Value) (int, bool) {
	if t.index == nil || len(vals) != len(t.keys) {
		return -1, false
	}
	v, ok := t.index.Get(storage.EncodeKey(nil, vals))
	if !ok {
		return -1, false
	}
	return int(v), true
}

// insertRow places a validated, normalized row on the heap and returns
// its stable index. checkUnique is false only on undo paths, which
// restore states that were valid when recorded.
func (t *Table) insertRow(row schema.Row, checkUnique bool) (int, error) {
	var key []byte
	if t.index != nil {
		key = t.keyOf(row)
		if checkUnique {
			if _, dup := t.index.Get(key); dup {
				return 0, fmt.Errorf("%w in %s", schema.ErrDuplicateKey, t.Name)
			}
		}
	}
	t.enc = storage.EncodeRow(t.enc[:0], row)
	rid, err := t.heap.Insert(t.enc)
	if err != nil {
		return 0, err
	}
	idx := len(t.rids)
	t.rids = append(t.rids, rid)
	t.live.Add(1)
	if t.index != nil {
		t.index.Insert(key, int64(idx))
	}
	return idx, nil
}

// updateRow overwrites the row at a stable index.
func (t *Table) updateRow(idx int, row schema.Row, checkUnique bool) error {
	old, err := t.rowAt(idx, nil)
	if err != nil {
		return err
	}
	if old == nil {
		return fmt.Errorf("relstore: update of missing row %d in %s", idx, t.Name)
	}
	var okey, nkey []byte
	if t.index != nil {
		okey, nkey = t.keyOf(old), t.keyOf(row)
		if checkUnique && !bytes.Equal(okey, nkey) {
			if _, dup := t.index.Get(nkey); dup {
				return fmt.Errorf("%w in %s", schema.ErrDuplicateKey, t.Name)
			}
		}
	}
	nrid, err := t.heap.Update(t.rids[idx], storage.EncodeRow(nil, row))
	if err != nil {
		return err
	}
	t.rids[idx] = nrid
	if t.index != nil && !bytes.Equal(okey, nkey) {
		t.index.Delete(okey)
		t.index.Insert(nkey, int64(idx))
	}
	return nil
}

// deleteRow tombstones the row at a stable index and returns its prior
// contents for the undo log.
func (t *Table) deleteRow(idx int) (schema.Row, error) {
	old, err := t.rowAt(idx, nil)
	if err != nil {
		return nil, err
	}
	if old == nil {
		return nil, fmt.Errorf("relstore: delete of missing row %d in %s", idx, t.Name)
	}
	if err := t.heap.Delete(t.rids[idx]); err != nil {
		return nil, err
	}
	t.rids[idx] = storage.NilRID
	t.dead++
	t.live.Add(-1)
	if t.index != nil {
		t.index.Delete(t.keyOf(old))
	}
	return old, nil
}

// restoreRow undoes a delete: the row returns to the heap under its old
// stable index (its page placement may differ; nothing observes that).
func (t *Table) restoreRow(idx int, row schema.Row) error {
	if idx < 0 || idx >= len(t.rids) || !t.rids[idx].IsNil() {
		return nil
	}
	rid, err := t.heap.Insert(storage.EncodeRow(nil, row))
	if err != nil {
		return err
	}
	t.rids[idx] = rid
	t.dead--
	t.live.Add(1)
	if t.index != nil {
		t.index.Insert(t.keyOf(row), int64(idx))
	}
	return nil
}

// compact squeezes tombstones out of the RID table, renumbering stable
// indexes. The caller must hold the table exclusively: stable indexes
// handed to other transactions die here. Index entries are remapped in
// place — keys do not change, only the positions they point at.
func (t *Table) compact() {
	if t.dead == 0 {
		return
	}
	remap := make([]int64, len(t.rids))
	live := t.rids[:0]
	for i, rid := range t.rids {
		if rid.IsNil() {
			remap[i] = -1
			continue
		}
		remap[i] = int64(len(live))
		live = append(live, rid)
	}
	t.rids = live
	t.dead = 0
	if t.index != nil {
		type kv struct {
			k []byte
			v int64
		}
		var ents []kv
		t.index.Ascend(nil, func(k []byte, v int64) bool {
			if remap[v] != v {
				ents = append(ents, kv{k, remap[v]})
			}
			return true
		})
		for _, e := range ents {
			t.index.Insert(e.k, e.v)
		}
	}
}

// View is a stored view definition. The definition is kept as SQL text so
// the storage layer stays parser-independent.
type View struct {
	Name       string
	Definition string
}

// Database is a named collection of tables and views.
type Database struct {
	Name   string
	tables map[string]*Table
	views  map[string]*View
}

// TableNames returns the sorted table names.
func (d *Database) TableNames() []string {
	names := make([]string, 0, len(d.tables))
	for n := range d.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ViewNames returns the sorted view names.
func (d *Database) ViewNames() []string {
	names := make([]string, 0, len(d.views))
	for n := range d.views {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Table returns the named table.
func (d *Database) Table(name string) (*Table, error) {
	t, ok := d.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", schema.ErrNoTable, d.Name, name)
	}
	return t, nil
}

// View returns the named view.
func (d *Database) View(name string) (*View, error) {
	v, ok := d.views[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s.%s", schema.ErrNoView, d.Name, name)
	}
	return v, nil
}

// Store is the storage root of one simulated DBMS server: databases over
// a shared buffer pool, optionally persisted to a data directory.
type Store struct {
	mu        sync.RWMutex
	databases map[string]*Database
	locks     *lockManager
	nextTx    int64
	pool      *storage.Pool
	dir       string // "" = memory-only
	nextFile  int64  // atomic; names heap files uniquely

	ckptMu        sync.Mutex // serializes Checkpoint
	catalogOnDisk []byte     // last catalog.json read or written; guarded by ckptMu
}

// NewStore returns an empty in-memory store with the default pool size.
func NewStore() *Store {
	s, _ := Open(Options{})
	return s
}

// Pool returns the store's buffer pool, for stats surfaces.
func (s *Store) Pool() *storage.Pool { return s.pool }

// Dir returns the data directory, or "" for an in-memory store.
func (s *Store) Dir() string { return s.dir }

// newBacking creates the page store for one new table: a file under the
// data directory, or memory.
func (s *Store) newBacking(table string) (storage.Backing, string, error) {
	if s.dir == "" {
		return storage.NewMemBacking(), "", nil
	}
	n := atomic.AddInt64(&s.nextFile, 1)
	file := fmt.Sprintf("t%06d.heap", n)
	fb, err := storage.OpenFileBacking(filepath.Join(s.dir, file))
	if err != nil {
		return nil, "", err
	}
	return fb, file, nil
}

// CreateDatabase adds a database outside any transaction (bootstrap use).
func (s *Store) CreateDatabase(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.databases[name]; ok {
		return fmt.Errorf("%w: %s", schema.ErrDBExists, name)
	}
	s.databases[name] = &Database{
		Name:   name,
		tables: make(map[string]*Table),
		views:  make(map[string]*View),
	}
	return nil
}

// DropDatabase removes a database outside any transaction, releasing the
// heaps of its tables.
func (s *Store) DropDatabase(name string) error {
	s.mu.Lock()
	d, ok := s.databases[name]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", schema.ErrNoDatabase, name)
	}
	delete(s.databases, name)
	s.mu.Unlock()
	for _, t := range d.tables {
		t.destroy(s)
	}
	return nil
}

// Database returns the named database.
func (s *Store) Database(name string) (*Database, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.databases[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", schema.ErrNoDatabase, name)
	}
	return d, nil
}

// DatabaseNames returns the sorted database names.
func (s *Store) DatabaseNames() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.databaseNamesLocked()
}

// databaseNamesLocked returns sorted names; callers hold s.mu.
func (s *Store) databaseNamesLocked() []string {
	names := make([]string, 0, len(s.databases))
	for n := range s.databases {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Clone deep-copies the store's data (not its lock or transaction state)
// into a fresh in-memory store. Benchmarks use it to reset working sets.
func (s *Store) Clone() *Store {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c := NewStore()
	for dn, d := range s.databases {
		nd := &Database{Name: dn, tables: make(map[string]*Table), views: make(map[string]*View)}
		for tn, t := range d.tables {
			nt, err := c.newTable(tn, t.Columns)
			if err != nil {
				continue // memory backing cannot fail
			}
			t.ForEach(func(idx int, row schema.Row) bool {
				_, err := nt.insertRow(row.Clone(), false)
				return err == nil
			})
			nd.tables[tn] = nt
		}
		for vn, v := range d.views {
			vv := *v
			nd.views[vn] = &vv
		}
		c.databases[dn] = nd
	}
	return c
}
