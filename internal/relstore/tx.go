package relstore

import (
	"fmt"
	"sync"
	"time"

	"msql/internal/schema"
	"msql/internal/sqlval"
)

// TxState is the lifecycle state of a transaction. Prepared is the
// externally visible prepared-to-commit state that the paper's VITAL
// semantics require from a 2PC-capable LDBMS.
type TxState uint8

// Transaction states.
const (
	TxActive TxState = iota
	TxPrepared
	TxCommitted
	TxAborted
)

func (s TxState) String() string {
	switch s {
	case TxActive:
		return "active"
	case TxPrepared:
		return "prepared"
	case TxCommitted:
		return "committed"
	case TxAborted:
		return "aborted"
	default:
		return fmt.Sprintf("TxState(%d)", uint8(s))
	}
}

// DefaultLockTimeout is the lock wait budget standing in for local
// deadlock detection.
const DefaultLockTimeout = 2 * time.Second

type undoKind uint8

const (
	undoInsert undoKind = iota
	undoDelete
	undoUpdate
	undoCreateTable
	undoDropTable
	undoCreateDB
	undoDropDB
	undoCreateView
	undoDropView
)

type undoRec struct {
	kind undoKind
	db   string
	name string
	idx  int
	// n is the length of an undoInsert run: a bulk load appends stable
	// indexes idx, idx+1, ... to one table, and one record covers them all
	// instead of one record per row.
	n     int
	row   schema.Row
	table *Table
	dbObj *Database
	view  *View
}

// touchedTable remembers a table this transaction locked and the
// strongest mode it holds, so finishLocked knows which tables it may
// compact while still exclusively locked.
type touchedTable struct {
	tbl  *Table
	mode LockMode
}

// Tx is an undo-logged transaction over a Store. A Tx is not safe for
// concurrent use by multiple goroutines; the session layer serializes it.
type Tx struct {
	store       *Store
	id          int64
	mu          sync.Mutex
	state       TxState
	undo        []undoRec
	touched     map[string]touchedTable
	LockTimeout time.Duration
	// lastWrite is the table the previous write resolved and X-locked.
	// Strict 2PL keeps that lock until the transaction finishes, so a run
	// of writes to one table (a bulk load, a multi-row INSERT) resolves
	// and locks it once; dropping a table or database clears it.
	lastWrite struct {
		db, table string
		tbl       *Table
	}
}

// Begin starts a transaction.
func (s *Store) Begin() *Tx {
	s.mu.Lock()
	s.nextTx++
	id := s.nextTx
	s.mu.Unlock()
	return &Tx{
		store:       s,
		id:          id,
		state:       TxActive,
		touched:     make(map[string]touchedTable),
		LockTimeout: DefaultLockTimeout,
	}
}

// ID returns the transaction id.
func (t *Tx) ID() int64 { return t.id }

// State returns the current lifecycle state.
func (t *Tx) State() TxState {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.state
}

func (t *Tx) active() error {
	if t.state != TxActive {
		return fmt.Errorf("%w (state %s)", ErrTxDone, t.state)
	}
	return nil
}

func tableKey(db, table string) string { return db + "." + table }
func viewKey(db, view string) string   { return db + ".view:" + view }

func (t *Tx) lock(key string, mode LockMode) error {
	return t.store.locks.acquire(t.id, key, mode, t.LockTimeout)
}

// TableForRead S-locks and returns the table for scanning. Callers may
// read Columns and iterate rows via ForEach while the transaction holds
// the lock.
func (t *Tx) TableForRead(db, table string) (*Table, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return nil, err
	}
	d, err := t.store.Database(db)
	if err != nil {
		return nil, err
	}
	tbl, err := d.Table(table)
	if err != nil {
		return nil, err
	}
	if err := t.lock(tableKey(db, table), LockShared); err != nil {
		return nil, err
	}
	// Never downgrade a recorded X touch: the lock manager upgrades in
	// place, and finishLocked compacts only exclusively-held tables.
	if _, ok := t.touched[tableKey(db, table)]; !ok {
		t.touched[tableKey(db, table)] = touchedTable{tbl: tbl, mode: LockShared}
	}
	return tbl, nil
}

// TableForWrite X-locks and returns the table.
func (t *Tx) TableForWrite(db, table string) (*Table, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return nil, err
	}
	return t.tableForWriteLocked(db, table)
}

func (t *Tx) tableForWriteLocked(db, table string) (*Table, error) {
	if w := &t.lastWrite; w.tbl != nil && w.table == table && w.db == db {
		return w.tbl, nil
	}
	d, err := t.store.Database(db)
	if err != nil {
		return nil, err
	}
	tbl, err := d.Table(table)
	if err != nil {
		return nil, err
	}
	if err := t.lock(tableKey(db, table), LockExclusive); err != nil {
		return nil, err
	}
	t.touched[tableKey(db, table)] = touchedTable{tbl: tbl, mode: LockExclusive}
	t.lastWrite.db, t.lastWrite.table, t.lastWrite.tbl = db, table, tbl
	return tbl, nil
}

// validate checks arity, kinds, CHAR widths and key nullability against
// the schema.
func (t *Table) validate(row schema.Row) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("relstore: row has %d values, table %s has %d columns", len(row), t.Name, len(t.Columns))
	}
	for i, v := range row {
		c := t.Columns[i]
		if v.IsNull() {
			if c.Key {
				return fmt.Errorf("%w: %s.%s", ErrNullKey, t.Name, c.Name)
			}
			continue
		}
		if v.K != c.Type {
			// Numeric widening is legal: int into float column.
			if c.Type == sqlval.KindFloat && v.K == sqlval.KindInt {
				continue
			}
			return fmt.Errorf("relstore: column %s.%s expects %s, got %s", t.Name, c.Name, c.Type, v.K)
		}
		if c.Type == sqlval.KindString && c.Width > 0 && len(v.S) > c.Width {
			return fmt.Errorf("%w: %s.%s width %d, value %q", schema.ErrWidthExceeded, t.Name, c.Name, c.Width, v.S)
		}
	}
	return nil
}

// normalize widens integers headed for FLOAT columns. The row is copied
// only if something has to change: the table encodes the row onto a heap
// page and keeps no reference to it.
func normalize(t *Table, row schema.Row) schema.Row {
	var out schema.Row
	for i, v := range row {
		if t.Columns[i].Type == sqlval.KindFloat && v.K == sqlval.KindInt {
			if out == nil {
				out = row.Clone()
			}
			out[i] = sqlval.Float(float64(v.I))
		}
	}
	if out == nil {
		return row
	}
	return out
}

// Insert appends a row, X-locking the table.
func (t *Tx) Insert(db, table string, row schema.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return err
	}
	tbl, err := t.tableForWriteLocked(db, table)
	if err != nil {
		return err
	}
	if err := tbl.validate(row); err != nil {
		return err
	}
	idx, err := tbl.insertRow(normalize(tbl, row), true)
	if err != nil {
		return err
	}
	if n := len(t.undo); n > 0 {
		if u := &t.undo[n-1]; u.kind == undoInsert && u.idx+u.n == idx && u.name == table && u.db == db {
			u.n++
			return nil
		}
	}
	t.undo = append(t.undo, undoRec{kind: undoInsert, db: db, name: table, idx: idx, n: 1})
	return nil
}

// Update replaces the row at idx. The caller must have obtained idx from a
// scan under this transaction (the X lock keeps indexes stable).
func (t *Tx) Update(db, table string, idx int, row schema.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return err
	}
	tbl, err := t.tableForWriteLocked(db, table)
	if err != nil {
		return err
	}
	old := tbl.RowAt(idx, nil)
	if old == nil {
		return fmt.Errorf("relstore: update of missing row %d in %s.%s", idx, db, table)
	}
	if err := tbl.validate(row); err != nil {
		return err
	}
	if err := tbl.updateRow(idx, normalize(tbl, row), true); err != nil {
		return err
	}
	t.undo = append(t.undo, undoRec{kind: undoUpdate, db: db, name: table, idx: idx, row: old})
	return nil
}

// Delete tombstones the row at idx.
func (t *Tx) Delete(db, table string, idx int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return err
	}
	tbl, err := t.tableForWriteLocked(db, table)
	if err != nil {
		return err
	}
	old, err := tbl.deleteRow(idx)
	if err != nil {
		return err
	}
	t.undo = append(t.undo, undoRec{kind: undoDelete, db: db, name: table, idx: idx, row: old})
	return nil
}

// CreateTable creates a table inside db.
func (t *Tx) CreateTable(db, name string, cols []schema.Column) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return err
	}
	d, err := t.store.Database(db)
	if err != nil {
		return err
	}
	if err := t.lock(tableKey(db, name), LockExclusive); err != nil {
		return err
	}
	if _, ok := d.tables[name]; ok {
		return fmt.Errorf("%w: %s.%s", schema.ErrTableExists, db, name)
	}
	tbl, err := t.store.newTable(name, cols)
	if err != nil {
		return err
	}
	d.tables[name] = tbl
	t.undo = append(t.undo, undoRec{kind: undoCreateTable, db: db, name: name})
	return nil
}

// DropTable removes a table.
func (t *Tx) DropTable(db, name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return err
	}
	d, err := t.store.Database(db)
	if err != nil {
		return err
	}
	if err := t.lock(tableKey(db, name), LockExclusive); err != nil {
		return err
	}
	tbl, ok := d.tables[name]
	if !ok {
		return fmt.Errorf("%w: %s.%s", schema.ErrNoTable, db, name)
	}
	delete(d.tables, name)
	t.lastWrite.tbl = nil
	t.undo = append(t.undo, undoRec{kind: undoDropTable, db: db, name: name, table: tbl})
	return nil
}

// CreateDatabase creates a database transactionally.
func (t *Tx) CreateDatabase(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return err
	}
	if err := t.lock(name, LockExclusive); err != nil {
		return err
	}
	if err := t.store.CreateDatabase(name); err != nil {
		return err
	}
	t.undo = append(t.undo, undoRec{kind: undoCreateDB, name: name})
	return nil
}

// DropDatabase drops a database transactionally.
func (t *Tx) DropDatabase(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return err
	}
	if err := t.lock(name, LockExclusive); err != nil {
		return err
	}
	d, err := t.store.Database(name)
	if err != nil {
		return err
	}
	if err := t.store.DropDatabase(name); err != nil {
		return err
	}
	t.lastWrite.tbl = nil
	t.undo = append(t.undo, undoRec{kind: undoDropDB, name: name, dbObj: d})
	return nil
}

// CreateView stores a view definition.
func (t *Tx) CreateView(db, name, definition string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return err
	}
	d, err := t.store.Database(db)
	if err != nil {
		return err
	}
	if err := t.lock(viewKey(db, name), LockExclusive); err != nil {
		return err
	}
	if _, ok := d.views[name]; ok {
		return fmt.Errorf("%w: %s.%s", ErrViewExists, db, name)
	}
	d.views[name] = &View{Name: name, Definition: definition}
	t.undo = append(t.undo, undoRec{kind: undoCreateView, db: db, name: name})
	return nil
}

// DropView removes a view definition.
func (t *Tx) DropView(db, name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return err
	}
	d, err := t.store.Database(db)
	if err != nil {
		return err
	}
	if err := t.lock(viewKey(db, name), LockExclusive); err != nil {
		return err
	}
	v, ok := d.views[name]
	if !ok {
		return fmt.Errorf("%w: %s.%s", schema.ErrNoView, db, name)
	}
	delete(d.views, name)
	t.undo = append(t.undo, undoRec{kind: undoDropView, db: db, name: name, view: v})
	return nil
}

// StoreDatabase returns the named database from the underlying store, for
// catalog metadata lookups by the engine layer.
func (t *Tx) StoreDatabase(name string) (*Database, error) {
	return t.store.Database(name)
}

// Prepare moves the transaction to the visible prepared-to-commit state.
// Locks stay held until Commit or Rollback.
func (t *Tx) Prepare() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.active(); err != nil {
		return err
	}
	t.state = TxPrepared
	return nil
}

// Commit makes all changes durable and releases locks. Valid from the
// active or prepared state.
func (t *Tx) Commit() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != TxActive && t.state != TxPrepared {
		return fmt.Errorf("%w (state %s)", ErrTxDone, t.state)
	}
	t.state = TxCommitted
	// A committed drop is the point of no return for the dropped object's
	// heap pages and data files: release them now that no rollback can
	// resurrect the object.
	for _, u := range t.undo {
		switch u.kind {
		case undoDropTable:
			u.table.destroy(t.store)
		case undoDropDB:
			for _, tbl := range u.dbObj.tables {
				tbl.destroy(t.store)
			}
		}
	}
	t.undo = nil
	t.finishLocked()
	return nil
}

// Rollback undoes all changes in reverse order and releases locks.
func (t *Tx) Rollback() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state != TxActive && t.state != TxPrepared {
		return fmt.Errorf("%w (state %s)", ErrTxDone, t.state)
	}
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.applyUndo(t.undo[i])
	}
	t.undo = nil
	t.state = TxAborted
	t.finishLocked()
	return nil
}

func (t *Tx) applyUndo(u undoRec) {
	switch u.kind {
	case undoInsert:
		if d, err := t.store.Database(u.db); err == nil {
			if tbl, ok := d.tables[u.name]; ok {
				for idx := u.idx + u.n - 1; idx >= u.idx; idx-- {
					if tbl.RowAt(idx, nil) == nil {
						continue
					}
					if _, err := tbl.deleteRow(idx); err != nil {
						tbl.fault(err)
					}
				}
			}
		}
	case undoDelete:
		if d, err := t.store.Database(u.db); err == nil {
			if tbl, ok := d.tables[u.name]; ok {
				if err := tbl.restoreRow(u.idx, u.row); err != nil {
					tbl.fault(err)
				}
			}
		}
	case undoUpdate:
		if d, err := t.store.Database(u.db); err == nil {
			if tbl, ok := d.tables[u.name]; ok && tbl.RowAt(u.idx, nil) != nil {
				if err := tbl.updateRow(u.idx, u.row, false); err != nil {
					tbl.fault(err)
				}
			}
		}
	case undoCreateTable:
		if d, err := t.store.Database(u.db); err == nil {
			if tbl, ok := d.tables[u.name]; ok {
				tbl.destroy(t.store)
				delete(d.tables, u.name)
			}
		}
	case undoDropTable:
		if d, err := t.store.Database(u.db); err == nil {
			d.tables[u.name] = u.table
		}
	case undoCreateDB:
		t.store.mu.Lock()
		delete(t.store.databases, u.name)
		t.store.mu.Unlock()
	case undoDropDB:
		t.store.mu.Lock()
		t.store.databases[u.name] = u.dbObj
		t.store.mu.Unlock()
	case undoCreateView:
		if d, err := t.store.Database(u.db); err == nil {
			delete(d.views, u.name)
		}
	case undoDropView:
		if d, err := t.store.Database(u.db); err == nil {
			d.views[u.name] = u.view
		}
	}
}

// finishLocked compacts tombstoned tables this transaction still holds
// exclusively, then releases its locks. Compaction must precede the
// release: the X lock is what keeps other transactions out of the rows
// being moved — compacting after releaseAll would race a waiter that
// acquires the lock the moment the release broadcasts. Tables touched
// only with S locks are left to their next writer's finish.
func (t *Tx) finishLocked() {
	for _, tt := range t.touched {
		if tt.mode == LockExclusive {
			tt.tbl.compact()
		}
	}
	t.touched = make(map[string]touchedTable)
	t.store.locks.releaseAll(t.id)
}
