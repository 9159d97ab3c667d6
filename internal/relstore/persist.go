package relstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"msql/internal/schema"
	"msql/internal/sqlval"
	"msql/internal/storage"
	"msql/internal/wal"
)

// Options configures Open.
type Options struct {
	// Dir is the data directory. Empty means an in-memory store: the
	// same page/pool machinery, backed by RAM.
	Dir string
	// PoolPages is the buffer pool size in 4 KiB frames; 0 means
	// storage.DefaultPoolPages.
	PoolPages int
}

// catalogFile is the store's schema manifest inside the data directory.
const catalogFile = "catalog.json"

// The catalog records schemas and heap-file names; page data lives in
// the .heap files it points at. A checkpoint that changes it replaces it
// atomically and durably (wal.WriteFileAtomic), so a crash leaves either
// the old or the new catalog.
type catalog struct {
	NextFile  int64       `json:"next_file"`
	Databases []catalogDB `json:"databases"`
}

type catalogDB struct {
	Name   string         `json:"name"`
	Tables []catalogTable `json:"tables"`
	Views  []catalogView  `json:"views"`
}

type catalogTable struct {
	Name    string       `json:"name"`
	File    string       `json:"file"`
	Columns []catalogCol `json:"columns"`
}

type catalogCol struct {
	Name  string `json:"name"`
	Type  uint8  `json:"type"`
	Width int    `json:"width,omitempty"`
	Key   bool   `json:"key,omitempty"`
}

type catalogView struct {
	Name       string `json:"name"`
	Definition string `json:"definition"`
}

// Open creates or reopens a store. With a data directory, the catalog is
// loaded and every table's heap file is opened with repair enabled: torn
// tail pages are truncated and pages failing their CRC are reinitialized
// (the durability unit is the checkpoint — see Checkpoint). Without one,
// the store is memory-backed.
func Open(opts Options) (*Store, error) {
	pages := opts.PoolPages
	if pages <= 0 {
		pages = storage.DefaultPoolPages
	}
	s := &Store{
		databases: make(map[string]*Database),
		locks:     newLockManager(),
		pool:      storage.NewPool(pages),
		dir:       opts.Dir,
	}
	if opts.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("relstore: open data dir: %w", err)
	}
	raw, err := os.ReadFile(filepath.Join(opts.Dir, catalogFile))
	if os.IsNotExist(err) {
		s.catalogGen = 1 // fresh directory: no catalog is durable yet
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("relstore: read catalog: %w", err)
	}
	var cat catalog
	if err := json.Unmarshal(raw, &cat); err != nil {
		return nil, fmt.Errorf("relstore: parse catalog: %w", err)
	}
	s.nextFile = cat.NextFile
	for _, cd := range cat.Databases {
		tables, views := make(map[string]*Table), make(map[string]*View)
		for _, ct := range cd.Tables {
			t, err := s.openTable(ct)
			if err != nil {
				return nil, fmt.Errorf("relstore: reopen %s.%s: %w", cd.Name, ct.Name, err)
			}
			tables[ct.Name] = t
		}
		for _, cv := range cd.Views {
			views[cv.Name] = &View{Name: cv.Name, Definition: cv.Definition}
		}
		d := &Database{Name: cd.Name}
		d.tables.p.Store(&tables)
		d.views.p.Store(&views)
		s.databases[cd.Name] = d
	}
	return s, nil
}

// openTable attaches one table's heap file, rebuilding its RID table and
// primary-key index by scanning. Stable indexes restart in heap order —
// they only need to stay stable within one server uptime.
func (s *Store) openTable(ct catalogTable) (*Table, error) {
	cols := make([]schema.Column, len(ct.Columns))
	for i, cc := range ct.Columns {
		cols[i] = schema.Column{Name: cc.Name, Type: sqlval.Kind(cc.Type), Width: cc.Width, Key: cc.Key}
	}
	t := &Table{Name: ct.Name, Columns: cols, keys: keyColumns(cols), file: ct.File}
	if len(t.keys) > 0 {
		t.index = storage.NewBTree()
	}
	fb, _, err := storage.RepairFileBacking(filepath.Join(s.dir, ct.File))
	if err != nil {
		return nil, err
	}
	t.backing = fb
	h, _, err := storage.OpenHeapFile(s.pool, fb, storage.OpenOptions{Repair: true})
	if err != nil {
		fb.Close()
		return nil, err
	}
	t.heap = h
	var scanErr error
	err = h.Scan(nil, func(rid storage.RID, data []byte) bool {
		vals, derr := storage.DecodeRow(data)
		if derr != nil {
			scanErr = derr
			return false
		}
		idx := len(t.rids)
		t.rids = append(t.rids, rid)
		t.live.Add(1)
		if t.index != nil {
			t.index.Insert(t.keyOf(schema.Row(vals)), int64(idx))
		}
		return true
	})
	if err == nil {
		err = scanErr
	}
	if err != nil {
		h.Drop()
		fb.Close()
		return nil, err
	}
	return t, nil
}

// Checkpoint makes the store's current committed state the durable one:
// every dirty page is written back, every heap file written since its
// last successful fsync is fsynced (a clean file costs nothing, and one
// whose fsync failed is retried here), then the catalog, if it changed,
// is atomically replaced. In-memory stores checkpoint trivially.
//
// Checkpoints are serialized: every session checkpoints after its own
// commit, and two of them writing catalog.json.tmp at once would rename
// a half-written or already-renamed file. Other sessions may keep
// writing rows meanwhile; the pool's flush waits out each row mutation
// (storage.Pool.FlushAll), so no page is written half-changed.
//
// The pool follows a steal policy: eviction under memory pressure may
// write uncommitted pages to disk between checkpoints. A crash therefore
// recovers to the last checkpoint plus whatever the LDBMS redo/termination
// protocol replays on top; callers that need transactional durability
// checkpoint on commit (see internal/ldbms).
func (s *Store) Checkpoint() error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if err := s.pool.FlushAll(); err != nil {
		return err
	}
	if s.dir == "" {
		return nil
	}
	s.mu.RLock()
	for _, d := range s.databases {
		for _, t := range d.tables.get() {
			if err := t.backing.Sync(); err != nil {
				s.mu.RUnlock()
				return err
			}
		}
	}
	// The catalog holds only DDL state, so on almost every commit it is
	// what is already durable under its name.
	gen := s.catalogGen
	if gen == s.catalogSaved {
		s.mu.RUnlock()
		return nil
	}
	var cat catalog
	cat.NextFile = atomic.LoadInt64(&s.nextFile)
	for _, dn := range s.databaseNamesLocked() {
		d := s.databases[dn]
		cd := catalogDB{Name: dn}
		for _, tn := range d.TableNames() {
			t := d.tables.get()[tn]
			ct := catalogTable{Name: tn, File: t.file}
			for _, c := range t.Columns {
				ct.Columns = append(ct.Columns, catalogCol{
					Name: c.Name, Type: uint8(c.Type), Width: c.Width, Key: c.Key,
				})
			}
			cd.Tables = append(cd.Tables, ct)
		}
		for _, vn := range d.ViewNames() {
			cd.Views = append(cd.Views, catalogView{Name: vn, Definition: d.views.get()[vn].Definition})
		}
		cat.Databases = append(cat.Databases, cd)
	}
	s.mu.RUnlock()
	raw, err := json.MarshalIndent(&cat, "", "  ")
	if err != nil {
		return err
	}
	if err := wal.WriteFileAtomic(filepath.Join(s.dir, catalogFile), raw); err != nil {
		return err
	}
	s.catalogSaved = gen
	return nil
}

// Close checkpoints and releases the store's file handles.
func (s *Store) Close() error {
	err := s.Checkpoint()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, d := range s.databases {
		for _, t := range d.tables.get() {
			if cerr := t.backing.Close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}
