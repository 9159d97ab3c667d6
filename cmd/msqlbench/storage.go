package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"time"

	"msql/internal/relbackend"
	"msql/internal/relstore"
	"msql/internal/sqlengine"
	"msql/internal/sqlval"
)

// storageReport is the machine-readable form of one storage run, written
// as BENCH_storage.json and consumed by -baseline for regression smoke
// checks. The interesting numbers are the index-vs-scan point-lookup
// speedup and the buffer-pool counters proving the working set exceeded
// the pool.
type storageReport struct {
	GeneratedAt string `json:"generated_at"`
	Rows        int    `json:"rows"`
	BufferPages int    `json:"buffer_pages"`
	Lookups     int    `json:"lookups"`

	LoadMS      float64 `json:"load_ms"`
	LoadRowsSec float64 `json:"load_rows_per_sec"`
	SeqScanMS   float64 `json:"seqscan_ms"` // one full-table aggregate scan

	IndexLookupUS float64 `json:"index_lookup_us"` // per point lookup, B-tree probe
	ScanLookupUS  float64 `json:"scan_lookup_us"`  // per point lookup, forced seq scan
	Speedup       float64 `json:"speedup"`         // scan / index

	PoolHits      int64 `json:"pool_hits"`
	PoolMisses    int64 `json:"pool_misses"`
	PoolEvictions int64 `json:"pool_evictions"`
}

// runStorage loads a disk-backed table deliberately larger than the
// buffer pool, then measures sequential scans and point lookups with the
// primary-key index against the same lookups with the index disabled.
func runStorage(rows, bufferPages, lookups int, jsonPath, baselinePath string) error {
	dir, err := os.MkdirTemp("", "msqlbench-storage")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := relstore.Open(relstore.Options{Dir: dir, PoolPages: bufferPages})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.CreateDatabase("bench"); err != nil {
		return err
	}

	// Load in batches so no single transaction pins the whole table's
	// undo state, checkpointing once at the end.
	loadStart := time.Now()
	tx := st.Begin()
	if _, err := sqlengine.ExecuteSQL(relbackend.Storage(tx), "bench",
		`CREATE TABLE rec (id INTEGER PRIMARY KEY, grp INTEGER, payload CHAR(32))`); err != nil {
		return err
	}
	if err := tx.Commit(); err != nil {
		return err
	}
	const batch = 5000
	for lo := 0; lo < rows; lo += batch {
		tx := st.Begin()
		hi := lo + batch
		if hi > rows {
			hi = rows
		}
		for i := lo; i < hi; i++ {
			row := relstore.Row{
				sqlval.Int(int64(i)),
				sqlval.Int(int64(i % 97)),
				sqlval.Str(fmt.Sprintf("payload-%024d", i)),
			}
			if err := tx.Insert("bench", "rec", row); err != nil {
				tx.Rollback()
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	if err := st.Checkpoint(); err != nil {
		return err
	}
	loadDur := time.Since(loadStart)

	query := func(q string) (*sqlengine.Result, error) {
		tx := st.Begin()
		defer tx.Rollback()
		return sqlengine.ExecuteSQL(relbackend.Storage(tx), "bench", q)
	}

	// One warm-up scan, then a timed full scan through the pool.
	if _, err := query(`SELECT COUNT(*) FROM rec`); err != nil {
		return err
	}
	scanStart := time.Now()
	res, err := query(`SELECT COUNT(*) FROM rec`)
	if err != nil {
		return err
	}
	seqScan := time.Since(scanStart)
	if n, _ := res.Rows[0][0].AsInt(); int(n) != rows {
		return fmt.Errorf("scan saw %d rows, want %d", n, rows)
	}

	// Point lookups: the same query shape with and without the access
	// path. DisableJoinOptimization plans no index probes, so the second
	// loop pays a full sequential scan per lookup.
	rng := rand.New(rand.NewSource(42))
	keys := make([]int, lookups)
	for i := range keys {
		keys[i] = rng.Intn(rows)
	}
	lookup := func(k int) error {
		res, err := query(fmt.Sprintf(`SELECT payload FROM rec WHERE id = %d`, k))
		if err != nil {
			return err
		}
		if len(res.Rows) != 1 {
			return fmt.Errorf("lookup id=%d: %d rows", k, len(res.Rows))
		}
		return nil
	}
	idxStart := time.Now()
	for _, k := range keys {
		if err := lookup(k); err != nil {
			return err
		}
	}
	idxDur := time.Since(idxStart)

	scanLookups := lookups / 40
	if scanLookups < 5 {
		scanLookups = 5
	}
	sqlengine.DisableJoinOptimization = true
	scanLkStart := time.Now()
	for _, k := range keys[:scanLookups] {
		if err := lookup(k); err != nil {
			sqlengine.DisableJoinOptimization = false
			return err
		}
	}
	scanLkDur := time.Since(scanLkStart)
	sqlengine.DisableJoinOptimization = false

	ps := st.Pool().Stats()
	rep := &storageReport{
		GeneratedAt:   time.Now().UTC().Format(time.RFC3339),
		Rows:          rows,
		BufferPages:   bufferPages,
		Lookups:       lookups,
		LoadMS:        float64(loadDur.Microseconds()) / 1000,
		LoadRowsSec:   float64(rows) / loadDur.Seconds(),
		SeqScanMS:     float64(seqScan.Microseconds()) / 1000,
		IndexLookupUS: float64(idxDur.Microseconds()) / float64(lookups),
		ScanLookupUS:  float64(scanLkDur.Microseconds()) / float64(scanLookups),
		PoolHits:      ps.Hits,
		PoolMisses:    ps.Misses,
		PoolEvictions: ps.Evictions,
	}
	if rep.IndexLookupUS > 0 {
		rep.Speedup = rep.ScanLookupUS / rep.IndexLookupUS
	}

	fmt.Printf("== Storage: %d rows, %d-page buffer pool ==\n", rows, bufferPages)
	fmt.Printf("load: %d rows in %v (%.0f rows/sec)\n", rows, loadDur.Round(time.Millisecond), rep.LoadRowsSec)
	fmt.Printf("seq scan: %.1f ms for the full table\n", rep.SeqScanMS)
	fmt.Printf("point lookup: %.1f us via B-tree, %.1f us via forced seq scan (%.0fx speedup)\n",
		rep.IndexLookupUS, rep.ScanLookupUS, rep.Speedup)
	fmt.Printf("pool: %d hits, %d misses, %d evictions (table larger than pool: %t)\n",
		ps.Hits, ps.Misses, ps.Evictions, ps.Evictions > 0)

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonPath)
	}

	if baselinePath != "" {
		base := &storageReport{}
		data, err := os.ReadFile(baselinePath)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		if err := json.Unmarshal(data, base); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		if base.IndexLookupUS > 0 && rep.IndexLookupUS > 2*base.IndexLookupUS {
			return fmt.Errorf("index lookup regression: %.1f us is over 2x the baseline %.1f us",
				rep.IndexLookupUS, base.IndexLookupUS)
		}
		if base.SeqScanMS > 0 && rep.SeqScanMS > 2*base.SeqScanMS {
			return fmt.Errorf("seq scan regression: %.1f ms is over 2x the baseline %.1f ms",
				rep.SeqScanMS, base.SeqScanMS)
		}
		fmt.Printf("baseline check passed: lookup %.1f us vs baseline %.1f us, scan %.1f ms vs %.1f ms\n",
			rep.IndexLookupUS, base.IndexLookupUS, rep.SeqScanMS, base.SeqScanMS)
	}
	return nil
}
