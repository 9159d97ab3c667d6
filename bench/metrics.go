package main

// metric names one reported number. Bound is the share of the parent's
// median an end-to-end metric may worsen by before it is a regression;
// layer metrics carry none.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd lists what a user of the federation sees, measured with
// tracing off and the workload's closed-loop connections. BENCHMARK.json
// repeats this table (TestManifestMatches keeps the two in step).
// fail_frac is not a metric of its own: the result line's attempted and
// failed carry it, and any failure makes the run incorrect. The bounds are
// the contract's maximum: on the shared sandbox the spread over ten seeds
// is 0.05 to 0.10 of the median (README.md, Measured spread), and a bound
// should be three times the spread.
var endToEnd = []metric{
	{"stmt_per_s", "1/s", "higher", 0.25},
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p90_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer lists the traced run's numbers, module by module. Units: us
// and counts are per statement unless the name says otherwise; *_us
// without per_stmt is one call of the named function.
var perLayer = []metric{
	// span part: wall partition of the root span
	{Name: "client.traced_lat_mean_us", Unit: "us", Better: "lower"},
	{Name: "core.self_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "core.unattributed_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "lam.wall_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "backend.wall_us_per_stmt", Unit: "us", Better: "lower"},
	// span part: busy time and counts per layer
	{Name: "lam.calls_per_stmt", Unit: "count", Better: "lower"},
	{Name: "lam.open_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "lam.exec_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "lam.prepare_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "lam.commit_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "lam.close_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "lam.self_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "lam.errors_per_stmt", Unit: "count", Better: "lower"},
	{Name: "backend.exec_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "backend.prepare_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "backend.commit_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "backend.checkpoint_us_per_stmt", Unit: "us", Better: "lower"},
	{Name: "backend.checkpoints_per_stmt", Unit: "count", Better: "lower"},
	{Name: "backend.rows_returned_per_stmt", Unit: "count", Better: "lower"},
	{Name: "dolengine.ship_execs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "dolengine.ship_sql_bytes_per_stmt", Unit: "B", Better: "lower"},
	{Name: "dolengine.ship_rows_per_stmt", Unit: "count", Better: "lower"},
	{Name: "trace.orphan_spans", Unit: "count", Better: "lower"},
	// counter deltas over the traced run
	{Name: "ldbms.execs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "ldbms.prepares_per_stmt", Unit: "count", Better: "lower"},
	{Name: "ldbms.commits_per_stmt", Unit: "count", Better: "lower"},
	{Name: "ldbms.rollbacks_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.pool_hits_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.pool_misses_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.pool_evictions_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.pool_flushes_per_stmt", Unit: "count", Better: "lower"},
	{Name: "storage.flushed_kb_per_stmt", Unit: "KB", Better: "lower"},
	{Name: "storage.pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "mtlog.sync_records_per_stmt", Unit: "count", Better: "lower"},
	{Name: "mtlog.fsyncs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "process.cpu_ms_per_stmt", Unit: "ms", Better: "lower"},
	{Name: "process.alloc_kb_per_stmt", Unit: "KB", Better: "lower"},
	{Name: "process.allocs_per_stmt", Unit: "count", Better: "lower"},
	{Name: "process.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "client.lat_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.trace_overhead_frac", Unit: "frac", Better: "lower"},
	// stage part: direct timed calls on the workload's own statements
	{Name: "msqlparser.parse_us", Unit: "us", Better: "lower"},
	{Name: "semvar.expand_us", Unit: "us", Better: "lower"},
	{Name: "decompose.decompose_us", Unit: "us", Better: "lower"},
	{Name: "translate.translate_us", Unit: "us", Better: "lower"},
	{Name: "dol.tasks_per_stmt", Unit: "count", Better: "lower"},
	{Name: "dol.print_us", Unit: "us", Better: "lower"},
	{Name: "dolengine.run_us", Unit: "us", Better: "lower"},
	{Name: "sqlparser.parse_us", Unit: "us", Better: "lower"},
	{Name: "sqlparser.deparse_us", Unit: "us", Better: "lower"},
	{Name: "wire.gob_fresh_us", Unit: "us", Better: "lower"},
	{Name: "wire.gob_reused_us", Unit: "us", Better: "lower"},
	{Name: "wire.resp_bytes_per_row", Unit: "B", Better: "lower"},
	{Name: "mtlog.append_sync_us", Unit: "us", Better: "lower"},
	{Name: "mtlog.pappend_sync_us", Unit: "us", Better: "lower"},
}

// exactCounts are the layer metrics that must repeat exactly between two
// traced runs of one seed: they count calls, not time.
var exactCounts = []string{
	"lam.calls_per_stmt", "lam.errors_per_stmt",
	"backend.checkpoints_per_stmt", "backend.rows_returned_per_stmt",
	"dolengine.ship_execs_per_stmt", "dolengine.ship_sql_bytes_per_stmt", "dolengine.ship_rows_per_stmt",
	"ldbms.execs_per_stmt", "ldbms.prepares_per_stmt", "ldbms.commits_per_stmt", "ldbms.rollbacks_per_stmt",
	"mtlog.sync_records_per_stmt", "mtlog.fsyncs_per_stmt",
	"dol.tasks_per_stmt",
}
