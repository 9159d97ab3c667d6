package lam

import "msql/internal/obs"

// Federation metrics recorded by the LAM layer (see DESIGN.md §8).
// Client-side metrics are labeled by site address so a coordinator's
// /metrics separates the latency and failure behavior of each member
// DBMS; server-side metrics are labeled by operation. An operation is
// wire.Request.Op on both sides: an exec that carries its transaction's
// ending counts as exec+commit or exec+prepare, not as exec.
var (
	mCallLatency = obs.Default().HistogramVec("msql_site_call_seconds",
		"Round-trip latency of wire calls to each LAM site.",
		nil, "site", "op")
	mTransientErrs = obs.Default().CounterVec("msql_site_transient_errors_total",
		"Transport-level failures (timeout, severed/refused connection, torn stream) per site and operation.",
		"site", "op")
	mRetries = obs.Default().CounterVec("msql_site_retries_total",
		"Control-plane retries after transient failures, per site.",
		"site")
	mPoolReuse = obs.Default().CounterVec("msql_site_conn_reuse_total",
		"Session first requests, resolves and control calls sent on a pooled connection that passed the peer-close check instead of a fresh dial, per site.",
		"site")
	mBreakerTransitions = obs.Default().CounterVec("msql_breaker_transitions_total",
		"Circuit-breaker state transitions per service, labeled by the state entered.",
		"service", "to")
	mBreakerState = obs.Default().GaugeVec("msql_breaker_state",
		"Current circuit-breaker state per service (0=closed, 1=open, 2=half-open).",
		"service")
	mServerRequests = obs.Default().CounterVec("msql_server_requests_total",
		"Requests handled by this LAM server, per operation.",
		"op")
	mServerLatency = obs.Default().HistogramVec("msql_server_request_seconds",
		"Server-side processing time per operation (excludes wire time).",
		nil, "op")
	mTombstones = obs.Default().GaugeVec("msql_lam_tombstones",
		"Unacknowledged outcome tombstones of once-prepared sessions, per service.",
		"service")
	mParked = obs.Default().GaugeVec("msql_lam_parked_sessions",
		"Parked in-doubt sessions awaiting a coordinator decision, per service.",
		"service")
	mReplayed = obs.Default().CounterVec("msql_lam_journal_replayed_total",
		"Sessions re-materialized from the participant journal at startup, by kind.",
		"service", "kind")
)
