#!/bin/sh
# Runs bench/'s own tests, unedited and with nothing skipped, and
# tolerates exactly two complaints, each one line of one subtest:
#
#   TestSmoke/vital_2pc:
#     mtlog.fsyncs_per_stmt: X then Y for one seed
#
# bench/metrics.go lists that metric in exactCounts, but since
# internal/wal the unit's three concurrent TPrepared appends share an
# fsync when they overlap, so it is 3.6-4.0 per statement and differs
# between two runs.
#
#   TestSmoke/cross_join_ship:
#     no ship INSERT seen at the coordinator site
#
# bench/trace.go recognises a shipment by the `INSERT INTO mtmp_` prefix
# of a lam.exec text, and since PR 20 there is no such text:
# dolengine.execShip moves the rows typed, through lam.Session.Load,
# which bench's tracedSession forwards without a span. The three
# dolengine.ship_*_per_stmt metrics therefore read 0; what was shipped is
# on msql_ship_rows_total / msql_ship_batches_total and on the ship node
# of EXPLAIN ANALYZE.
#
# Every other assertion of both subtests (correctness, failed
# operations, orphan spans, per-layer spans, the wall partition, the
# other exact counts) still fails this script, as does any output line
# it does not expect — it fails closed. Delete this script and call
# `go -C bench test ./...` from the Makefile again once a benchmark PR
# takes mtlog.fsyncs_per_stmt out of exactCounts and re-points
# dolengine.ship_* (and that assertion) at Load calls (ROADMAP item 1).
# Run from the repository root.
set -u

out=$(go -C bench test -count=1 ./... 2>&1)
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] && exit 0

unexpected=$(printf '%s\n' "$out" | grep -v -x -E \
    -e '--- FAIL: TestSmoke \([0-9.]+s\)' \
    -e ' +--- FAIL: TestSmoke/vital_2pc \([0-9.]+s\)' \
    -e ' +bench_test\.go:[0-9]+: mtlog\.fsyncs_per_stmt: [0-9.]+ then [0-9.]+ for one seed' \
    -e ' +--- FAIL: TestSmoke/cross_join_ship \([0-9.]+s\)' \
    -e ' +bench_test\.go:[0-9]+: no ship INSERT seen at the coordinator site' \
    -e 'FAIL' \
    -e 'FAIL[[:space:]]+msql/bench[[:space:]]+[0-9.]+s')
if [ -n "$unexpected" ]; then
    echo "bench-test: failures beyond the two known complaints:" >&2
    printf '%s\n' "$unexpected" >&2
    exit 1
fi
echo "bench-test: only the known mtlog.fsyncs_per_stmt and ship-INSERT complaints (see this script's header); passing"
