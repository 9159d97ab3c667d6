.PHONY: build test bench check bench-check lint-metrics

build:
	go build ./...

test:
	go test ./...

# Per-layer micro-benchmarks (sqlengine, relstore, ...). The end-to-end
# benchmark is bench/ (BENCHMARK.json, bash bench/run.sh).
bench:
	go test -run '^$$' -bench . -benchmem ./internal/...

# Full verification: static analysis, the layering guard (only relbackend
# and ldbms.Open, which builds a site's engine, import relstore; only
# ldbms imports csvstore; only wire imports gob), and the whole test
# suite under the race detector (the fault-injection tests are
# concurrency-heavy).
check:
	go vet ./...
	sh scripts/check-layering.sh
	go test -race ./...

# bench/ is a module of its own (BENCHMARK.json runs it); root
# build/test ./... do not see it, so vet and test it where it lives.
# Nothing in it is skipped; scripts/bench-test.sh says which single
# complaint of TestSmoke/vital_2pc it tolerates, and why.
bench-check:
	go -C bench vet ./...
	sh scripts/bench-test.sh

# Every registered metric must be msql_-prefixed snake_case and
# documented in DESIGN.md's metric inventory, and every metric in the
# inventory must still be registered.
lint-metrics:
	sh scripts/lint-metrics.sh
