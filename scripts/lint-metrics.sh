#!/bin/sh
# Metric-name lint, both ways: every metric registered in non-test code
# must be msql_-prefixed snake_case and documented in DESIGN.md's metric
# inventory (section 8), and every metric in the inventory's name column
# must still be registered — a metric that vanished is a broken
# dashboard. Run from the repository root; CI runs it on every push.
set -eu

names=$(grep -rhoE '(Counter|Gauge|Histogram|CounterVec|GaugeVec|HistogramVec)\("[^"]+"' \
    --include='*.go' --exclude='*_test.go' cmd internal |
    sed -E 's/.*\("([^"]+)"/\1/' | sort -u)

if [ -z "$names" ]; then
    echo "lint-metrics: no registered metrics found — extraction broken?" >&2
    exit 1
fi

fail=0
for n in $names; do
    case "$n" in
    msql_*) ;;
    *)
        echo "lint-metrics: $n is not msql_-prefixed" >&2
        fail=1
        ;;
    esac
    if ! printf '%s' "$n" | grep -qE '^msql_[a-z0-9_]+$'; then
        echo "lint-metrics: $n is not snake_case" >&2
        fail=1
    fi
    if ! grep -q "$n" DESIGN.md; then
        echo "lint-metrics: $n is not documented in DESIGN.md" >&2
        fail=1
    fi
done

documented=$(grep -E '^\| `msql_' DESIGN.md | cut -d'|' -f2 |
    grep -oE 'msql_[a-z0-9_]+' | sort -u)
for n in $documented; do
    if ! printf '%s\n' "$names" | grep -qx "$n"; then
        echo "lint-metrics: $n is in DESIGN.md's inventory but no longer registered" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "lint-metrics: $(printf '%s\n' "$names" | wc -l | tr -d ' ') metrics, all msql_-prefixed, documented and registered"
