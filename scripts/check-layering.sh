#!/bin/sh
# Layering guard. Columns, rows and the missing-object errors belong to
# internal/schema; the relstore engine is an implementation detail of
# the code that builds one (relstore itself, its backend adapter, the
# LDBMS server that defaults to it, and the demo that opens it on disk).
# Fails if any other non-test package imports relstore, or if the
# executor, the csv engine or the backend seam link it at all. Run from
# the repository root; `make check` and CI run it.
set -eu

rel=msql/internal/relstore
fail=0

importers=$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./... |
    awk -v rel="$rel" '{ for (i = 2; i <= NF; i++) if ($i == rel) print $1 }')
for p in $importers; do
    case "$p" in
    msql/internal/relbackend | msql/internal/ldbms | msql/internal/demo) ;;
    *)
        echo "check-layering: $p imports $rel (name columns and errors through internal/schema)" >&2
        fail=1
        ;;
    esac
done

for p in ./internal/sqlengine ./internal/csvstore ./internal/backend; do
    if go list -deps "$p" | grep -qx "$rel"; then
        echo "check-layering: $p links $rel" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check-layering: only relbackend, ldbms and demo import relstore"
