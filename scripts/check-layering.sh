#!/bin/sh
# Layering guard. Columns, rows and the missing-object errors belong to
# internal/schema; the storage engines are an implementation detail of
# the code that builds them: relstore's backend adapter and ldbms.Open,
# the one builder of a simulated product instance, which opens relstore
# or csvstore in memory or on disk.
# Fails if any other non-test package imports relstore or csvstore, or
# if the executor, the csv engine or the backend seam link relstore at
# all. The wire protocol's codec is internal/wire's business: it fails,
# too, if any other non-test package imports encoding/gob. Run from the
# repository root; `make check` and CI run it.
set -eu

rel=msql/internal/relstore
csv=msql/internal/csvstore
fail=0

# importers prints the non-test packages that import $1.
importers() {
    go list -f '{{.ImportPath}} {{join .Imports " "}}' ./... |
        awk -v dep="$1" '{ for (i = 2; i <= NF; i++) if ($i == dep) print $1 }'
}

for p in $(importers "$rel"); do
    case "$p" in
    msql/internal/relbackend | msql/internal/ldbms) ;;
    *)
        echo "check-layering: $p imports $rel (name columns and errors through internal/schema; build sites with ldbms.Open)" >&2
        fail=1
        ;;
    esac
done

for p in $(importers "$csv"); do
    if [ "$p" != msql/internal/ldbms ]; then
        echo "check-layering: $p imports $csv (build sites with ldbms.Open)" >&2
        fail=1
    fi
done

for p in ./internal/sqlengine ./internal/csvstore ./internal/backend; do
    if go list -deps "$p" | grep -qx "$rel"; then
        echo "check-layering: $p links $rel" >&2
        fail=1
    fi
done

for p in $(importers encoding/gob); do
    if [ "$p" != msql/internal/wire ]; then
        echo "check-layering: $p imports encoding/gob (speak the wire protocol through internal/wire)" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check-layering: only relbackend and ldbms import relstore; only ldbms imports csvstore; only wire imports encoding/gob"
