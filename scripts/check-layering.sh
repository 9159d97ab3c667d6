#!/bin/sh
# Layering guard. Columns, rows and the missing-object errors belong to
# internal/schema; the relstore engine is an implementation detail of
# the code that builds one (relstore itself, its backend adapter, the
# LDBMS server that defaults to it, and topology, the one builder of
# served sites, which opens it on disk).
# Fails if any other non-test package imports relstore, or if the
# executor, the csv engine or the backend seam link it at all. The wire
# protocol's codec is internal/wire's business: it fails, too, if any
# other non-test package imports encoding/gob. Run from the repository
# root; `make check` and CI run it.
set -eu

rel=msql/internal/relstore
fail=0

importers=$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./... |
    awk -v rel="$rel" '{ for (i = 2; i <= NF; i++) if ($i == rel) print $1 }')
for p in $importers; do
    case "$p" in
    msql/internal/relbackend | msql/internal/ldbms | msql/internal/topology) ;;
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

gobbers=$(go list -f '{{.ImportPath}} {{join .Imports " "}}' ./... |
    awk '{ for (i = 2; i <= NF; i++) if ($i == "encoding/gob") print $1 }')
for p in $gobbers; do
    if [ "$p" != msql/internal/wire ]; then
        echo "check-layering: $p imports encoding/gob (speak the wire protocol through internal/wire)" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "check-layering: only relbackend, ldbms and topology import relstore; only wire imports encoding/gob"
