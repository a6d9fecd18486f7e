#!/usr/bin/env bash
# check_imports.sh — enforce the layer DAG between packages.
#
# The runtime is layered: algorithm packages at the bottom, the stream
# engine above them, push-side consumers (alert) and the serving layer
# above that, the node runtime on top, and binaries that are flag parsing
# over one entry package. Imports may only point downward; this script
# fails if any package reaches up or sideways into a layer it must not
# know about.
#
#   cmd/streamd          -> internal/node only (among internal/*)
#   cmd/regcube-router   -> internal/cluster, gen, serve, wire only
#   internal/node        -> anything below it except internal/cluster
#   internal/serve       -> must not reach node/cluster/wal/persist/gen
#   internal/alert       -> must not reach node/serve/cluster/wal/persist/gen/query
#   internal/insight     -> must not reach alert/serve/node/wal/cluster/persist/query/gen
#   internal/stream      -> must not reach alert/serve/node/wal/cluster/persist/query/gen
#
# Run from the repo root: ./scripts/check_imports.sh

set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# check PKG FORBIDDEN...: fail if PKG imports any forbidden package
# (transitively direct — `go list` of the package's own import list).
check() {
    pkg="$1"
    shift
    imports=$(go list -f '{{join .Imports "\n"}}' "$pkg")
    for bad in "$@"; do
        if echo "$imports" | grep -qx "repro/$bad"; then
            echo "LAYERING VIOLATION: $pkg imports repro/$bad" >&2
            fail=1
        fi
    done
}

# checkonly PKG ALLOWED...: fail if PKG imports any repro/internal
# package not in the allow list.
checkonly() {
    pkg="$1"
    shift
    imports=$(go list -f '{{join .Imports "\n"}}' "$pkg" | grep '^repro/internal/' || true)
    for imp in $imports; do
        ok=0
        for allowed in "$@"; do
            if [ "$imp" = "repro/$allowed" ]; then
                ok=1
                break
            fi
        done
        if [ "$ok" = 0 ]; then
            echo "LAYERING VIOLATION: $pkg imports $imp (allowed: $*)" >&2
            fail=1
        fi
    done
}

# The daemon binary is flag parsing over the node runtime.
checkonly repro/cmd/streamd internal/node

# The router binary is flag parsing over the cluster layer: the stream
# reader (gen, wire) feeds cluster.Router, serve answers for the gatherer.
checkonly repro/cmd/regcube-router internal/cluster internal/gen internal/serve internal/wire

# The node runtime sits above everything except the cluster layer (the
# router is its peer, not its dependency).
check repro/internal/node internal/cluster

# The serving layer reads snapshots and alert state; it must not know
# about the runtime, the cluster, or any persistence machinery.
check repro/internal/serve internal/node internal/cluster internal/wal internal/persist internal/gen

# The alert lifecycle consumes the snapshot bus only.
check repro/internal/alert internal/node internal/serve internal/cluster internal/wal internal/persist internal/gen internal/query

# The prediction subsystem is a pure snapshot consumer between stream
# and its consumers (query and alert both import it); it must know
# nothing above itself.
check repro/internal/insight internal/alert internal/serve internal/node internal/wal internal/cluster internal/persist internal/query internal/gen

# The stream engine is below every consumer; nothing push- or serve-side
# may leak into it.
check repro/internal/stream internal/alert internal/serve internal/node internal/wal internal/cluster internal/persist internal/query internal/gen

# query defines the wire types and executes against engine snapshots; it
# sits between stream and serve and must not reach above itself.
check repro/internal/query internal/serve internal/node internal/cluster internal/wal internal/persist

if [ "$fail" != 0 ]; then
    echo "import layering check FAILED" >&2
    exit 1
fi
echo "import layering check OK"
