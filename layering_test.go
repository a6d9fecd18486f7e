package regcube

import (
	"go/build"
	"slices"
	"strings"
	"testing"
)

// layerRule constrains the repro/internal imports of one package: with
// only set, it may import those internal packages and no other; otherwise
// it must import none of forbid.
type layerRule struct {
	pkg    string
	only   []string
	forbid []string
}

// layerRules is the layer DAG between packages. The runtime is layered:
// algorithm packages at the bottom, the stream engine above them,
// push-side consumers (alert) and the serving layer above that, the node
// runtime on top, and binaries that are flag parsing over one entry
// package. Imports may only point downward.
var layerRules = []layerRule{
	// The daemon binary is flag parsing over the node runtime.
	{pkg: "cmd/streamd", only: []string{"internal/node"}},
	// The router binary is flag parsing over the cluster layer: the stream
	// reader (gen, wire) feeds cluster.Router, serve answers for the
	// gatherer.
	{pkg: "cmd/regcube-router", only: []string{"internal/cluster", "internal/gen", "internal/serve", "internal/wire"}},
	// The paper's batch study (§5) runs the two batch cubing algorithms
	// and the tilt frame; it never pulls in the stream stack.
	{pkg: "cmd/benchfig", only: []string{"internal/core", "internal/cube", "internal/exception", "internal/gen", "internal/tilt"}},
	// The node runtime sits above everything except the cluster layer (the
	// router is its peer, not its dependency).
	{pkg: "internal/node", forbid: []string{"internal/cluster"}},
	// The serving layer reads snapshots and alert state; it must not know
	// about the runtime, the cluster, or any persistence machinery.
	{pkg: "internal/serve", forbid: []string{"internal/node", "internal/cluster", "internal/wal", "internal/persist", "internal/gen"}},
	// The alert lifecycle observes the snapshots the engine returns.
	{pkg: "internal/alert", forbid: []string{"internal/node", "internal/serve", "internal/cluster", "internal/wal", "internal/persist", "internal/gen", "internal/query"}},
	// The prediction subsystem is a pure snapshot consumer between stream
	// and its consumers (query and alert both import it); it must know
	// nothing above itself.
	{pkg: "internal/insight", forbid: []string{"internal/alert", "internal/serve", "internal/node", "internal/wal", "internal/cluster", "internal/persist", "internal/query", "internal/gen"}},
	// The stream engine is below every consumer; nothing push- or
	// serve-side may leak into it.
	{pkg: "internal/stream", forbid: []string{"internal/alert", "internal/serve", "internal/node", "internal/wal", "internal/cluster", "internal/persist", "internal/query", "internal/gen"}},
	// query defines the wire types and executes against engine snapshots;
	// it sits between stream and serve and must not reach above itself.
	{pkg: "internal/query", forbid: []string{"internal/serve", "internal/node", "internal/cluster", "internal/wal", "internal/persist"}},
}

// TestImportLayering holds every package the rules name to its place in
// the layer DAG, reading each package's non-test imports from its source.
func TestImportLayering(t *testing.T) {
	for _, r := range layerRules {
		pkg, err := build.ImportDir(r.pkg, 0)
		if err != nil {
			t.Fatalf("%s: %v", r.pkg, err)
		}
		for _, imp := range pkg.Imports {
			dep, ok := strings.CutPrefix(imp, "repro/")
			if !ok {
				continue
			}
			switch {
			case r.only != nil && strings.HasPrefix(dep, "internal/") && !slices.Contains(r.only, dep):
				t.Errorf("layering violation: repro/%s imports %s (allowed: %v)", r.pkg, imp, r.only)
			case slices.Contains(r.forbid, dep):
				t.Errorf("layering violation: repro/%s imports %s", r.pkg, imp)
			}
		}
	}
}
