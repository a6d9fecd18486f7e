package cluster

import (
	"fmt"
	"io"

	"repro/internal/persist"
	"repro/internal/stream"
)

// MergeCheckpoints reads one checkpoint per node — any persisted version —
// and flattens them into one canonical checkpoint. Nodes hold disjoint
// cells by the partition invariant and close units in lockstep at the
// router's barriers, so the merge is lossless and the result is
// byte-comparable (via persist.WriteCheckpoint) to a single engine fed
// the whole stream.
//
// Every checkpoint must agree on the open unit, the closed-unit count and
// the schema shape; disagreement means the files were cut at different
// stream positions (or belong to different cubes) and must not be merged.
// The WAL watermark is not compared: each node stamps the record count of
// its own log, so partitions of unequal size never agree. The merged
// checkpoint belongs to no log and carries watermark 0.
func MergeCheckpoints(nodes []io.Reader) (*stream.Checkpoint, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("%w: no checkpoints", ErrConfig)
	}
	parts := make([]*stream.Checkpoint, len(nodes))
	for i, r := range nodes {
		cp, err := persist.ReadCheckpoint(r)
		if err != nil {
			return nil, fmt.Errorf("cluster: node checkpoint %d: %w", i, err)
		}
		cp.WALSeq = 0
		parts[i] = cp
	}
	cp, err := stream.MergeCheckpoints(parts)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	return cp, nil
}
