package query

// This file defines the typed /v1/info surface: one structured document
// describing a serving process — replacing the ad-hoc identity fields that
// were previously scraped out of /healthz and /metrics. A single node
// reports itself; a cluster coordinator reports itself plus a NodeStatus
// per ingest node, so one GET answers "what is this cluster and is it
// healthy".

// APIVersion is the query API generation this package implements: 2 since
// the typed request/response model (DESIGN.md §9).
const APIVersion = 2

// InfoResponse describes one serving process (an ingest node or a cluster
// coordinator). Field order and tags are frozen like every other wire
// shape in this package.
type InfoResponse struct {
	// NodeID is the operator-assigned identity (streamd -node-id); empty
	// when the process was not given one.
	NodeID string `json:"nodeId"`
	// Role is "node" for a streamd ingest process and "coordinator" for
	// the scatter-gather query tier.
	Role string `json:"role"`
	// Shards is the in-process partition count of the node's engine; for
	// a coordinator it is the cluster's node count.
	Shards int `json:"shards"`
	// WireVersion is the RGCWIRE1 frame/batch format version the ingest
	// edge speaks; APIVersion is the query API generation.
	WireVersion int `json:"wireVersion"`
	APIVersion  int `json:"apiVersion"`
	// WALSeq is the write-ahead-log watermark: the sequence number of the
	// last batch appended durably (0 when the WAL is off or empty).
	WALSeq int64 `json:"walSeq"`
	// SnapshotUnit is the open unit of the latest published snapshot and
	// UnitsDone its non-empty-unit count; SnapshotUnit is -1 before the
	// first unit boundary publishes.
	SnapshotUnit int64 `json:"snapshotUnit"`
	UnitsDone    int64 `json:"unitsDone"`
	// Nodes is the coordinator's per-node cluster status, in endpoint
	// order; nil for a plain node.
	Nodes []NodeStatus `json:"nodes,omitempty"`
}

// NodeStatus is a coordinator's view of one ingest node.
type NodeStatus struct {
	Endpoint  string `json:"endpoint"`
	Reachable bool   `json:"reachable"`
	// Error is the last probe failure, empty when Reachable.
	Error string `json:"error,omitempty"`
	// Info is the node's own /v1/info document, nil when unreachable.
	Info *InfoResponse `json:"info,omitempty"`
	// MirrorUnit is the unit of the node's snapshot the coordinator's
	// mirror holds (-1 before the first); against Info.SnapshotUnit it
	// is how far the mirror trails the node. LastFetchMs is what reading
	// and decoding that snapshot took.
	MirrorUnit  int64   `json:"mirrorUnit"`
	LastFetchMs float64 `json:"lastFetchMs"`
}
