package node

import (
	"fmt"
	"io"
	"sync/atomic"
)

// checkpointDue is the checkpoint policy, asked after every fully ingested
// batch and every router barrier. closed says a unit has closed since the
// last cut: nothing is cut before one has. barrier says a router barrier
// has just closed one. logSince is the WAL bytes appended since the last
// cut, or -1 when no log backs the file; lastSize is the last cut's size,
// 0 before the first.
//
// Without a log the file is the only durable state, so every closed unit
// is cut at once; so is a unit a router barrier closes, since barriers are
// not logged. With a log the cut waits until the log written since the
// last one weighs at least as much as that file. So a node cuts at most one
// checkpoint per closed unit, writes at most one file more than it logs,
// and a crash replays less than the larger of one file and one unit's log,
// plus one batch.
func checkpointDue(logSince, lastSize int64, closed, barrier bool) bool {
	return closed && (barrier || logSince < 0 || logSince >= lastSize)
}

// checkpointStats are the checkpoint file's counters on /metrics, advanced
// by the ingest loop and read by scrapes.
type checkpointStats struct {
	writes   atomic.Int64
	bytes    atomic.Int64 // the last file's size
	nanos    atomic.Int64
	walSince atomic.Int64 // WAL bytes appended since the last cut: the replay debt
}

func (c *checkpointStats) writeMetrics(w io.Writer) {
	fmt.Fprintf(w, "regcube_checkpoint_writes_total %d\n", c.writes.Load())
	fmt.Fprintf(w, "regcube_checkpoint_bytes %d\n", c.bytes.Load())
	fmt.Fprintf(w, "regcube_wal_bytes_since_checkpoint %d\n", c.walSince.Load())
	fmt.Fprintf(w, "regcube_checkpoint_nanos_total %d\n", c.nanos.Load())
}
