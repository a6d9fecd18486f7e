// Package cluster implements the multi-node scatter-gather tier
// (DESIGN.md §12): a Router that hash-partitions a record stream across N
// ingest nodes over the RGCWIRE1 TCP protocol with unit-boundary barrier
// broadcasts, a Gatherer that merges the nodes' published snapshots into
// one cluster-wide snapshot behind the serve.Source interface, and a
// checkpoint merger that flattens per-node checkpoints back into a
// single-engine file.
//
// The partition function is stream.Partitioner — byte-for-byte the
// in-process engine's shard function — so an N-node cluster holds exactly
// the state an N-shard engine would, and its merged checkpoints and query
// bodies are bitwise-identical to one engine fed the same stream.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"repro/internal/cube"
	"repro/internal/stream"
	"repro/internal/wire"
)

// ErrConfig marks invalid router/gatherer configuration.
var ErrConfig = errors.New("cluster: invalid configuration")

// RouterConfig configures a Router.
type RouterConfig struct {
	// Schema is the cube schema records are partitioned under; it must
	// match the nodes' -spec.
	Schema *cube.Schema
	// Nodes are the ingest endpoints (streamd -ingest-listen addresses),
	// one per node, in partition order. The node count is the partition
	// count: reordering or resizing the list re-partitions the cluster.
	Nodes []string
	// TicksPerUnit is the unit width shared with every node (-unit). The
	// router broadcasts an advance barrier at each unit boundary so all
	// nodes close units in lockstep.
	TicksPerUnit int
	// BatchRecords is the per-node auto-flush threshold
	// (wire.DefaultBatchRecords when zero).
	BatchRecords int
	// Dial opens a connection to one node; nil means plain TCP. Tests
	// and benchmarks inject sinks here.
	Dial func(ctx context.Context, addr string) (io.WriteCloser, error)
	// Backoff is the base reconnect delay (default 100ms, doubling per
	// attempt).
	Backoff time.Duration
	// Logf, when set, receives reconnect diagnostics.
	Logf func(format string, args ...any)
}

// RouterStats counts a router's work.
type RouterStats struct {
	// Records routed, per destination node.
	Records []int64
	// Advances is the number of barrier broadcasts.
	Advances int64
	// Reconnects counts re-dials after a write failure.
	Reconnects int64
}

// Router partitions a record stream across the configured nodes. Records
// go to the node chosen by the shared partition function; at each unit
// boundary every node's pending batch is flushed and an advance control
// frame is broadcast, so the boundary is a cluster-wide barrier: no node
// sees a record of unit u+1 before every node was told to close unit u.
// Not safe for concurrent use — one goroutine owns the stream.
//
// Delivery is at-most-once per connection: records accepted by RouteBatch
// but still buffered when a connection fails are lost with it (the WAL on
// each node, not the router, is the durability story). A reconnect opens
// a fresh stream header on the same node. Within a unit a node's records
// keep their stream order; records of different nodes are not ordered
// against each other between barriers.
type Router struct {
	cfg RouterConfig
	// cells routes each record through the shared partition function, once
	// per cell.
	cells *stream.CellRouter
	dims  int
	nodes []*nodeConn
	// unit is the current open unit; openEnd its first-excluded tick.
	unit    int64
	openEnd int64
	// sel and members are routeSegment's scratch: each node's record
	// positions and one record's member tuple.
	sel     [][]int32
	members []int32
	stats   RouterStats
}

// NewRouter validates the configuration and builds a router. Connections
// are dialed lazily, on first use and after failures.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Schema == nil {
		return nil, fmt.Errorf("%w: nil schema", ErrConfig)
	}
	if len(cfg.Nodes) == 0 {
		return nil, fmt.Errorf("%w: no nodes", ErrConfig)
	}
	if cfg.TicksPerUnit < 1 {
		return nil, fmt.Errorf("%w: ticks per unit %d", ErrConfig, cfg.TicksPerUnit)
	}
	part, err := stream.NewPartitioner(cfg.Schema, len(cfg.Nodes))
	if err != nil {
		return nil, err
	}
	if cfg.BatchRecords <= 0 {
		cfg.BatchRecords = wire.DefaultBatchRecords
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 100 * time.Millisecond
	}
	if cfg.Dial == nil {
		cfg.Dial = func(ctx context.Context, addr string) (io.WriteCloser, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	r := &Router{
		cfg:     cfg,
		cells:   stream.NewCellRouter(part),
		dims:    len(cfg.Schema.Dims),
		unit:    0,
		openEnd: int64(cfg.TicksPerUnit),
		sel:     make([][]int32, len(cfg.Nodes)),
		members: make([]int32, len(cfg.Schema.Dims)),
		stats:   RouterStats{Records: make([]int64, len(cfg.Nodes))},
	}
	for i, addr := range cfg.Nodes {
		r.nodes = append(r.nodes, &nodeConn{router: r, addr: addr, id: i})
	}
	return r, nil
}

// Stats returns a copy of the router's counters.
func (r *Router) Stats() RouterStats {
	s := r.stats
	s.Records = append([]int64(nil), r.stats.Records...)
	return s
}

// RouteBatch partitions one columnar batch. Boundary crossings inside the
// batch split it into segments, with a barrier broadcast between them —
// exactly the stream.Engine.IngestBatch segmentation, across processes.
func (r *Router) RouteBatch(ctx context.Context, b *wire.Batch) error {
	if got := len(b.Cols); got != r.dims {
		return fmt.Errorf("%w: batch has %d dimensions, schema has %d", stream.ErrRecord, got, r.dims)
	}
	n := b.Len()
	lo := 0
	for i := 0; i < n; i++ {
		tick := b.Ticks[i]
		if tick < r.unit*int64(r.cfg.TicksPerUnit) {
			return fmt.Errorf("%w: tick %d before open unit %d", stream.ErrRecord, tick, r.unit)
		}
		if tick < r.openEnd {
			continue
		}
		// Boundary: ship the open unit's segment, then barrier.
		if err := r.routeSegment(ctx, b, lo, i); err != nil {
			return err
		}
		lo = i
		if err := r.advance(ctx, tick/int64(r.cfg.TicksPerUnit)); err != nil {
			return err
		}
	}
	return r.routeSegment(ctx, b, lo, n)
}

// Advance applies an upstream barrier: flush and broadcast an advance
// to target, exactly as a boundary-crossing record would. Targets at or
// below the open unit are no-ops (barriers are idempotent).
func (r *Router) Advance(ctx context.Context, target int64) error {
	if target <= r.unit {
		return nil
	}
	return r.advance(ctx, target)
}

// routeSegment partitions records [lo,hi) of b — all inside the open
// unit — to their nodes: one position list per node (CellRouter.Select,
// whose cell dictionary runs Route once per cell), then one do per node
// with records.
// sent is the cursor a retry resumes from: do re-runs the closure on a
// fresh connection, and it must carry on at the first record the failed
// writer did not accept, never re-append the ones it had.
func (r *Router) routeSegment(ctx context.Context, b *wire.Batch, lo, hi int) error {
	if lo >= hi {
		return nil
	}
	for sid := range r.sel {
		r.sel[sid] = r.sel[sid][:0]
	}
	if err := r.cells.Select(b, lo, hi, int32(lo), r.sel); err != nil {
		return err
	}
	for sid, sel := range r.sel {
		if len(sel) == 0 {
			continue
		}
		sent := 0
		err := r.nodes[sid].do(ctx, func(w *wire.Writer) error {
			for ; sent < len(sel); sent++ {
				i := sel[sent]
				for d := range r.members {
					r.members[d] = b.Cols[d][i]
				}
				if err := w.Append(b.Ticks[i], r.members, b.Values[i]); err != nil {
					return err
				}
			}
			return nil
		})
		r.stats.Records[sid] += int64(sent)
		if err != nil {
			return err
		}
	}
	return nil
}

// advance is the cluster barrier: every node's pending records flush,
// then every node receives an advance-to-target control frame, and only
// then does the router accept the next unit's records.
func (r *Router) advance(ctx context.Context, target int64) error {
	for _, nc := range r.nodes {
		if err := nc.do(ctx, func(w *wire.Writer) error {
			return w.WriteControl(wire.Control{Op: wire.ControlAdvance, Unit: target})
		}); err != nil {
			return err
		}
	}
	r.unit = target
	r.openEnd = (target + 1) * int64(r.cfg.TicksPerUnit)
	r.cells.Advance()
	r.stats.Advances++
	return nil
}

// Flush ships every node's pending batch without advancing.
func (r *Router) Flush(ctx context.Context) error {
	for _, nc := range r.nodes {
		if nc.w == nil {
			continue // never dialed or down: nothing buffered
		}
		if err := nc.do(ctx, func(w *wire.Writer) error { return w.Flush() }); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes every connection. The router is unusable
// afterwards.
func (r *Router) Close() error {
	var first error
	for _, nc := range r.nodes {
		if nc.w != nil {
			if err := nc.w.Flush(); err != nil && first == nil {
				first = err
			}
		}
		if err := nc.close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// nodeConn is one node's lazily-dialed connection and stream writer.
type nodeConn struct {
	router *Router
	addr   string
	id     int
	c      io.WriteCloser
	w      *wire.Writer
}

// dialAttempts bounds connect/reconnect attempts per operation, with
// doubling backoff between them.
const dialAttempts = 8

// do runs op against the node's writer, dialing on demand and
// re-dialing with doubling backoff after a failure, up to dialAttempts
// tries. Records buffered in a failed writer are lost with the
// connection (at-most-once per connection); op itself is retried on the
// fresh stream.
func (nc *nodeConn) do(ctx context.Context, op func(*wire.Writer) error) error {
	cfg := &nc.router.cfg
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if attempt > 0 {
			if cfg.Logf != nil {
				cfg.Logf("node %d (%s): retrying after %v", nc.id, nc.addr, lastErr)
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("cluster: node %d (%s): %w (last error: %v)", nc.id, nc.addr, ctx.Err(), lastErr)
			case <-time.After(backoffDelay(cfg.Backoff, attempt-1)):
			}
		}
		if nc.w == nil {
			c, err := cfg.Dial(ctx, nc.addr)
			if err != nil {
				lastErr = err
				continue
			}
			w, err := wire.NewWriter(c, nc.router.dims)
			if err != nil {
				c.Close()
				lastErr = err
				continue
			}
			w.BatchRecords = cfg.BatchRecords
			nc.c, nc.w = c, w
			if attempt > 0 {
				nc.router.stats.Reconnects++
			}
		}
		if err := op(nc.w); err != nil {
			lastErr = err
			nc.close()
			continue
		}
		return nil
	}
	return fmt.Errorf("cluster: node %d (%s): giving up after %d attempts: %w",
		nc.id, nc.addr, dialAttempts, lastErr)
}

// close drops the connection; the next do dials afresh.
func (nc *nodeConn) close() error {
	var err error
	if nc.c != nil {
		err = nc.c.Close()
	}
	nc.c, nc.w = nil, nil
	return err
}

// maxBackoffDelay caps the doubling reconnect backoff.
const maxBackoffDelay = 5 * time.Second

// backoffDelay is base·2^attempt clamped to maxBackoffDelay.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 0; i < attempt && d < maxBackoffDelay; i++ {
		d *= 2
	}
	if d > maxBackoffDelay || d <= 0 {
		d = maxBackoffDelay
	}
	return d
}
