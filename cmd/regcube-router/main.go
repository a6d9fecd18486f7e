// Command regcube-router is the cluster's scatter tier and, optionally,
// its query coordinator. It reads the record stream on stdin — the same
// auto-negotiated text/binary formats streamd accepts — and hash-routes
// whole columnar batches to N streamd ingest nodes over TCP (RGCWIRE1
// frames), using byte-for-byte the partition function of the in-process
// sharded engine. At every unit boundary it flushes all per-node buffers
// and broadcasts an advance barrier so the nodes close units in
// lockstep.
//
// With -listen and -node-api it also runs the scatter-gather query
// coordinator: the full HTTP/JSON query API served from the nodes'
// merged snapshots, plus a cluster-wide /v1/info. The coordinator keeps
// serving after stdin ends, until a signal.
//
// Usage:
//
//	datagen -spec D2L2C4T10K -stream |
//	    regcube-router -spec D2L2C4 -unit 15 \
//	        -nodes 127.0.0.1:9101,127.0.0.1:9102,127.0.0.1:9103,127.0.0.1:9104 \
//	        -node-api http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083,http://127.0.0.1:8084 \
//	        -listen :8080
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/serve"
	"repro/internal/wire"
)

type options struct {
	spec         string
	unit         int
	nodes        string
	nodeAPI      string
	listen       string
	nodeID       string
	fcastThresh  float64
	fcastHorizon int64
	changeScore  float64
}

func main() {
	var opt options
	flag.StringVar(&opt.spec, "spec", "D2L2C4", "schema spec D<dims>L<levels>C<fanout> (no T component); must match the nodes' -spec")
	flag.IntVar(&opt.unit, "unit", 15, "ticks per unit; must match the nodes' -unit")
	flag.StringVar(&opt.nodes, "nodes", "", "comma-separated node ingest addresses (streamd -ingest-listen), in partition order")
	flag.StringVar(&opt.nodeAPI, "node-api", "", "comma-separated node query base URLs (streamd -listen), in the same order; "+
		"enables the coordinator when -listen is set")
	flag.StringVar(&opt.listen, "listen", "", "serve the coordinator HTTP/JSON query API on this address; requires -node-api")
	flag.StringVar(&opt.nodeID, "node-id", "", "coordinator identity reported on /v1/info")
	flag.Float64Var(&opt.fcastThresh, "forecast-threshold", 0, "default ?threshold= of the coordinator's /v1/forecast; "+
		"0 leaves the shim with no default (should match the nodes' flag)")
	flag.Int64Var(&opt.fcastHorizon, "forecast-horizon", 60, "default ?horizon= of the coordinator's /v1/forecast")
	flag.Float64Var(&opt.changeScore, "change-score", 0.25, "default minimum ?score= of the coordinator's /v1/changes, in [0,1]")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opt, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "regcube-router: %v\n", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, opt options, in io.Reader, out io.Writer) error {
	spec, err := gen.ParseSpec(opt.spec + "T1") // reuse the D/L/C parser
	if err != nil {
		return fmt.Errorf("bad -spec: %w", err)
	}
	schema, err := spec.StreamSchema()
	if err != nil {
		return err
	}
	if opt.nodes == "" {
		return fmt.Errorf("-nodes is required")
	}
	nodes := strings.Split(opt.nodes, ",")
	router, err := cluster.NewRouter(cluster.RouterConfig{
		Schema:       schema,
		Nodes:        nodes,
		TicksPerUnit: opt.unit,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "regcube-router: "+format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	defer router.Close()

	// Coordinator: the scatter-gather query tier over the nodes' APIs.
	var srv *http.Server
	var gatherer *cluster.Gatherer
	serveErr := make(chan error, 1)
	if opt.listen != "" {
		if opt.nodeAPI == "" {
			return fmt.Errorf("-listen requires -node-api")
		}
		endpoints := strings.Split(opt.nodeAPI, ",")
		if len(endpoints) != len(nodes) {
			return fmt.Errorf("-node-api lists %d endpoints for %d nodes", len(endpoints), len(nodes))
		}
		gatherer, err = cluster.NewGatherer(cluster.GatherConfig{
			Schema:    schema,
			Endpoints: endpoints,
			NodeID:    opt.nodeID,
		})
		if err != nil {
			return err
		}
		// Deferred for the error returns; the orderly path below stops the
		// mirror before the HTTP server (Close is idempotent).
		defer gatherer.Close()
		coord := serve.New(gatherer, schema)
		coord.SetInfo(gatherer.Info)
		coord.SetMetrics(gatherer.WriteMetrics)
		fdef := serve.ForecastDefaults{Horizon: opt.fcastHorizon, ChangeScore: opt.changeScore}
		if opt.fcastThresh != 0 {
			th := opt.fcastThresh
			fdef.Threshold = &th
		}
		coord.SetForecastDefaults(fdef)
		// Bind before routing, so a taken address fails the run at once and
		// the banner names the port actually held (-listen :0 included).
		ln, err := net.Listen("tcp", opt.listen)
		if err != nil {
			return fmt.Errorf("-listen: %w", err)
		}
		srv = serve.NewHTTPServer(coord)
		go func() {
			if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
				serveErr <- err
			}
		}()
		fmt.Fprintf(out, "# coordinator listening on %s (%d nodes)\n", ln.Addr(), len(nodes))
	} else if opt.nodeAPI != "" {
		return fmt.Errorf("-node-api requires -listen")
	}

	routeErr := route(ctx, router, spec.Dims, in)
	if err := router.Flush(ctx); err != nil && routeErr == nil {
		routeErr = err
	}
	st := router.Stats()
	var total int64
	for _, n := range st.Records {
		total += n
	}
	fmt.Fprintf(out, "# routed %d records to %d nodes (%v), %d advances, %d reconnects\n",
		total, len(nodes), st.Records, st.Advances, st.Reconnects)
	if routeErr != nil {
		return routeErr
	}

	// The stream is done; the coordinator keeps answering queries until
	// the signal.
	if srv != nil {
		select {
		case err := <-serveErr:
			return err
		case <-ctx.Done():
		}
		// Stop the mirror first: its parked requests at the nodes end now,
		// and no round starts under a server that is going away.
		gatherer.Close()
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			return err
		}
	}
	select {
	case err := <-serveErr:
		return err
	default:
	}
	return nil
}

// route decodes stdin — text or binary, as gen.StreamReader negotiates —
// and feeds the router batch by batch until EOF, a decode error, or the
// signal. Incoming advance barriers (an upstream router or a replayed
// capture) are forwarded.
func route(ctx context.Context, router *cluster.Router, dims int, in io.Reader) error {
	sr := gen.NewStreamReader(bufio.NewReaderSize(in, 1<<16), dims)
	var b wire.Batch
	for ctx.Err() == nil {
		_, ctrl, isCtrl, err := sr.Next(&b)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s stream: %w", sr.Format(), err)
		}
		if isCtrl {
			err = router.Advance(ctx, ctrl.Unit)
		} else {
			err = router.RouteBatch(ctx, &b)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
