package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/client"
)

// loadOp is one typed operation of the load mix.
type loadOp struct {
	name string
	run  func(ctx context.Context, c *client.Client) error
}

// loadOps is the query mix the load generator cycles through — the typed
// client calls an analyst dashboard would issue, all through the Go SDK
// (repro/client) so the SDK itself is exercised under mixed ingest+query
// load. /v1/frame answers under every -tilt chain, and the
// batch op drives POST /v1/query, so the mix works against any streamd.
var loadOps = []loadOp{
	{"health", func(ctx context.Context, c *client.Client) error {
		_, err := c.Health(ctx)
		return err
	}},
	{"exceptions", func(ctx context.Context, c *client.Client) error {
		_, err := c.Exceptions(ctx, client.ExceptionsRequest{K: 8})
		return err
	}},
	{"summary", func(ctx context.Context, c *client.Client) error {
		_, err := c.Summary(ctx)
		return err
	}},
	{"alerts", func(ctx context.Context, c *client.Client) error {
		_, err := c.Alerts(ctx)
		return err
	}},
	{"frame", func(ctx context.Context, c *client.Client) error {
		_, err := c.Frame(ctx, client.FrameRequest{CellRef: client.OCell(0, 0)})
		return err
	}},
	{"forecast", func(ctx context.Context, c *client.Client) error {
		_, err := c.Forecast(ctx, client.ForecastRequest{CellRef: client.OCell(0, 0), Horizon: 60})
		return err
	}},
	{"changes", func(ctx context.Context, c *client.Client) error {
		// An empty ranking under the default one-level chain; still
		// exercises the scan path.
		_, err := c.Changes(ctx, client.ChangesRequest{K: 5})
		return err
	}},
	{"batch", func(ctx context.Context, c *client.Client) error {
		reply, err := c.Batch(ctx,
			client.SummaryRequest{},
			client.ExceptionsRequest{K: 4},
			client.AlertsRequest{},
		)
		if err != nil {
			return err
		}
		for _, res := range reply.Results {
			if res.Err != nil {
				return res.Err
			}
		}
		return nil
	}},
}

// startLoad spawns `workers` goroutines issuing typed SDK calls against
// the target base URL, one every `interval` per worker, cycling through
// loadOps. The returned stop function tears the workers down and prints
// a latency report to stderr. Errors (including ErrUnavailable while the
// server has no snapshot yet, after the client's single retry) are
// counted, not fatal: the load generator runs concurrently with the
// pipeline warming up.
func startLoad(baseURL string, interval time.Duration, workers int) func() {
	if workers < 1 {
		workers = 1
	}
	c, err := client.New(
		client.WithEndpoints(strings.Split(baseURL, ",")...),
		client.WithTimeout(5*time.Second),
		client.WithRetries(1),
		client.WithRetryBackoff(50*time.Millisecond))
	if err != nil {
		fmt.Fprintf(os.Stderr, "datagen: load: %v\n", err)
		return func() {}
	}
	stop := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	results := make([][]time.Duration, workers)
	errs := make([]int64, workers)
	for wid := 0; wid < workers; wid++ {
		wg.Add(1)
		go func(wid int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				op := loadOps[(wid+i)%len(loadOps)]
				t0 := time.Now()
				if err := op.run(ctx, c); err != nil {
					errs[wid]++
				} else {
					results[wid] = append(results[wid], time.Since(t0))
				}
				if interval > 0 {
					select {
					case <-stop:
						return
					case <-time.After(interval):
					}
				}
			}
		}(wid)
	}
	return func() {
		close(stop)
		// Let in-flight calls finish (they have their own timeout) so the
		// teardown doesn't count them as errors; cancel only releases the
		// context afterwards.
		wg.Wait()
		cancel()
		var all []time.Duration
		var errors int64
		for wid := range results {
			all = append(all, results[wid]...)
			errors += errs[wid]
		}
		if len(all) == 0 {
			fmt.Fprintf(os.Stderr, "datagen: load: no successful queries (%d errors)\n", errors)
			return
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		fmt.Fprintf(os.Stderr,
			"datagen: load: %d queries, %d errors, latency p50=%s p95=%s p99=%s max=%s\n",
			len(all), errors,
			percentile(all, 0.50), percentile(all, 0.95), percentile(all, 0.99), all[len(all)-1])
	}
}

// percentile returns the nearest-rank percentile of a sorted sample: the
// smallest element with at least ⌈p·n⌉ of the sample at or below it,
// clamped to the sample bounds. The previous all[int(p·(n-1))] indexing
// under-picked the tail at small n — p99 of 10 samples landed on the 9th
// value instead of the maximum, collapsing p99 into p90.
func percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx]
}
