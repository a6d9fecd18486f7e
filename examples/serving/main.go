// Serving: run the sharded online analyzer and the HTTP query API in one
// process, then play analyst against it through the Go client SDK.
//
//	go run ./examples/serving
//
// A 4-shard engine ingests a synthetic power-grid-style stream while the
// query server answers from per-unit snapshots — the same lock-free path
// `streamd -listen` uses. The example queries its own server over
// loopback mid-ingest with the typed client (repro/client) and prints
// what an analyst dashboard would show, ending with one POST /v1/query
// batch that fetches a whole dashboard refresh in a single
// unit-consistent round trip.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"

	regcube "repro"
	"repro/client"
)

func main() {
	// Two dimensions (region, appliance-class), fanout 3, two levels:
	// 9×9 m-cells rolling up to a 3×3 o-layer — 9 shard partitions.
	hr, err := regcube.NewFanoutHierarchy("region", 3, 2)
	if err != nil {
		log.Fatal(err)
	}
	ha, err := regcube.NewFanoutHierarchy("appliance", 3, 2)
	if err != nil {
		log.Fatal(err)
	}
	schema, err := regcube.NewSchema(
		regcube.Dimension{Name: "region", Hierarchy: hr, MLevel: 2, OLevel: 1},
		regcube.Dimension{Name: "appliance", Hierarchy: ha, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		log.Fatal(err)
	}

	eng, err := regcube.NewStreamEngine(regcube.StreamConfig{
		Schema:       schema,
		TicksPerUnit: 15, // a quarter of an hour of minute readings
		Threshold:    regcube.GlobalThreshold(0.4),
		// Tilted history: each unit is a "quarter"; 2 quarters make a
		// "half" and 2 halves an "hour", so trends reach back at three
		// granularities while per-cell state stays at 10 slots.
		TiltLevels: []regcube.FrameLevel{
			{Name: "quarter", Multiple: 1, Slots: 4},
			{Name: "half", Multiple: 2, Slots: 4},
			{Name: "hour", Multiple: 2, Slots: 2},
		},
		// The serving layer reads immutable per-unit snapshots.
		PublishSnapshots: true,
		Shards:           4,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer eng.Close()

	// The query API over the engine, on a loopback listener, and the
	// typed SDK client over that.
	ts := httptest.NewServer(regcube.NewQueryServer(eng, schema))
	defer ts.Close()
	fmt.Printf("query API listening on %s\n", ts.URL)
	c, err := client.New(client.WithEndpoints(ts.URL))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()

	// Stream four units of readings: usage in region 2 trends up steeply,
	// everything else stays flat.
	for tick := int64(0); tick < 61; tick++ {
		for r := int32(0); r < 9; r++ {
			for a := int32(0); a < 9; a++ {
				usage := 5.0
				if r >= 6 { // children of o-level region 2
					usage += float64(tick) * float64(a+1) * 0.1
				}
				if _, err := eng.Ingest([]int32{r, a}, tick, usage); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	// The dashboard's poll loop, condensed to typed calls.
	health, err := c.Health(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving unit %d (%d units done)\n", health.Unit, health.UnitsDone)

	ex, err := c.Exceptions(ctx, client.ExceptionsRequest{K: 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d exception cells; steepest 3:\n", ex.Count)
	for _, cell := range ex.Cells {
		fmt.Printf("  %-34s slope %+0.2f\n", cell.Name, cell.ISB.Slope)
	}

	// Open the hot o-cell's supporters and pull its 4-unit trend.
	hot := client.OCell(2, 0)
	sup, err := c.Supporters(ctx, client.SupportersRequest{CellRef: hot})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("o-cell (region 2, appliance 0) has %d exception supporters\n", sup.Count)

	trend, err := c.Trend(ctx, client.TrendRequest{CellRef: hot, K: 4})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-unit trend of (region 2, appliance 0): slope %+0.3f per tick\n", trend.Cell.ISB.Slope)

	// The same cell at a coarser tilt granularity: the last "hour" (4
	// units) is answered from one promoted slot, not four.
	hour, err := c.Trend(ctx, client.TrendRequest{CellRef: hot, K: 1, Level: 2})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("1-%s trend of (region 2, appliance 0): slope %+0.3f per tick\n", hour.Level, hour.Cell.ISB.Slope)

	// And the frame itself: per-level slot occupancy of the tilted
	// register (Figure 4's "now" edge on the right).
	frame, err := c.Frame(ctx, client.FrameRequest{CellRef: hot})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tilted frame of (region 2, appliance 0): %d slots in use\n", frame.SlotsInUse)
	for _, lv := range frame.Levels {
		fmt.Printf("  %-8s %2d slots × %d ticks\n", lv.Name, len(lv.Slots), lv.UnitTicks)
	}

	// A whole dashboard refresh in one POST /v1/query round trip: every
	// result answers from the same snapshot, so the summary, alert list,
	// and ranked exceptions can never mix units.
	reply, err := c.Batch(ctx,
		client.SummaryRequest{},
		client.AlertsRequest{},
		client.ExceptionsRequest{K: 1},
	)
	if err != nil {
		log.Fatal(err)
	}
	for _, res := range reply.Results {
		if res.Err != nil {
			log.Fatal(res.Err)
		}
	}
	sum := reply.Results[0].Response.(*client.SummaryResponse)
	alerts := reply.Results[1].Response.(*client.AlertsResponse)
	top := reply.Results[2].Response.(*client.CellsResponse)
	fmt.Printf("batch @ unit %d: %d o-cells, %d alerts, steepest exception %s\n",
		reply.Unit, sum.OCells, len(alerts.Alerts), top.Cells[0].Name)
}
