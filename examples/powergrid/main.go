// Powergrid reproduces the paper's Example 1: a power supply station
// collecting per-minute usage streams at (user-group × street-block)
// granularity, analyzed online with quarter-hour units.
//
//	go run ./examples/powergrid
//
// The m-layer is (user-group, street-block, quarter); the o-layer is
// (*, city, hour)-style — here (user-category, district). A demand surge is
// injected in one street block; the engine raises an o-layer alert and the
// drill-down names the exceptional blocks ("exception supporters"), while a
// tilt time frame keeps multi-granularity history for one feeder.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	regcube "repro"
)

func main() {
	// Location hierarchy: 2 districts, 6 street blocks.
	loc := regcube.NewNamedHierarchy("location")
	if err := loc.AddLevel([]string{"north-district", "south-district"}, nil); err != nil {
		log.Fatal(err)
	}
	blocks := []string{"elm-block", "oak-block", "pine-block", "main-block", "lake-block", "hill-block"}
	if err := loc.AddLevel(blocks, []int32{0, 0, 0, 1, 1, 1}); err != nil {
		log.Fatal(err)
	}
	// User hierarchy: 2 categories, 4 groups.
	user := regcube.NewNamedHierarchy("user")
	if err := user.AddLevel([]string{"residential", "industrial"}, nil); err != nil {
		log.Fatal(err)
	}
	if err := user.AddLevel([]string{"homes", "apartments", "plants", "offices"}, []int32{0, 0, 1, 1}); err != nil {
		log.Fatal(err)
	}

	schema, err := regcube.NewSchema(
		regcube.Dimension{Name: "user", Hierarchy: user, MLevel: 2, OLevel: 1},
		regcube.Dimension{Name: "location", Hierarchy: loc, MLevel: 2, OLevel: 1},
	)
	if err != nil {
		log.Fatal(err)
	}

	const minutesPerQuarter = 15
	eng, err := regcube.NewStreamEngine(regcube.StreamConfig{
		Schema:       schema,
		TicksPerUnit: minutesPerQuarter,
		Threshold:    regcube.GlobalThreshold(0.8), // kW per minute of trend
		Delta:        &regcube.DeltaDetector{MinSlopeChange: 1.5},
	})
	if err != nil {
		log.Fatal(err)
	}

	// A tilt frame tracks one feeder (homes × elm-block) across
	// quarter/hour granularities (scaled-down calendar frame).
	frame, err := regcube.NewFrame([]regcube.FrameLevel{
		{Name: "quarter", Multiple: minutesPerQuarter, Slots: 4},
		{Name: "hour", Multiple: 4, Slots: 24},
	}, 0)
	if err != nil {
		log.Fatal(err)
	}

	rng := rand.New(rand.NewSource(7))
	baseLoad := func(group, block int32) float64 { return 20 + 5*float64(group) + 3*float64(block) }

	// Stream 8 quarters (2 hours) of minute data; a surge hits pine-block
	// offices from minute 60 on (quarter 4+), ramping hard within each
	// quarter.
	const quarters = 8
	var alerts []regcube.Alert
	for minute := int64(0); minute < quarters*minutesPerQuarter; minute++ {
		for g := int32(0); g < 4; g++ {
			for blk := int32(0); blk < 6; blk++ {
				load := baseLoad(g, blk) + rng.NormFloat64()*0.5 +
					2*math.Sin(2*math.Pi*float64(minute)/60) // mild hourly cycle
				if minute >= 60 && blk == 2 && g == 3 {
					load += 3 * float64(minute%minutesPerQuarter) // surge: +3 kW per minute
				}
				closed, err := eng.Ingest([]int32{g, blk}, minute, load)
				if err != nil {
					log.Fatal(err)
				}
				for _, ur := range closed {
					alerts = append(alerts, ur.Alerts...)
				}
				if g == 0 && blk == 0 {
					if err := frame.Add(minute, load); err != nil {
						log.Fatal(err)
					}
				}
			}
		}
	}
	if ur, err := eng.Flush(); err != nil {
		log.Fatal(err)
	} else {
		alerts = append(alerts, ur.Alerts...)
	}

	fmt.Printf("processed %d quarters; %d alerts raised\n\n", eng.UnitsDone(), len(alerts))
	for _, al := range alerts {
		fmt.Printf("[quarter %d] %s at %s  slope=%+.2f kW/min\n",
			al.Unit, al.Kind, al.Cell.Describe(schema), al.ISB.Slope)
		for _, c := range al.Drill {
			fmt.Printf("    supporter: %-28s %s slope=%+.2f\n",
				c.Key.Describe(schema), c.Key.Cuboid.Describe(schema), c.ISB.Slope)
		}
	}

	// Multi-granularity trend queries from the tilt frame (Example 3):
	// the last hour at quarter precision vs. the last 2 hours at hour
	// precision — all from 4-number slots, no raw minutes retained.
	fmt.Printf("\ntilt frame for homes×elm-block: %d/%d slots in use\n",
		frame.SlotsInUse(), frame.SlotCapacity())
	if isb, err := frame.Query(0, 4); err == nil {
		fmt.Printf("  last hour  (4 quarters): slope %+.3f kW/min over %v\n", isb.Slope, isb.Interval())
	}
	if isb, err := frame.Query(1, 2); err == nil {
		fmt.Printf("  last 2 hrs (2 hours):    slope %+.3f kW/min over %v\n", isb.Slope, isb.Interval())
	}

	// The o-layer trend over the last 4 quarters for the surging district.
	oCell := regcube.CellKey{Cuboid: schema.OLayer()}
	oCell.Members[0] = 1 // industrial
	oCell.Members[1] = 0 // north-district (pine-block's parent)
	if isb, err := eng.TrendQuery(oCell, 4); err == nil {
		fmt.Printf("\nindustrial × north-district, last 4 quarters: slope %+.3f kW/min\n", isb.Slope)
	}
}
