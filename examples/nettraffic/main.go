// Nettraffic monitors network flow volumes with the popular-path
// algorithm: an ISP-style cube over (protocol × region) with per-cuboid
// exception thresholds and an explicit popular drilling path, batch-style
// (the analyst re-cubes the last 5-minute window on demand).
//
//	go run ./examples/nettraffic
//
// A volumetric anomaly (one /16 flooding on UDP) is injected; the
// popular-path run finds it while computing a fraction of the cells
// m/o-cubing would.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"sort"

	regcube "repro"
)

func main() {
	// Protocol hierarchy: class → protocol.
	proto := regcube.NewNamedHierarchy("proto")
	if err := proto.AddLevel([]string{"transport", "web"}, nil); err != nil {
		log.Fatal(err)
	}
	if err := proto.AddLevel([]string{"tcp", "udp", "http", "https"}, []int32{0, 0, 1, 1}); err != nil {
		log.Fatal(err)
	}
	// Region hierarchy: pop → /8 prefix → /16 prefix.
	region := regcube.NewNamedHierarchy("region")
	if err := region.AddLevel([]string{"us-east", "eu-west"}, nil); err != nil {
		log.Fatal(err)
	}
	slash8 := []string{"10/8", "11/8", "20/8", "21/8"}
	if err := region.AddLevel(slash8, []int32{0, 0, 1, 1}); err != nil {
		log.Fatal(err)
	}
	var slash16 []string
	var parents []int32
	for p := range slash8 {
		for i := 0; i < 4; i++ {
			slash16 = append(slash16, fmt.Sprintf("%s.%d/16", slash8[p][:2], i))
			parents = append(parents, int32(p))
		}
	}
	if err := region.AddLevel(slash16, parents); err != nil {
		log.Fatal(err)
	}

	schema, err := regcube.NewSchema(
		regcube.Dimension{Name: "proto", Hierarchy: proto, MLevel: 2, OLevel: 1},
		regcube.Dimension{Name: "region", Hierarchy: region, MLevel: 3, OLevel: 1},
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schema: %s — %d cuboids between the critical layers\n",
		schema.Describe(), schema.CuboidCount())

	// Build the last window's m-layer: per (protocol, /16) flow-rate
	// series over 30 ticks (10-second buckets of a 5-minute window).
	rng := rand.New(rand.NewSource(99))
	var inputs []regcube.Input
	const ticks = 30
	for p := int32(0); p < 4; p++ {
		for r16 := int32(0); r16 < 16; r16++ {
			vals := make([]float64, ticks)
			for i := range vals {
				vals[i] = 100 + 10*float64(p) + rng.NormFloat64()*4
				if p == 1 && r16 == 6 { // udp flood ramping in 11.2/16
					vals[i] += 15 * float64(i)
				}
			}
			s, err := regcube.NewSeries(0, vals)
			if err != nil {
				log.Fatal(err)
			}
			isb, err := regcube.Fit(s)
			if err != nil {
				log.Fatal(err)
			}
			inputs = append(inputs, regcube.Input{Members: []int32{p, r16}, Measure: isb})
		}
	}

	// Per-cuboid thresholds: the coarse o-layer tolerates more aggregate
	// drift than fine cuboids (Framework 4.1 allows one per cuboid).
	lattice := regcube.NewLattice(schema)
	overrides := make(map[regcube.Cuboid]float64)
	for _, c := range lattice.Cuboids() {
		depth := c.Level(0) + c.Level(1)
		overrides[c] = 2.0 + 1.5*float64(5-depth) // deeper → tighter
	}
	thr := regcube.PerCuboidThreshold{Default: 4, Overrides: overrides}

	// The ops team's habitual drill order: protocol first, then region.
	path, err := lattice.PathFromSteps([]int{0, 1, 1})
	if err != nil {
		log.Fatal(err)
	}

	pp, err := regcube.PopularPath(schema, inputs, thr, path)
	if err != nil {
		log.Fatal(err)
	}
	mo, err := regcube.MOCubing(schema, inputs, thr)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\npopular-path computed %d cells; m/o-cubing computed %d (%.0f%% saved)\n",
		pp.Stats.CellsComputed, mo.Stats.CellsComputed,
		100*(1-float64(pp.Stats.CellsComputed)/float64(mo.Stats.CellsComputed)))

	cells := slices.Clone(pp.ExceptionCells())
	sort.Slice(cells, func(i, j int) bool {
		return abs(cells[i].ISB.Slope) > abs(cells[j].ISB.Slope)
	})
	fmt.Printf("\nexception drill-down (%d cells):\n", len(cells))
	for _, c := range cells {
		fmt.Printf("  %-28s %-22s slope=%+8.2f flows/s per bucket\n",
			c.Key.Describe(schema), c.Key.Cuboid.Describe(schema), c.ISB.Slope)
	}
	fmt.Println("\nthe steepest m-layer cell should be (udp, 11.2/16) — the injected flood.")
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
