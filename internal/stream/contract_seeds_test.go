package stream_test

import (
	"maps"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// FuzzStreamContract's seed corpus: known-answer programs, the programs
// of the worst drift a sweep found, and the named seed programs. Each
// named one reproduces the edge cases of a pairwise equality or
// unit-semantics test the harness replaced, and runs under that test's
// name (runSeed), so `go test -run` with the old name still runs it. A
// named program's header is offset 0, the noisy shape, and the flags and
// ticks per unit given; ingest(n, seed) draws n ticks at density 1 %, 10 %
// or 40 % (seed%3), leaping two units first when seed ≥ 128.

// Header flags: Delta, the starting chain (contractChains), the depth.
const (
	withDelta byte = 1
	tilted    byte = 1 << 1 // the three-level chain
	calendar  byte = 2 << 1
	logChain  byte = 3 << 1
	deep      byte = 1 << 3 // the 729×729 m-layer
)

func ingest(ticks, seed byte) contractOp { return contractOp{opIngest, ticks - 1, seed} }

func prog(flags byte, tpu int, ops ...contractOp) contractProgram {
	return contractProgram{tpu: byte(tpu - 2), flags: flags, ops: ops}
}

func advance(gap byte) contractOp    { return contractOp{opAdvance, gap - 1, 0} }
func kill(shards int) contractOp     { return contractOp{opKill, shardIndex(shards), 0} }
func refuse(kind, b byte) contractOp { return contractOp{opRefuse, kind, b} }

// reshard moves batch engine i (0: 2 shards, 1: 4, the follower's, 2: 7).
func reshard(i byte, shards int) contractOp {
	return contractOp{opReshard, i, shardIndex(shards)}
}

func shardIndex(n int) byte { return byte(slices.Index(contractShards[:], n)) }

// rechainTo re-chains to contractChains[i]; rechain, from the default or
// the three-level chain, to the other of the two.
func rechainTo(i byte) contractOp { return contractOp{opRechain, i, 0} }

var (
	flush      = contractOp{kind: opFlush}
	checkpoint = contractOp{kind: opCheckpoint}
	rechain    = rechainTo(0)
	codec      = contractOp{kind: opCodec}
)

// knownAnswerPrograms run a perfect line, a flat line and a noisy line
// through every operation at each offset.
// The noisy line then leaps to maxLeapUnit, where the ticks are largest.
func knownAnswerPrograms() []contractProgram {
	var out []contractProgram
	for off := range contractOffsets {
		for shape := range byte(3) {
			p := contractProgram{offset: byte(off), tpu: 3, flags: withDelta, shape: shape, ops: []contractOp{
				ingest(7, 1), codec, ingest(9, 130), checkpoint, ingest(5, 2), kill(3),
				advance(3), codec, ingest(4, 3), rechain, ingest(8, 4), flush,
			}}
			if shape == 0 {
				for range 7 {
					p.ops = append(p.ops, advance(66))
				}
				p.ops = append(p.ops, ingest(12, 5), rechain, ingest(12, 6), flush)
			}
			out = append(out, p)
		}
	}
	return out
}

// driftPrograms are the random programs whose slope and whose level
// errors were the worst a sweep found at offsets 0, 2³² and 2⁴⁰ (ROADMAP
// item 13's table).
var driftPrograms = []string{
	"068eaa039914e71d728021416064b5739e07bbbae99ededa8e5d1479e638a9f00d2851f41c2fbf980257bfcd8f285c325dd1a45c8a9d27d3d4953f368a8a138feb76e4c6ab427f64949f764dac4522d13aefb70162ccbaecbd98e6894b1e",
	"c941761273b4967427fa32b76c4099f4d60d29b24f23b5974e1977bdfe46cf131aa321a6ddd2fd91635e4f11ec2b4794803a9d8302054226b0ebd98ae262de215b82d758f6391064b124af389ea5bc6ea59ee6a0717de05d",
	"c420a7c0c71f97422975374058ee87d3e1104a3607de13893ccb24b649af94ea29e5e4623d930f9eb91d2baceb74e9b3f417fd2cec1fc6f0aa6eee1d7e1b39b9af5c3145321088257cf3f73e6d2c3b7224c6",
	"7681ba1b6e725b19035692066b9e254add7718fb65b2d577b2fbcc0cebcd19d46daf7d80a1e8787312fbf137b16043ac3362c1f9e968f294458e2c3abdeb7737cb960a5f364b6cd76a21cb472c72e0",
	"8f20921806018bffc28cebffa13ae1713d7eb3f9a93f5a3b112741b18afba06840bb9408103f5df807a519",
	"5f70b699e1b484a9275c7f6672e31706da53a26437447fb391d89b9b884a945a8f76970e7b0755d3b60b9af480b052c46f029050",
}

var contractSeeds = func() map[string]contractProgram {
	seeds := map[string]contractProgram{
		// Slope changes across an empty unit, every shard count.
		"TestShardedMatchesSingleEngine": prog(withDelta, 4, ingest(8, 2), ingest(4, 1), advance(2), ingest(8, 5), ingest(3, 4), flush),
		// A consumed tick and a non-finite value, alone and behind a good
		// record of their unit, per record at 1, 2, 4 and 7 shards and per
		// batch.
		"TestEveryShardCountMatchesEngine": prog(withDelta, 4, ingest(10, 2), refuse(1, 40), ingest(6, 5), refuse(3, 6), refuse(1, 200), ingest(4, 1), flush),
		// Batches straddling up to three boundaries, sparse batches and a
		// leap, on the sparse 729×729 m-layer under a tilted chain.
		"TestBatchCutsMatchSingleEngine": prog(withDelta|tilted|deep, 4, ingest(12, 2), ingest(12, 131), ingest(1, 0), ingest(12, 1), ingest(9, 130), flush),
		"TestIngestBatchMatchesIngest":   prog(withDelta, 4, ingest(5, 2), ingest(7, 5), ingest(12, 8), ingest(3, 11), flush),
		// Three nodes' snapshots merge to every unit, an empty one among
		// them; nodes' snapshots of different units never merge.
		"TestMergeSnapshotsMatchesSharded": prog(0, 4, ingest(12, 2), advance(1), ingest(12, 5), advance(3), codec, flush),
		// The follower over a promoting and evicting chain: o-cells that sit
		// units out or first appear late, an empty unit, a leap, and the
		// followed engine moved to 2 and 3 shards.
		"TestSuccessorDocumentsRebuildFrames": prog(tilted, 4, ingest(4, 1), codec, ingest(4, 2), codec, advance(1), codec, ingest(8, 130), codec,
			reshard(1, 2), ingest(12, 2), codec, reshard(1, 3), ingest(12, 5), codec, advance(5), codec, flush, codec),
		// A mid-unit state moved to 7, 1 and 4 shards, then continued.
		"TestShardedCheckpointRepartitions":    prog(0, 4, ingest(10, 2), reshard(2, 7), reshard(0, 1), reshard(1, 4), ingest(10, 5), flush),
		"TestOnlineEqualsBatch":                prog(0, 5, ingest(15, 2), flush),
		"TestShardedMatchesSingleUnitSequence": prog(0, 4, ingest(9, 2), ingest(8, 130), flush),
		"TestTiltedCheckpointRoundTrip":        prog(tilted, 4, ingest(12, 2), ingest(12, 2), ingest(12, 2), ingest(12, 2), checkpoint, ingest(12, 5), kill(1), ingest(12, 8), flush),
		"TestTiltedZeroPadsAbsentUnits":        prog(tilted, 4, ingest(8, 2), ingest(8, 0), advance(3), ingest(4, 2), flush),
		"TestCheckpointSerializationCanonical": prog(0, 4, ingest(12, 2), ingest(6, 5)),
		"TestEngineDeterministicAcrossRuns":    prog(0, 4, ingest(12, 2), flush),
		"TestSnapshotCodecRoundTrip":           prog(0, 4, ingest(12, 2), codec, flush, codec),
		"TestSnapshotCodecTilted":              prog(tilted, 4, ingest(12, 2), ingest(12, 5), codec),
		"TestMissingTicksCountAsZero":          prog(0, 5, ingest(5, 0), flush),
		"TestFlushPadsToBoundary":              prog(0, 5, ingest(2, 2), flush, ingest(1, 1), flush),
		"TestEmptyUnitsOnGap":                  prog(0, 5, ingest(2, 2), ingest(3, 129), flush),
		"TestUnitBoundaryClosesAndCubes":       {tpu: 3, shape: 1, ops: []contractOp{ingest(6, 2), flush}},
		"TestDeltaAlerts":                      prog(withDelta, 5, ingest(5, 2), flush, ingest(5, 1), flush, ingest(5, 2), flush),
		// A cell back from a quiet unit is compared with its zero line,
		// under either chain.
		"TestSlopeChangeAfterQuietUnit": prog(withDelta|tilted, 4, ingest(4, 2), advance(2), ingest(4, 2), rechain, advance(2), ingest(4, 2), flush),
		"TestTrendQueryGapDetection":    prog(0, 5, ingest(5, 2), advance(2), ingest(5, 2), flush),
		// A record before the first unit of a stream that starts at 2³².
		"TestNonZeroStartTick": {offset: 1, tpu: 3, ops: []contractOp{refuse(0, 3), ingest(5, 2), flush}},
		// A consumed tick sticks until Restore clears it.
		"TestShardedStickyErrorAndRecovery": prog(0, 4, ingest(2, 2), refuse(1, 9), ingest(2, 2), flush),
		// Flush twice: the second unit closes empty, every frame one zero
		// regression longer.
		"TestSnapshotEmptyUnit": prog(0, 4, ingest(4, 2), flush, flush),
		// Checkpoint documents at every step, mid-unit, after a quiet unit,
		// under the tilted chain: appended from reused buffers, read back.
		"TestCheckpointCodecRoundTrip": prog(tilted, 4, ingest(9, 2), advance(2), ingest(7, 5), rechain, ingest(6, 1)),
		// Quiet units and sparse o-cells under both chains and three shard
		// counts: every finest level holds the same units.
		"TestFinestLevelIndependentOfChain": prog(tilted, 4, ingest(8, 1), reshard(0, 4), ingest(8, 0), advance(2), rechain,
			ingest(8, 2), reshard(2, 1), advance(3), rechain, ingest(8, 1), flush),
		// Thirty units through the three-level chain: every level promotes,
		// and each holds its slots at most.
		"TestTiltedHistoryPromotesAndBounds": prog(tilted, 4, ingest(12, 1), ingest(12, 1), ingest(12, 1), ingest(12, 1), ingest(12, 1),
			ingest(12, 1), ingest(12, 1), ingest(12, 1), ingest(12, 1), ingest(12, 1), flush),
		// A default-chain state reseeds a tilted engine, which promotes on.
		"TestFlatCheckpointSeedsTiltedEngine": prog(0, 4, ingest(12, 2), ingest(12, 2), ingest(12, 1), ingest(12, 1), rechain, ingest(12, 2), flush),
		// Hundreds of units under the three-level chain: state stays at the
		// chain's capacity (TiltSlots).
		"TestTiltedStateBoundedOverLongRun": prog(tilted, 2, ingest(4, 2), advance(66), advance(66), advance(66), advance(66), ingest(4, 2), flush),
		// A sticky refusal's Restore clears what every engine published.
		"TestSnapshotClearedOnRestore": prog(0, 4, ingest(5, 2), refuse(1, 9), ingest(3, 2)),
		// Each engine publishes what it returns, a held snapshot never changes.
		"TestEngineSnapshotPublishedPerUnit": prog(0, 4, ingest(9, 2), ingest(4, 2), flush),
		// Past the default chain's 64 units.
		"TestHistoryBounded": prog(0, 2, ingest(4, 2), advance(66), ingest(4, 2), flush),
		// A tilted state reseeds a default-chain engine, which then grows.
		"TestTiltedCheckpointLoadsIntoFlatEngine": prog(tilted, 4, ingest(12, 2), ingest(12, 2), ingest(12, 2), ingest(4, 5), rechain, ingest(12, 2), ingest(12, 1), flush),
	}
	for _, n := range []int{1, 2, 3, 4, 7} {
		seeds["TestShardedSnapshotMatchesSingle/shards="+strconv.Itoa(n)] = prog(0, 4, reshard(0, n), ingest(12, 2), ingest(5, 5), codec)
	}
	for _, n := range []int{1, 4, 7} {
		seeds["TestShardedTiltedMatchesSingle/shards="+strconv.Itoa(n)] = prog(tilted, 4, reshard(0, n),
			ingest(12, 1), ingest(12, 1), ingest(12, 1), ingest(12, 1), ingest(12, 1), ingest(3, 5), codec)
		// A kill with no checkpoint: the whole multi-segment log replays.
		seeds["TestWALReplayShardCountWhatIf/shards"+strconv.Itoa(n)] = prog(0, 5, ingest(15, 2), ingest(15, 5), kill(n), flush)
	}
	// A state reseeds under another chain: o-cells sit units out or come
	// late, the coarse levels promote from the retained finest slots, and
	// the engine keeps running.
	for name, c := range map[string][2]byte{"calendar_to_log4x8": {calendar, 3}, "calendar_to_default": {calendar, 0},
		"default_to_calendar": {0, 2}, "log4x8_to_calendar": {logChain, 2}} {
		seeds["TestCheckpointReseedsAcrossChains/"+name] = prog(c[0], 4, ingest(8, 0), ingest(12, 2), ingest(8, 0), ingest(12, 2), ingest(14, 1),
			rechainTo(c[1]), ingest(12, 2), ingest(12, 1), flush)
	}
	for _, n := range []int{1, 3, 7} {
		seeds["TestShardedTiltedCheckpointRepartitions/shards="+strconv.Itoa(n)] = prog(tilted, 4,
			ingest(12, 1), ingest(12, 1), ingest(12, 1), ingest(12, 1), ingest(2, 2), reshard(1, n), ingest(12, 4), ingest(12, 4), flush)
	}
	// A checkpoint before any record, after the first, around the first
	// boundary (its last record, its crossing record, the one after),
	// mid-stream and at the end; then a kill replays the rest.
	for name, before := range map[string]byte{"cut0": 0, "cut1": 1, "cut216": 4, "cut217": 5, "cut218": 6, "cut254": 8, "cut508": 14, "cut509": 15} {
		var ops []contractOp
		if before > 0 {
			ops = append(ops, ingest(before, 2))
		}
		ops = append(ops, checkpoint)
		if before < 15 {
			ops = append(ops, ingest(15-before, 5))
		}
		seeds["TestCheckpointThenReplayExactlyOnce/"+name] = prog(0, 5, append(ops, kill(1), flush)...)
	}
	return seeds
}()

// runSeed runs the seed program of t's name, or one subtest per seed
// named under it; a name with neither fails.
func runSeed(t *testing.T) {
	if p, ok := contractSeeds[t.Name()]; ok {
		runContract(t, p)
		return
	}
	ran := false
	for _, name := range slices.Sorted(maps.Keys(contractSeeds)) {
		if sub, ok := strings.CutPrefix(name, t.Name()+"/"); ok {
			ran = true
			t.Run(sub, func(t *testing.T) { runContract(t, contractSeeds[name]) })
		}
	}
	if !ran {
		t.Fatalf("no seed program is named %s", t.Name())
	}
}

func TestShardedMatchesSingleEngine(t *testing.T)          { runSeed(t) }
func TestEveryShardCountMatchesEngine(t *testing.T)        { runSeed(t) }
func TestBatchCutsMatchSingleEngine(t *testing.T)          { runSeed(t) }
func TestIngestBatchMatchesIngest(t *testing.T)            { runSeed(t) }
func TestShardedSnapshotMatchesSingle(t *testing.T)        { runSeed(t) }
func TestMergeSnapshotsMatchesSharded(t *testing.T)        { runSeed(t) }
func TestSuccessorDocumentsRebuildFrames(t *testing.T)     { runSeed(t) }
func TestShardedCheckpointRepartitions(t *testing.T)       { runSeed(t) }
func TestShardedTiltedMatchesSingle(t *testing.T)          { runSeed(t) }
func TestShardedTiltedCheckpointRepartitions(t *testing.T) { runSeed(t) }
func TestCheckpointThenReplayExactlyOnce(t *testing.T)     { runSeed(t) }
func TestWALReplayShardCountWhatIf(t *testing.T)           { runSeed(t) }
func TestOnlineEqualsBatch(t *testing.T)                   { runSeed(t) }
func TestShardedMatchesSingleUnitSequence(t *testing.T)    { runSeed(t) }
func TestTiltedCheckpointRoundTrip(t *testing.T)           { runSeed(t) }
func TestTiltedZeroPadsAbsentUnits(t *testing.T)           { runSeed(t) }
func TestCheckpointSerializationCanonical(t *testing.T)    { runSeed(t) }
func TestEngineDeterministicAcrossRuns(t *testing.T)       { runSeed(t) }
func TestSnapshotCodecRoundTrip(t *testing.T)              { runSeed(t) }
func TestSnapshotCodecTilted(t *testing.T)                 { runSeed(t) }
func TestMissingTicksCountAsZero(t *testing.T)             { runSeed(t) }
func TestFlushPadsToBoundary(t *testing.T)                 { runSeed(t) }
func TestEmptyUnitsOnGap(t *testing.T)                     { runSeed(t) }
func TestUnitBoundaryClosesAndCubes(t *testing.T)          { runSeed(t) }
func TestDeltaAlerts(t *testing.T)                         { runSeed(t) }
func TestSlopeChangeAfterQuietUnit(t *testing.T)           { runSeed(t) }
func TestTrendQueryGapDetection(t *testing.T)              { runSeed(t) }
func TestNonZeroStartTick(t *testing.T)                    { runSeed(t) }
func TestShardedStickyErrorAndRecovery(t *testing.T)       { runSeed(t) }
func TestSnapshotEmptyUnit(t *testing.T)                   { runSeed(t) }
func TestCheckpointCodecRoundTrip(t *testing.T)            { runSeed(t) }
func TestFinestLevelIndependentOfChain(t *testing.T)       { runSeed(t) }
func TestHistoryBounded(t *testing.T)                      { runSeed(t) }
func TestTiltedCheckpointLoadsIntoFlatEngine(t *testing.T) { runSeed(t) }
func TestTiltedHistoryPromotesAndBounds(t *testing.T)      { runSeed(t) }
func TestFlatCheckpointSeedsTiltedEngine(t *testing.T)     { runSeed(t) }
func TestCheckpointReseedsAcrossChains(t *testing.T)       { runSeed(t) }
func TestTiltedStateBoundedOverLongRun(t *testing.T)       { runSeed(t) }
func TestEngineSnapshotPublishedPerUnit(t *testing.T)      { runSeed(t) }
func TestSnapshotClearedOnRestore(t *testing.T)            { runSeed(t) }
