package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The box is a shared virtual machine whose speed drifts: for tens of
// seconds to minutes at a time everything CPU-bound — the programs under
// test and this process alike — runs 10 to 40 % slower, in wall time and
// in the CPU time the guest accounts (a neighbour on the same core, not
// steal). Ten runs of a workload take minutes, so the drift lands in full
// in their spread, and no window length averages it out. The calibrator
// measures it instead: every calibEvery it runs a fixed burst of work on a
// thread of its own and records the CPU time the burst took. The nominal
// burst time over the time measured during a phase of a run is the speed
// of the box in that phase, and the compute-bound metrics are reported as
// a box at nominal speed would have measured them (README.md, "The state
// of the box").
const (
	calibEvery = 100 * time.Millisecond
	// calibIters makes a burst just under 2 ms: two percent of one core.
	calibIters = 600_000
	// calibCells is the burst's working set in float64 cells: 1 MB, half
	// of a core's second-level cache. Measured against the closed-loop
	// workloads' throughput second by second, a walk over 256 KB slows down
	// half as much as the programs under test when the box does, one over
	// 2 MB nearly twice as much; this size follows them about one to one.
	calibCells = 128 << 10
	// calibNominalNs is the CPU time of a burst on this box at its fastest.
	// It only fixes the scale: a quiet box reads close to 1.
	calibNominalNs = 2.1e6
)

// calibrator samples the speed of the box from its start to stop.
type calibrator struct {
	quit chan struct{}
	done chan struct{}

	mu      sync.Mutex
	burstNs []float64 // CPU time of each burst so far
}

// threadCPU is the CPU time the calling thread has used, from the
// scheduler's nanosecond account (getrusage counts in ticks of 4 to 10 ms,
// longer than a burst).
func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}

// burst is the fixed work: a xorshift walk over the cells with one float
// multiply-add into each cell it lands on — integer, floating-point and
// second-level-cache work, like the ingest path and the unit close.
func burst(cells []float64, x uint64) uint64 {
	n := uint64(len(cells))
	for i := 0; i < calibIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		cells[((x>>32)*n)>>32] += float64(i) * 1e-9
	}
	return x
}

func startCalibrator() *calibrator {
	c := &calibrator{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		// A burst is timed in this thread's CPU time, so being descheduled by
		// the load under measurement does not count; running slower does.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		cells := make([]float64, calibCells)
		x := burst(cells, 88172645463325252) // touch the cells before the first sample
		tick := time.NewTicker(calibEvery)
		defer tick.Stop()
		for {
			select {
			case <-c.quit:
				return
			case <-tick.C:
			}
			t0 := threadCPU()
			x = burst(cells, x)
			ns := float64(threadCPU() - t0)
			c.mu.Lock()
			c.burstNs = append(c.burstNs, ns)
			c.mu.Unlock()
		}
	}()
	return c
}

func (c *calibrator) stop() {
	close(c.quit)
	<-c.done
}

// hostPhase marks the start of a stretch of a run — the set-ups, the
// window — over which the state of the box is wanted.
type hostPhase struct {
	burst        int     // bursts sampled before it
	total, steal float64 // cpuTimes at its start
}

func (c *calibrator) begin() hostPhase {
	c.mu.Lock()
	defer c.mu.Unlock()
	total, steal := cpuTimes()
	return hostPhase{len(c.burstNs), total, steal}
}

// end returns the state of the box since p began: its speed, and the
// share of that time the guest had its processors at all — one minus the
// share the hypervisor gave to other guests while this one had work to run.
func (c *calibrator) end(p hostPhase) (speed, had float64) {
	c.mu.Lock()
	to := len(c.burstNs)
	c.mu.Unlock()
	return c.speed(p.burst, to), 1 - stolenSince(p.total, p.steal)
}

// stolenSince is the stolen share of all CPU time accounted since a
// reading of cpuTimes.
func stolenSince(total0, steal0 float64) float64 {
	total, steal := cpuTimes()
	if total <= total0 {
		return 0
	}
	return (steal - steal0) / (total - total0)
}

// stolenLimit is the stolen share past which a stretch of a run measured
// the hypervisor and not the programs: a quiet box reads 0.0005, and when
// a neighbour crowds it the share jumps to a third or a half for minutes.
const stolenLimit = 0.20

// speed is the speed of the box over the bursts [from, to): the nominal
// burst time over the mean measured one, the slowest and fastest tenth of
// the bursts left out (an interrupt served inside a burst is not the box
// being slow). A phase too short to hold a burst reads as nominal speed.
func (c *calibrator) speed(from, to int) float64 {
	c.mu.Lock()
	xs := append([]float64(nil), c.burstNs[from:to]...)
	c.mu.Unlock()
	if len(xs) == 0 {
		return 1
	}
	sort.Float64s(xs)
	trim := len(xs) / 10
	xs = xs[trim : len(xs)-trim]
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return calibNominalNs * float64(len(xs)) / sum
}

// cpuTimes reads the first line of /proc/stat: all CPU time the guest has
// accounted, in ticks, and the part of it the hypervisor gave to someone
// else while this guest had work to run (steal). A box without the file
// reads as one nobody steals from.
func cpuTimes() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, field := range f[1:] {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}
