package node

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
)

// replaceFile puts what write produces at path, all of it or none: create
// path.tmp, write, close, rename over path. On any error the temporary file
// is removed and whatever was at path stays. It returns the bytes written.
//
// The rename is atomic against a crash of this process, not against a power
// cut: nothing is fsynced, so after one the file may be an older checkpoint
// or a torn one. The reader's checksum turns the torn one into a refusal to
// start, and the WAL still holds every record either way.
func replaceFile(path string, write func(io.Writer) error) (int64, error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return 0, err
	}
	err = write(f)
	n, _ := f.Seek(0, io.SeekCurrent) // where the writes ended; only counted
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) // the error being returned is the one that matters
		return 0, err
	}
	return n, nil
}

// checkpointStats are the checkpoint file's counters on /metrics, advanced
// by the ingest loop and read by scrapes.
type checkpointStats struct {
	writes atomic.Int64
	bytes  atomic.Int64 // the last file's size
	nanos  atomic.Int64
}

func (c *checkpointStats) writeMetrics(w io.Writer) {
	fmt.Fprintf(w, "regcube_checkpoint_writes_total %d\n", c.writes.Load())
	fmt.Fprintf(w, "regcube_checkpoint_bytes %d\n", c.bytes.Load())
	fmt.Fprintf(w, "regcube_checkpoint_nanos_total %d\n", c.nanos.Load())
}

// writeGCMetrics renders the collector's cycle count and pause total from
// runtime/metrics, which — unlike runtime.ReadMemStats — does not stop the
// world to be read. Against regcube_snapshot_units_done the first is "GC
// cycles per unit", the number a unit's allocations decide. The runtime
// accounts pauses as CPU time, GOMAXPROCS times the wall-clock pause, so
// the total is divided back.
func writeGCMetrics(w io.Writer) {
	samples := []metrics.Sample{
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/pause:cpu-seconds"},
	}
	metrics.Read(samples)
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		fmt.Fprintf(w, "regcube_gc_cycles_total %d\n", v.Uint64())
	}
	if v := samples[1].Value; v.Kind() == metrics.KindFloat64 {
		fmt.Fprintf(w, "regcube_gc_pause_nanos_total %d\n", int64(v.Float64()/float64(runtime.GOMAXPROCS(0))*1e9))
	}
}
