package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"testing"

	"repro/internal/gen"
	"repro/internal/wire"
)

// benchSpec is the benchmark workload: a 16×16 m-layer grid — 256 cells
// per tick, every cell reporting on every tick.
const (
	benchSpec = "D2L2C4"
	benchDims = 2
	benchCard = 16
)

// benchStream synthesizes one deterministic record stream — every cell of
// the benchSpec m-layer reporting on every tick — in both encodings, so the
// text and binary benchmarks ingest identical records.
func benchStream(tb testing.TB, ticks int) (text, binary []byte, records int) {
	tb.Helper()
	var txt bytes.Buffer
	var bin bytes.Buffer
	bw, err := wire.NewWriter(&bin, benchDims)
	if err != nil {
		tb.Fatal(err)
	}
	var line []byte
	members := make([]int32, benchDims)
	for t := 0; t < ticks; t++ {
		for cell := int32(0); cell < benchCard*benchCard; cell++ {
			for d, m := 0, cell; d < benchDims; d, m = d+1, m/benchCard {
				members[d] = m % benchCard
			}
			v := float64(t)*0.25 + float64(cell)*0.125 - 3.0625
			line = gen.AppendStreamRecord(line[:0], int64(t), members, v)
			txt.Write(line)
			if err := bw.Append(int64(t), members, v); err != nil {
				tb.Fatal(err)
			}
			records++
		}
	}
	if err := bw.Flush(); err != nil {
		tb.Fatal(err)
	}
	return txt.Bytes(), bin.Bytes(), records
}

// BenchmarkIngest drives the full streamd pipeline — decode, route, shard
// ingest, unit cubing — from an in-memory stream in each encoding, at 1, 4,
// and 8 shards. One op is the whole stream; records/s is the headline
// ingest-throughput metric the PR trajectory tracks.
func BenchmarkIngest(b *testing.B) {
	text, binary, records := benchStream(b, 400)
	for _, enc := range []struct {
		name string
		data []byte
	}{{"text", text}, {"binary", binary}} {
		for _, shards := range []int{1, 4, 8} {
			b.Run(fmt.Sprintf("%s/shards%d", enc.name, shards), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(len(enc.data)))
				for i := 0; i < b.N; i++ {
					err := run(context.Background(), options{
						spec: benchSpec, unit: 50, threshold: 0.5,
						shards: shards,
					}, bytes.NewReader(enc.data), io.Discard)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
			})
		}
	}
}

// BenchmarkDecode isolates the per-record decode cost of each encoding —
// no engine behind it — so the router benchmarks above can be read as
// decode plus routing. The binary decoder must stay O(1) allocations per
// batch regardless of batch count.
func BenchmarkDecode(b *testing.B) {
	text, binary, records := benchStream(b, 400)

	b.Run("text", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(text)))
		for i := 0; i < b.N; i++ {
			rr := gen.NewRecordReader(bufio.NewReaderSize(bytes.NewReader(text), 1<<16), benchDims)
			n := 0
			for {
				_, _, _, err := rr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				n++
			}
			if n != records {
				b.Fatalf("decoded %d records, want %d", n, records)
			}
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})

	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(binary)))
		var batch wire.Batch
		for i := 0; i < b.N; i++ {
			wr, err := wire.NewReader(bytes.NewReader(binary))
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			for {
				cnt, err := wr.Next(&batch)
				if err == io.EOF {
					break
				}
				if err != nil {
					b.Fatal(err)
				}
				n += cnt
			}
			if n != records {
				b.Fatalf("decoded %d records, want %d", n, records)
			}
		}
		b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
	})
}
