package node

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"

	"repro/internal/gen"
	"repro/internal/wire"
)

// ingestMsg is one message from the reader goroutine to the ingest loop:
// a decoded record batch, or an advance barrier (a control frame telling
// the engine to close every unit before advance).
type ingestMsg struct {
	batch   *wire.Batch
	advance int64
	isCtrl  bool
}

// serveIngest accepts record-stream connections until the signal closes
// the listener, feeding each one through the auto-negotiated decoder. The
// engine is one logical stream, so connections are consumed sequentially;
// a connection that dies or delivers corrupt bytes is logged and dropped
// (its decoded batches stand — the router re-routes from its own stream
// position), never fatal to the node.
func serveIngest(ctx context.Context, ln net.Listener, dims int, getBatch func() *wire.Batch,
	msgs chan<- ingestMsg, stats *wire.IngestStats) {
	go func() {
		<-ctx.Done()
		ln.Close()
	}()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return
			}
			fmt.Fprintf(os.Stderr, "streamd: ingest accept: %v\n", err)
			continue
		}
		err = readStream(ctx, conn, dims, getBatch, msgs, stats, wire.SourceTCP)
		conn.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "streamd: ingest connection: %v\n", err)
		}
		if ctx.Err() != nil {
			return
		}
	}
}

// readStream decodes one record stream — stdin or a TCP connection, text
// or binary as gen.StreamReader negotiates — into the message channel until
// EOF, a decode error, or the signal. Batches decode straight into recycled
// Batch storage, no per-record allocation; a batch is drawn only when the
// previous one was handed on, so control frames (the router's unit
// barriers, passed through as advance messages in stream order) cost none.
func readStream(ctx context.Context, in io.Reader, dims int, getBatch func() *wire.Batch,
	msgs chan<- ingestMsg, stats *wire.IngestStats, src wire.Source) error {
	sr := gen.NewStreamReader(bufio.NewReaderSize(in, 1<<16), dims)
	format := sr.Format()
	b := getBatch()
	for {
		// Stop decoding once the signal fires — the unconditional sends
		// below still deliver what was decoded, so shutdown drains a
		// bounded backlog instead of racing a fast producer.
		select {
		case <-ctx.Done():
			return nil
		default:
		}
		n, ctrl, isCtrl, err := sr.Next(b)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			stats.AddDecodeError(format, src)
			return fmt.Errorf("%s stream: %w", format, err)
		}
		stats.AddFrame(format, src)
		if isCtrl {
			msgs <- ingestMsg{advance: ctrl.Unit, isCtrl: true}
			continue
		}
		stats.AddRecords(format, src, n)
		msgs <- ingestMsg{batch: b}
		b = getBatch()
	}
}
