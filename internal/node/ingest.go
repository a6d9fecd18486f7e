package node

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/gen"
	"repro/internal/wire"
)

// frameFunc takes one frame of a record stream: a batch decoded into b,
// with the wire payload it was decoded from (nil for text), or — b nil —
// a router barrier to advance to.
type frameFunc func(b *wire.Batch, payload []byte, advance int64) error

// serveIngest accepts record-stream connections until the signal closes
// the listener, reading each one through readStream. The engine is one
// logical stream, so connections are consumed sequentially; a connection
// that dies or delivers corrupt bytes is logged and dropped (the frames it
// delivered stand — the router re-routes from its own stream position),
// never fatal to the node. An error of onFrame, the engine's or the log's,
// is: serveIngest returns it. On the signal a read deadline interrupts the
// connection's read.
func serveIngest(ctx context.Context, ln net.Listener, dims int, stats *wire.IngestStats, onFrame frameFunc) error {
	defer ln.Close()
	defer context.AfterFunc(ctx, func() { ln.Close() })()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			fmt.Fprintf(os.Stderr, "streamd: ingest accept: %v\n", err)
			continue
		}
		stopInterrupt := context.AfterFunc(ctx, func() { conn.SetReadDeadline(time.Now()) })
		var fatal error
		err = readStream(ctx, conn, dims, stats, wire.SourceTCP, func(b *wire.Batch, payload []byte, advance int64) error {
			fatal = onFrame(b, payload, advance)
			return fatal
		})
		stopInterrupt()
		conn.Close()
		if fatal != nil {
			return fatal
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "streamd: ingest connection: %v\n", err)
		}
		if ctx.Err() != nil {
			return nil
		}
	}
}

// readStream reads one record stream — stdin or a TCP connection, text or
// binary as gen.StreamReader negotiates — frame by frame into onFrame, in
// stream order, until EOF, a decode error, an error of onFrame, or the
// signal interrupting a read. Every batch of the stream decodes into one
// Batch, so it allocates nothing per frame once the columns have grown.
func readStream(ctx context.Context, in io.Reader, dims int, stats *wire.IngestStats, src wire.Source, onFrame frameFunc) error {
	sr := gen.NewStreamReader(bufio.NewReaderSize(in, 1<<16), dims)
	format := sr.Format()
	b := new(wire.Batch)
	for {
		n, ctrl, isCtrl, err := sr.Next(b)
		if err == io.EOF || (err != nil && ctx.Err() != nil) {
			return nil // a read the signal interrupted is no decode error
		}
		if err != nil {
			stats.AddDecodeError(format, src)
			return fmt.Errorf("%s stream: %w", format, err)
		}
		stats.AddFrame(format, src)
		if isCtrl {
			err = onFrame(nil, nil, ctrl.Unit)
		} else {
			stats.AddRecords(format, src, n)
			err = onFrame(b, sr.Payload(), 0)
		}
		if err != nil {
			return err
		}
	}
}
