package wal

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/wire"
)

// walkSegment is the log's one segment reader, shared by Open's recovery
// scan and ReplayBatches: it streams the segment at path through a
// wire.FrameReader and hands fn each frame, decoded by the decoder its
// magic names into one reused Batch, so a walk holds one read buffer and
// one frame, never the segment. It returns the bytes delivered (header
// included), whether the segment is RGCWAL01, and stop: the torn frame,
// bad checksum or refused payload that ended the walk early. Only fn's
// errors and I/O errors fail it. loadSegments has checked the header.
func walkSegment(path string, fn func(*wire.Batch) error) (valid int64, legacy bool, stop, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var hdr [segmentHdrLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, false, nil, err
	}
	decode := decodeBatch
	if legacy = string(hdr[:len(legacyMagic)]) == legacyMagic; legacy {
		decode = decodeRowBatch
	}
	frames := wire.NewFrameReader(br)
	var b wire.Batch
	for {
		valid = segmentHdrLen + frames.Offset()
		payload, err := frames.Next()
		if err == nil {
			err = decode(payload, &b)
		}
		switch {
		case err == io.EOF:
			return valid, legacy, nil, nil
		case errors.Is(err, ErrTorn) || errors.Is(err, wire.ErrCorrupt) || errors.Is(err, ErrCorrupt):
			return valid, legacy, err, nil
		case err != nil:
			return valid, legacy, nil, err
		}
		if err := fn(&b); err != nil {
			return valid, legacy, nil, err
		}
	}
}

// ReplayBatches reads the log in dir and hands fn, in order, every logged
// batch with records at sequence from or later, seq being the sequence of
// the batch's first record (the frame that straddles from starts at its
// record from), and returns the sequence one past the last record
// delivered: the count of records the durable log holds. The batches are
// the frames AppendColumnar and AppendPayload wrote, each validated whole
// before fn sees it, so ingesting each one repeats the live run's
// IngestBatch calls. Segments wholly below from are skipped unread, by
// their manifest bounds.
//
// ReplayBatches never mutates the directory, so it also serves crashed
// logs Open has not repaired: a torn or corrupt tail in the *last* segment
// ends the replay cleanly where Open would truncate, while damage in a
// sealed segment, whose frames were all durably acknowledged, is a hard
// ErrCorrupt. fn must not retain the reused batch; its errors abort the
// replay and are returned verbatim.
func ReplayBatches(dir string, from int64, fn func(seq int64, b *wire.Batch) error) (int64, error) {
	if from < 0 {
		return 0, fmt.Errorf("%w: negative replay watermark %d", ErrCorrupt, from)
	}
	segs, err := loadSegments(dir, false)
	if err != nil {
		return 0, err
	}
	seq := int64(0)
	for i, s := range segs {
		last := i == len(segs)-1
		// A sealed segment's record span is bounded by its successor's
		// first sequence; skip it unread when the watermark clears it.
		if !last && segs[i+1].FirstSeq <= from {
			seq = segs[i+1].FirstSeq
			continue
		}
		if s.FirstSeq != seq {
			return 0, fmt.Errorf("%w: segment %s starts at %d, expected %d", ErrCorrupt, s.Name, s.FirstSeq, seq)
		}
		_, _, stop, err := walkSegment(filepath.Join(dir, s.Name), func(b *wire.Batch) error {
			first := seq
			if seq += int64(b.Len()); seq <= from {
				return nil
			}
			if k := from - first; k > 0 {
				b.Ticks, b.Values = b.Ticks[k:], b.Values[k:]
				for d := range b.Cols {
					b.Cols[d] = b.Cols[d][k:]
				}
				first = from
			}
			return fn(first, b)
		})
		switch {
		case err != nil:
			return seq, err
		case stop != nil && last:
			// The unrepaired tail of a crashed log: stop at the valid
			// prefix, where Open would truncate.
			return seq, nil
		case stop != nil:
			return 0, fmt.Errorf("%w: sealed segment %s: %v", ErrCorrupt, s.Name, stop)
		}
	}
	return seq, nil
}

// Record is one logged record, its sequence its position in the log.
// Record and Replay are kept only because benchmark/ calls them; the next
// benchmark change moves it to ReplayBatches and removes them.
type Record struct {
	Tick    int64
	Value   float64
	Members []int32
}

// Replay is ReplayBatches one record at a time. The Record passed to fn
// aliases scratch storage reused across calls; copy Members to retain it.
func Replay(dir string, from int64, fn func(seq int64, rec Record) error) (int64, error) {
	var rec Record
	return ReplayBatches(dir, from, func(seq int64, b *wire.Batch) error {
		for i := range b.Ticks {
			rec.Tick, rec.Value, rec.Members = b.Ticks[i], b.Values[i], rec.Members[:0]
			for _, col := range b.Cols {
				rec.Members = append(rec.Members, col[i])
			}
			if err := fn(seq+int64(i), rec); err != nil {
				return err
			}
		}
		return nil
	})
}
