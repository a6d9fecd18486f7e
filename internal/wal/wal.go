// Package wal is the durable-ingest half of the stream engine: a
// segmented, length-prefixed, CRC32C-framed record log that streamd
// appends every stream record to *before* ingesting it. Replaying the log
// after a crash rebuilds the open unit exactly (ingest is deterministic,
// so replayed state is bitwise-identical to uninterrupted state), and
// replaying it through a *different* engine configuration — shard count,
// tilt levels, exception threshold — answers what-if questions about
// history the checkpoint alone cannot.
//
// On disk a log directory holds numbered segment files plus a manifest:
//
//	wal-0000000000000000.seg   records [0, s1)
//	wal-00000000000186a0.seg   records [s1, s2)
//	...
//	MANIFEST.json              {"version":1,"segments":[...]}
//
// Each segment starts with a 16-byte header (magic "RGCWAL02" plus the
// little-endian first record sequence, which also names the file) and then
// carries frames of wire batches (see frame.go); "RGCWAL01" segments, which
// older builds wrote, are read and never appended to. Rotation seals the
// current segment, creates the next one, and rewrites the manifest
// atomically; a crash between the two leaves an untracked trailing segment
// that recovery adopts. Recovery scans only the newest segment and
// truncates it at the first torn or corrupt frame — everything before that
// point is the durable record prefix, everything after never happened.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/wire"
)

// Typed failure classes. ErrTorn marks an incomplete tail write (the
// expected post-crash state; recovery truncates it silently); ErrCorrupt
// marks data that was durably written and then damaged, or a log directory
// whose segments and manifest disagree — never repaired silently. ErrTorn
// is the wire package's sentinel: a torn log tail and a torn ingest stream
// are the same failure, cut at the same frame boundary. ErrCorrupt stays
// the log's own (it also covers manifest and segment-header damage), but
// frame-level corruption wraps wire.ErrCorrupt too.
var (
	ErrTorn    = wire.ErrTorn
	ErrCorrupt = errors.New("wal: corrupt log")
)

// SyncPolicy selects when appended frames are fsynced.
type SyncPolicy int

const (
	// SyncBatch fsyncs after every appended frame — every acknowledged
	// batch survives an OS crash (the default).
	SyncBatch SyncPolicy = iota
	// SyncInterval fsyncs at most once per Options.SyncEvery; a crash can
	// lose the last interval's records (they are also absent from any
	// checkpoint, so recovery stays consistent).
	SyncInterval
	// SyncOff never fsyncs on append; only explicit Sync calls (streamd
	// issues one before every checkpoint save) reach the platter.
	SyncOff
)

// ParseSyncPolicy decodes the streamd -wal-sync flag forms: "batch",
// "off", "interval" (default period), or "interval=250ms".
func ParseSyncPolicy(s string) (SyncPolicy, time.Duration, error) {
	switch {
	case s == "" || s == "batch":
		return SyncBatch, 0, nil
	case s == "off":
		return SyncOff, 0, nil
	case s == "interval":
		return SyncInterval, 0, nil
	case strings.HasPrefix(s, "interval="):
		d, err := time.ParseDuration(strings.TrimPrefix(s, "interval="))
		if err != nil || d <= 0 {
			return 0, 0, fmt.Errorf("wal: sync policy %q: want a positive duration", s)
		}
		return SyncInterval, d, nil
	default:
		return 0, 0, fmt.Errorf("wal: sync policy %q: want batch, interval[=dur], or off", s)
	}
}

const (
	// legacyMagic opened the row-payload segments of older builds; a new
	// magic makes such a build refuse a segment rather than truncate it.
	segmentMagic  = "RGCWAL02"
	legacyMagic   = "RGCWAL01"
	segmentHdrLen = 16
	manifestName  = "MANIFEST.json"
	segPrefix     = "wal-"
	segSuffix     = ".seg"

	defaultSegmentBytes = 64 << 20
	defaultSyncEvery    = 100 * time.Millisecond
)

// Options configures Open.
type Options struct {
	// Dir is the log directory, created if absent.
	Dir string
	// SegmentBytes rotates to a new segment once the current one reaches
	// this size (default 64 MiB).
	SegmentBytes int64
	// Sync selects the fsync policy (default SyncBatch).
	Sync SyncPolicy
	// SyncEvery is the SyncInterval period (default 100ms).
	SyncEvery time.Duration
}

// SegmentInfo describes one segment of the log.
type SegmentInfo struct {
	// Name is the segment file name within the log directory.
	Name string `json:"name"`
	// FirstSeq is the sequence of the segment's first record.
	FirstSeq int64 `json:"firstSeq"`
}

type manifest struct {
	Version  int           `json:"version"`
	Segments []SegmentInfo `json:"segments"`
}

// Log is an append-only record log. Like the stream engines it is
// confined to one goroutine.
type Log struct {
	opts     Options
	segs     []SegmentInfo
	f        *os.File // open (newest) segment
	size     int64    // bytes written to the open segment, header included
	seq      int64    // sequence of the next appended record
	appended int64    // frame bytes appended since Open
	dirty    bool     // bytes written since the last fsync
	lastSync time.Time
	frameBuf []byte
	payload  []byte
}

func segmentName(firstSeq int64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, firstSeq, segSuffix)
}

func parseSegmentName(name string) (int64, bool) {
	if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	hex := strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix)
	if len(hex) != 16 {
		return 0, false
	}
	var seq int64
	if _, err := fmt.Sscanf(hex, "%016x", &seq); err != nil || segmentName(seq) != name {
		return 0, false
	}
	return seq, true
}

// Open opens (or initializes) the log in opts.Dir for appending,
// recovering from any crash state first: the newest segment is scanned and
// truncated at the first torn or corrupt frame, a trailing segment the
// manifest missed is adopted, and a half-created trailing segment (torn
// header, untracked) is removed. The returned log appends at Seq(), in a
// new segment when the newest one is an RGCWAL01 segment holding records.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("%w: empty directory", ErrCorrupt)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegmentBytes
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = defaultSyncEvery
	}
	if err := os.MkdirAll(opts.Dir, 0o777); err != nil {
		return nil, err
	}
	segs, err := loadSegments(opts.Dir, true)
	if err != nil {
		return nil, err
	}
	l := &Log{opts: opts, lastSync: time.Now()}
	if len(segs) == 0 {
		if err := l.createSegment(0); err != nil {
			return nil, err
		}
		return l, nil
	}
	l.segs = segs
	last := segs[len(segs)-1]
	path := filepath.Join(opts.Dir, last.Name)
	var records int64
	valid, legacy, _, err := walkSegment(path, func(b *wire.Batch) error {
		records += int64(b.Len())
		return nil
	})
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o666)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err == nil && fi.Size() != valid {
		// The torn or corrupt tail is physically removed so the rebuilt
		// append position and every future reader agree on the log's end.
		if err = f.Truncate(valid); err == nil {
			err = f.Sync()
		}
	}
	l.seq = last.FirstSeq + records
	// An RGCWAL01 segment is never appended to: the log goes on in a new
	// segment at Seq, or in the old one re-stamped if it holds no record.
	if err == nil && legacy && records > 0 {
		f.Close()
		if err := l.createSegment(l.seq); err != nil {
			return nil, err
		}
		return l, nil
	}
	if err == nil && legacy {
		if _, err = f.WriteAt([]byte(segmentMagic), 0); err == nil {
			err = f.Sync()
		}
	}
	if err == nil {
		_, err = f.Seek(valid, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	l.f, l.size = f, valid
	return l, nil
}

// loadSegments discovers and cross-validates the manifest and the segment
// files on disk, returning the ordered segment list. With repair set
// (Open), a trailing untracked segment is adopted into the manifest and a
// trailing torn-header segment is deleted; read-only callers (Replay) get
// the same view without mutating anything.
func loadSegments(dir string, repair bool) ([]SegmentInfo, error) {
	var m manifest
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, fmt.Errorf("%w: manifest: %v", ErrCorrupt, err)
		}
		if m.Version != 1 {
			return nil, fmt.Errorf("%w: manifest version %d, want 1", ErrCorrupt, m.Version)
		}
	case os.IsNotExist(err):
		// Fresh directory (or pre-manifest crash with no segments yet).
	default:
		return nil, err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	onDisk := make(map[string]int64)
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSegmentName(e.Name()); ok {
			onDisk[e.Name()] = seq
		}
	}
	tracked := make(map[string]bool, len(m.Segments))
	lastTracked := int64(-1)
	for i, s := range m.Segments {
		if seq, ok := parseSegmentName(s.Name); !ok || seq != s.FirstSeq {
			return nil, fmt.Errorf("%w: manifest entry %q/%d is not a segment name", ErrCorrupt, s.Name, s.FirstSeq)
		}
		if i > 0 && s.FirstSeq <= m.Segments[i-1].FirstSeq {
			return nil, fmt.Errorf("%w: manifest sequences not increasing at %q", ErrCorrupt, s.Name)
		}
		if _, ok := onDisk[s.Name]; !ok {
			return nil, fmt.Errorf("%w: manifest names missing segment %q", ErrCorrupt, s.Name)
		}
		tracked[s.Name] = true
		lastTracked = s.FirstSeq
	}
	segs := slices.Clone(m.Segments)
	// Untracked segments are legal only past the manifest's tail: rotation
	// creates the file first and rewrites the manifest second, so a crash
	// between the two leaves exactly this state. An untracked segment
	// before the tail means someone else wrote the directory.
	var untracked []SegmentInfo
	for name, seq := range onDisk {
		if tracked[name] {
			continue
		}
		if seq <= lastTracked {
			return nil, fmt.Errorf("%w: segment %q on disk but absent from the manifest", ErrCorrupt, name)
		}
		untracked = append(untracked, SegmentInfo{Name: name, FirstSeq: seq})
	}
	sort.Slice(untracked, func(i, j int) bool { return untracked[i].FirstSeq < untracked[j].FirstSeq })
	adopted := false
	for _, s := range untracked {
		path := filepath.Join(dir, s.Name)
		if err := checkHeader(path, s.FirstSeq); err != nil {
			if errors.Is(err, ErrTorn) && s == untracked[len(untracked)-1] {
				// Crash mid-creation: the file exists but its header never
				// landed. It holds no records; drop it.
				if repair {
					if err := os.Remove(path); err != nil {
						return nil, err
					}
				}
				continue
			}
			return nil, err
		}
		segs = append(segs, s)
		adopted = true
	}
	for _, s := range segs {
		if err := checkHeader(filepath.Join(dir, s.Name), s.FirstSeq); err != nil {
			return nil, err
		}
	}
	if repair && adopted {
		if err := writeManifest(dir, segs); err != nil {
			return nil, err
		}
	}
	return segs, nil
}

// checkHeader validates one segment's 16-byte header against its name.
func checkHeader(path string, wantSeq int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var hdr [segmentHdrLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return fmt.Errorf("%w: segment %s header", ErrTorn, filepath.Base(path))
		}
		return err
	}
	if magic := string(hdr[:8]); magic != segmentMagic && magic != legacyMagic {
		return fmt.Errorf("%w: segment %s has bad magic", ErrCorrupt, filepath.Base(path))
	}
	if got := int64(binary.LittleEndian.Uint64(hdr[8:])); got != wantSeq {
		return fmt.Errorf("%w: segment %s header sequence %d, want %d", ErrCorrupt, filepath.Base(path), got, wantSeq)
	}
	return nil
}

func writeManifest(dir string, segs []SegmentInfo) error {
	raw, err := json.MarshalIndent(manifest{Version: 1, Segments: segs}, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, append(raw, '\n'), 0o666); err != nil {
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and creations within it are
// durable; filesystems that reject directory fsync are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, os.ErrInvalid) {
		return err
	}
	return nil
}

// createSegment seals nothing (the caller does) and starts the segment
// whose first record is seq, registering it in the manifest.
func (l *Log) createSegment(seq int64) error {
	name := segmentName(seq)
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o666)
	if err != nil {
		return err
	}
	var hdr [segmentHdrLen]byte
	copy(hdr[:], segmentMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(seq))
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(l.opts.Dir); err != nil {
		f.Close()
		return err
	}
	l.f = f
	l.size = segmentHdrLen
	l.seq = seq
	l.segs = append(l.segs, SegmentInfo{Name: name, FirstSeq: seq})
	return writeManifest(l.opts.Dir, l.segs)
}

// rotate seals the open segment and starts the next one.
func (l *Log) rotate() error {
	if err := l.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.f = nil
	return l.createSegment(l.seq)
}

// Seq returns the sequence the next appended record will take — equally,
// how many records the log has ever admitted.
func (l *Log) Seq() int64 { return l.seq }

// Appended returns the frame bytes this Log has appended since Open. It
// only grows; a checkpoint policy reads it to weigh the log written since
// its last cut.
func (l *Log) Appended() int64 { return l.appended }

// Segments returns the ordered segment list (a copy).
func (l *Log) Segments() []SegmentInfo { return slices.Clone(l.segs) }

// AppendColumnar writes one frame carrying a wire batch — the frame the
// binary ingest wire ships for it — and advances Seq by b.Len(). A batch
// wire.DecodeBatch would refuse (dimensions, record count, a tick delta
// overflowing int64) is refused as ErrCorrupt before a byte is written: the
// log never acknowledges a record its recovery scan would cut. Whether the
// frame is durable when it returns is the sync policy's call; Sync forces
// the question. An empty batch is a no-op.
func (l *Log) AppendColumnar(b *wire.Batch) error {
	n := b.Len()
	if n == 0 {
		return nil
	}
	if l.f == nil {
		return fmt.Errorf("%w: log closed", ErrCorrupt)
	}
	if dims := len(b.Cols); dims < 1 || dims > wire.MaxDims || n > wire.MaxBatchRecords {
		return fmt.Errorf("%w: batch of %d records in %d dimensions, want at most %d in [1,%d]",
			ErrCorrupt, n, dims, wire.MaxBatchRecords, wire.MaxDims)
	}
	for i := 1; i < n; i++ {
		if t, prev := b.Ticks[i], b.Ticks[i-1]; (t-prev < 0) != (t < prev) {
			return fmt.Errorf("%w: record %d tick %d overflows its delta from %d", ErrCorrupt, i, t, prev)
		}
	}
	l.payload = wire.AppendBatch(l.payload[:0], b)
	if len(l.payload) > wire.MaxFramePayload {
		return fmt.Errorf("%w: batch encodes to %d bytes, frame cap %d", ErrCorrupt, len(l.payload), wire.MaxFramePayload)
	}
	if l.size >= l.opts.SegmentBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	l.frameBuf = wire.EncodeFrame(l.frameBuf[:0], l.payload)
	if _, err := l.f.Write(l.frameBuf); err != nil {
		return err
	}
	l.size += int64(len(l.frameBuf))
	l.appended += int64(len(l.frameBuf))
	l.seq += int64(n)
	l.dirty = true
	switch l.opts.Sync {
	case SyncBatch:
		return l.Sync()
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.SyncEvery {
			return l.Sync()
		}
	}
	return nil
}

// Sync fsyncs the open segment. Checkpoint writers call it first, so a
// checkpoint's watermark never points past the durable log.
func (l *Log) Sync() error {
	if l.f == nil || !l.dirty {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.dirty = false
	l.lastSync = time.Now()
	return nil
}

// Close syncs and closes the log. The log is unusable afterwards.
func (l *Log) Close() error {
	if l.f == nil {
		return nil
	}
	err := l.Sync()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}
