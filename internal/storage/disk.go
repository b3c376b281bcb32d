package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/wire"
)

// Disk layout under the node's data directory:
//
//	<dir>/wal/00000000.wal   WAL segments, numbered, append-only
//	<dir>/snap/<seq>.snap    snapshot files, named by sequence number
//
// A WAL frame is [u32 length][u32 crc32c][payload]; the payload is one
// wire-encoded Record. Appends go to the highest segment; a segment rolls
// when it exceeds SegmentBytes, and SaveSnapshot always rolls so the new
// snapshot's replay range starts on a segment boundary (its segBase).
//
// A snapshot file is [8-byte magic][u32 bodyLen][u32 crc32c][body],
// written to a temp name, fsynced, renamed, and the directory fsynced —
// so a *.snap file is either complete or absent, and a bad CRC means
// damage after the fact, handled by falling back to the previous file.
//
// Crash damage: only the highest segment can hold unsynced bytes — roll
// syncs a segment before creating its successor under EVERY fsync policy
// (including FsyncOff), which is what confines crash damage to the final
// segment. A crash mid-append tears the tail; with fsync=interval/off an
// OS or power crash can additionally write the unsynced suffix's pages
// back out of order, leaving a bad frame ahead of intact ones. Recovery
// therefore truncates the final segment at the FIRST damaged frame, at
// any offset — the dropped records were never acknowledged as durable
// under those policies, and peers re-supply them — and fsyncs the repair.
// The same damage in a non-final segment, or a frame whose CRC passes but
// whose payload does not decode, cannot be a crash artifact and is
// reported as ErrCorrupt, never repaired silently.

const (
	walSuffix    = ".wal"
	snapSuffix   = ".snap"
	snapTmp      = ".tmp"
	maxFrameSize = 1 << 30
)

var (
	snapMagic = [8]byte{'A', 'H', 'L', 'S', 'N', 'A', 'P', 1}
	crcTable  = crc32.MakeTable(crc32.Castagnoli)
)

// FsyncMode names a WAL commit policy.
type FsyncMode string

// The WAL fsync policies.
const (
	// FsyncAlways syncs after every append: a decided batch is on stable
	// storage before it executes. The default.
	FsyncAlways FsyncMode = "always"
	// FsyncInterval syncs at most once per interval; a crash can lose the
	// records appended since the last sync (peers re-supply them).
	FsyncInterval FsyncMode = "interval"
	// FsyncOff never syncs on append; the OS decides when data lands.
	// Benchmarks only. Segment rolls still sync (see roll), preserving
	// recovery's ability to tell crash damage from real corruption.
	FsyncOff FsyncMode = "off"
)

// DiskOptions tunes the persistent engine. The zero value gives
// fsync-always, 4 MiB segments, and two retained snapshots.
type DiskOptions struct {
	// SegmentBytes rolls a WAL segment once it exceeds this size.
	SegmentBytes int64
	// Fsync selects the commit policy (default FsyncAlways).
	Fsync FsyncMode
	// Interval is the maximum sync lag under FsyncInterval (default 50ms).
	Interval time.Duration
	// Keep is how many snapshot files to retain (default 2: the live one
	// plus a fallback for CRC damage).
	Keep int
	// Logf, when set, receives one-line recovery and damage notices.
	Logf func(format string, args ...any)
	// Metrics, when set, receives append/fsync/snapshot timings (see
	// NewMetrics). nil disables instrumentation.
	Metrics *Metrics
}

func (o *DiskOptions) fill() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.Fsync == "" {
		o.Fsync = FsyncAlways
	}
	if o.Interval <= 0 {
		o.Interval = 50 * time.Millisecond
	}
	if o.Keep <= 0 {
		o.Keep = 2
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// Disk is the persistent Backend. Open it with OpenDisk; the open itself
// performs the recovery scan (validating snapshots, truncating a torn WAL
// tail) so the writer starts on a clean log, and Recover returns the scan
// result.
type Disk struct {
	walDir  string
	snapDir string
	opts    DiskOptions

	cur      *os.File
	curSeg   uint64
	curSize  int64
	dirty    bool
	lastSync time.Time

	segBase   uint64            // replay floor recorded by the latest valid snapshot
	snapOrd   uint64            // log ordinal of the first record after that snapshot
	nextOrd   uint64            // ordinal the next Append will stamp
	snapBases map[uint64]uint64 // seq → segBase of every retained valid snapshot
	recSnap   *Snapshot
	recTail   []Record

	closed bool
	enc    wire.Encoder
	hdr    [8]byte
}

// OpenDisk opens (creating if needed) the durable store rooted at dir and
// runs the recovery scan. It fails with an error wrapping ErrCorrupt when
// the data on disk is damaged beyond the torn-tail and snapshot-fallback
// rules.
func OpenDisk(dir string, opts DiskOptions) (*Disk, error) {
	opts.fill()
	d := &Disk{
		walDir:   filepath.Join(dir, "wal"),
		snapDir:  filepath.Join(dir, "snap"),
		opts:     opts,
		lastSync: time.Now(),
	}
	for _, p := range []string{d.walDir, d.snapDir} {
		if err := os.MkdirAll(p, 0o755); err != nil {
			return nil, fmt.Errorf("storage: create %s: %w", p, err)
		}
	}
	if err := d.recoverSnapshots(); err != nil {
		return nil, err
	}
	if err := d.recoverWAL(); err != nil {
		return nil, err
	}
	if err := d.openWriter(); err != nil {
		return nil, err
	}
	return d, nil
}

// listNumbered returns the numeric values of dir entries named
// <number><suffix>, sorted ascending. Snapshot names are hex, WAL names
// decimal; base selects which. Stray files (temp files, editors) are
// ignored.
func listNumbered(dir, suffix string, base int) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("storage: read %s: %w", dir, err)
	}
	var out []uint64
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || !strings.HasSuffix(name, suffix) {
			continue
		}
		n, err := strconv.ParseUint(strings.TrimSuffix(name, suffix), base, 64)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (d *Disk) segPath(seg uint64) string {
	return filepath.Join(d.walDir, fmt.Sprintf("%08d%s", seg, walSuffix))
}

func (d *Disk) snapPath(seq uint64) string {
	return filepath.Join(d.snapDir, fmt.Sprintf("%016x%s", seq, snapSuffix))
}

// recoverSnapshots validates every retained snapshot file (there are at
// most Keep), deleting leftover temp files from an interrupted save and
// any file that fails validation — a damaged "newest" file must not shadow
// the good fallback under the pruning logic. The newest valid snapshot
// becomes the recovery root; if snapshots exist but none validates, the
// store is corrupt (the WAL below their segBase is gone).
func (d *Disk) recoverSnapshots() error {
	ents, err := os.ReadDir(d.snapDir)
	if err != nil {
		return fmt.Errorf("storage: read %s: %w", d.snapDir, err)
	}
	for _, ent := range ents {
		if strings.HasSuffix(ent.Name(), snapTmp) {
			os.Remove(filepath.Join(d.snapDir, ent.Name()))
		}
	}
	seqs, err := listNumbered(d.snapDir, snapSuffix, 16)
	if err != nil {
		return err
	}
	d.snapBases = make(map[uint64]uint64)
	sawDamage := false
	for i := len(seqs) - 1; i >= 0; i-- {
		path := d.snapPath(seqs[i])
		snap, segBase, ord, err := readSnapshotFile(path)
		if err != nil {
			d.opts.Logf("storage: snapshot %s unusable (%v), falling back", filepath.Base(path), err)
			os.Remove(path)
			sawDamage = true
			continue
		}
		d.snapBases[seqs[i]] = segBase
		if d.recSnap == nil {
			d.recSnap = &snap
			d.segBase = segBase
			d.snapOrd = ord
			if sawDamage {
				d.opts.Logf("storage: recovered from fallback snapshot seq=%d", snap.Seq)
			}
		}
	}
	if d.recSnap == nil && len(seqs) > 0 {
		return fmt.Errorf("%w: all %d snapshot files failed validation", ErrCorrupt, len(seqs))
	}
	return nil
}

func readSnapshotFile(path string) (Snapshot, uint64, uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, 0, 0, err
	}
	if len(data) < len(snapMagic)+8 {
		return Snapshot{}, 0, 0, fmt.Errorf("%w: snapshot file too short", ErrCorrupt)
	}
	if string(data[:len(snapMagic)]) != string(snapMagic[:]) {
		return Snapshot{}, 0, 0, fmt.Errorf("%w: bad snapshot magic", ErrCorrupt)
	}
	bodyLen := binary.LittleEndian.Uint32(data[8:12])
	sum := binary.LittleEndian.Uint32(data[12:16])
	body := data[16:]
	if uint64(bodyLen) != uint64(len(body)) {
		return Snapshot{}, 0, 0, fmt.Errorf("%w: snapshot length mismatch", ErrCorrupt)
	}
	if crc32.Checksum(body, crcTable) != sum {
		return Snapshot{}, 0, 0, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}
	return decodeSnapshotBody(body)
}

// recoverWAL replays every segment at or above the snapshot's segBase, in
// order, truncating a torn final record in the final segment.
func (d *Disk) recoverWAL() error {
	segs, err := listNumbered(d.walDir, walSuffix, 10)
	if err != nil {
		return err
	}
	var replay []uint64
	for _, s := range segs {
		if s >= d.segBase {
			replay = append(replay, s)
		}
	}
	if d.recSnap != nil && (len(replay) == 0 || replay[0] != d.segBase) {
		// SaveSnapshot creates the segBase segment before publishing the
		// snapshot, and truncation floors at the oldest retained
		// snapshot's base — a missing head segment is real damage.
		return fmt.Errorf("%w: WAL segment %d named by snapshot is missing", ErrCorrupt, d.segBase)
	}
	expect := d.snapOrd
	for i, s := range replay {
		if i > 0 && s != replay[i-1]+1 {
			return fmt.Errorf("%w: WAL segment gap: %d then %d", ErrCorrupt, replay[i-1], s)
		}
		if err := d.replaySegment(s, i == len(replay)-1, &expect); err != nil {
			return err
		}
	}
	d.nextOrd = expect
	return nil
}

// replaySegment appends the segment's records to recTail. In the final
// segment, structural damage (short header, short payload, CRC mismatch)
// at ANY offset is a crash artifact — an interrupted append at the tail,
// or pages of the unsynced suffix written back out of order, which can
// leave a bad frame ahead of intact ones — so the file is truncated at
// the first damaged frame and the records beyond it (never acknowledged
// as durable) are dropped for peers to re-supply. Non-final segments were
// fully synced when they rolled, so the same damage there is ErrCorrupt.
func (d *Disk) replaySegment(seg uint64, last bool, expect *uint64) error {
	path := d.segPath(seg)
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("storage: read %s: %w", path, err)
	}
	off := 0
	for off < len(data) {
		n, ord, rec, err := parseFrame(data[off:])
		if err != nil {
			if last && isTorn(err) {
				d.opts.Logf("storage: truncating torn WAL tail in %s at offset %d (%v)",
					filepath.Base(path), off, err)
				return truncateDurably(path, int64(off))
			}
			if isTorn(err) {
				// Damage shaped like a torn write, but not at the log's
				// end: an interrupted append cannot explain it.
				err = fmt.Errorf("%w: %v in non-final segment", ErrCorrupt, err)
			}
			return fmt.Errorf("%s offset %d: %w", filepath.Base(path), off, err)
		}
		if ord != *expect {
			// A CRC-valid frame with the wrong ordinal means whole records
			// vanished (or were duplicated) upstream of this point.
			return fmt.Errorf("%w: %s offset %d: record ordinal %d, want %d",
				ErrCorrupt, filepath.Base(path), off, ord, *expect)
		}
		*expect++
		d.recTail = append(d.recTail, rec)
		off += n
	}
	return nil
}

// truncateDurably cuts the file at off and fsyncs the repair, so the
// removed bytes cannot resurface if the machine crashes again before the
// next WAL sync.
func truncateDurably(path string, off int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("storage: open for truncation: %w", err)
	}
	err = f.Truncate(off)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: truncate torn WAL tail: %w", err)
	}
	return nil
}

// tornError marks frame damage explainable as an interrupted final write.
type tornError struct{ msg string }

func (e tornError) Error() string { return e.msg }

func isTorn(err error) bool {
	_, ok := err.(tornError)
	return ok
}

// parseFrame reads one frame from the head of data, returning its total
// size and the record's log ordinal. Structural damage that truncation
// could cause is a tornError; a frame whose CRC passes but whose payload
// does not decode is ErrCorrupt (truncation cannot manufacture a valid
// checksum over partial bytes).
func parseFrame(data []byte) (int, uint64, Record, error) {
	if len(data) < 8 {
		return 0, 0, Record{}, tornError{fmt.Sprintf("partial frame header (%d bytes)", len(data))}
	}
	length := binary.LittleEndian.Uint32(data[0:4])
	sum := binary.LittleEndian.Uint32(data[4:8])
	if length == 0 || length > maxFrameSize {
		return 0, 0, Record{}, tornError{fmt.Sprintf("implausible frame length %d", length)}
	}
	if uint64(len(data)-8) < uint64(length) {
		return 0, 0, Record{}, tornError{fmt.Sprintf("partial frame payload (%d of %d bytes)", len(data)-8, length)}
	}
	payload := data[8 : 8+length]
	if crc32.Checksum(payload, crcTable) != sum {
		return 0, 0, Record{}, tornError{"frame CRC mismatch"}
	}
	dec := wire.NewDecoder(payload)
	ord := dec.Uvarint()
	if dec.Err() != nil {
		return 0, 0, Record{}, fmt.Errorf("%w: frame ordinal: %v", ErrCorrupt, dec.Err())
	}
	rec, err := decodeRecord(payload[len(payload)-dec.Remaining():])
	if err != nil {
		return 0, 0, Record{}, err
	}
	return 8 + int(length), ord, rec, nil
}

// openWriter positions the append point: the highest existing segment, or
// a fresh one at segBase when the log is empty.
func (d *Disk) openWriter() error {
	segs, err := listNumbered(d.walDir, walSuffix, 10)
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		return d.createSegment(d.segBase)
	}
	seg := segs[len(segs)-1]
	f, err := os.OpenFile(d.segPath(seg), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: open WAL segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("storage: stat WAL segment: %w", err)
	}
	d.cur, d.curSeg, d.curSize = f, seg, st.Size()
	return nil
}

func (d *Disk) createSegment(seg uint64) error {
	f, err := os.OpenFile(d.segPath(seg), os.O_WRONLY|os.O_CREATE|os.O_EXCL|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create WAL segment: %w", err)
	}
	if err := syncDir(d.walDir); err != nil {
		f.Close()
		return err
	}
	d.cur, d.curSeg, d.curSize = f, seg, 0
	return nil
}

// roll closes the current segment and starts the next one. The sync here
// is unconditional — even under FsyncInterval/FsyncOff — and is a load-
// bearing recovery invariant: because no segment gains a successor until
// its bytes are durable, unsynced data (and so crash damage) can only
// ever live in the final segment, which is exactly where replaySegment
// is willing to truncate instead of failing.
func (d *Disk) roll() error {
	if err := d.cur.Sync(); err != nil {
		return fmt.Errorf("storage: sync WAL segment: %w", err)
	}
	if err := d.cur.Close(); err != nil {
		return fmt.Errorf("storage: close WAL segment: %w", err)
	}
	d.dirty = false
	d.opts.Metrics.observeRoll()
	return d.createSegment(d.curSeg + 1)
}

// Append implements Backend.
func (d *Disk) Append(rec Record) error {
	if d.closed {
		return ErrClosed
	}
	if m := d.opts.Metrics; m != nil {
		t0 := time.Now()
		defer func() { m.observeAppend(time.Since(t0).Nanoseconds()) }()
	}
	d.enc.Reset()
	d.enc.Uvarint(d.nextOrd)
	if err := encodeRecord(&d.enc, rec); err != nil {
		return err
	}
	payload := d.enc.Bytes()
	if len(payload) > maxFrameSize {
		return fmt.Errorf("storage: record of %d bytes exceeds frame limit", len(payload))
	}
	binary.LittleEndian.PutUint32(d.hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(d.hdr[4:8], crc32.Checksum(payload, crcTable))
	if _, err := d.cur.Write(d.hdr[:]); err != nil {
		return fmt.Errorf("storage: append WAL frame: %w", err)
	}
	if _, err := d.cur.Write(payload); err != nil {
		return fmt.Errorf("storage: append WAL frame: %w", err)
	}
	d.curSize += int64(8 + len(payload))
	d.dirty = true
	d.nextOrd++
	switch d.opts.Fsync {
	case FsyncAlways:
		if err := d.Sync(); err != nil {
			return err
		}
	case FsyncInterval:
		if now := time.Now(); now.Sub(d.lastSync) >= d.opts.Interval {
			if err := d.Sync(); err != nil {
				return err
			}
		}
	}
	if d.curSize >= d.opts.SegmentBytes {
		return d.roll()
	}
	return nil
}

// SaveSnapshot implements Backend. The segment is rolled first so the
// snapshot's replay range starts at a segment boundary; the snapshot file
// then lands via temp-write → fsync → rename → dir fsync, making it
// atomic with respect to crashes. Older snapshots beyond Keep are pruned.
func (d *Disk) SaveSnapshot(snap Snapshot) error {
	if d.closed {
		return ErrClosed
	}
	if m := d.opts.Metrics; m != nil {
		t0 := time.Now()
		defer func() { m.observeSnapshot(time.Since(t0).Nanoseconds()) }()
	}
	if err := d.roll(); err != nil {
		return err
	}
	segBase := d.curSeg

	d.enc.Reset()
	enc0 := time.Now()
	if err := encodeSnapshotBody(&d.enc, snap, segBase, d.nextOrd); err != nil {
		return err
	}
	d.opts.Metrics.observeSnapshotEncode(time.Since(enc0).Nanoseconds())
	body := d.enc.Bytes()
	var hdr [16]byte
	copy(hdr[:8], snapMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[12:16], crc32.Checksum(body, crcTable))

	final := d.snapPath(snap.Seq)
	tmp := final + snapTmp
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("storage: create snapshot temp: %w", err)
	}
	if _, err := f.Write(hdr[:]); err == nil {
		_, err = f.Write(body)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: write snapshot: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("storage: publish snapshot: %w", err)
	}
	if err := syncDir(d.snapDir); err != nil {
		return err
	}
	d.segBase = segBase
	d.snapBases[snap.Seq] = segBase
	d.pruneSnapshots()
	return nil
}

func (d *Disk) pruneSnapshots() {
	seqs, err := listNumbered(d.snapDir, snapSuffix, 16)
	if err != nil {
		return
	}
	for len(seqs) > d.opts.Keep {
		os.Remove(d.snapPath(seqs[0]))
		delete(d.snapBases, seqs[0])
		seqs = seqs[1:]
	}
}

// truncFloor is the WAL segment index below which no retained snapshot —
// including the fallback ones — needs records: the minimum segBase over
// the kept snapshot files. Truncating at the newest snapshot's base alone
// would strand a CRC-damaged-snapshot recovery with no log to replay.
func (d *Disk) truncFloor() uint64 {
	floor := d.segBase
	for _, base := range d.snapBases {
		if base < floor {
			floor = base
		}
	}
	return floor
}

// TruncateBefore implements Backend: deletes WAL segments wholly below
// every retained snapshot's segBase. The current segment is never deleted.
func (d *Disk) TruncateBefore(uint64) error {
	if d.closed {
		return ErrClosed
	}
	segs, err := listNumbered(d.walDir, walSuffix, 10)
	if err != nil {
		return err
	}
	floor := d.truncFloor()
	removed := false
	for _, s := range segs {
		if s < floor && s != d.curSeg {
			if err := os.Remove(d.segPath(s)); err != nil {
				return fmt.Errorf("storage: truncate WAL: %w", err)
			}
			removed = true
		}
	}
	if removed {
		return syncDir(d.walDir)
	}
	return nil
}

// Recover implements Backend, returning the result of the scan performed
// at OpenDisk.
func (d *Disk) Recover() (*Snapshot, []Record, error) {
	if d.closed {
		return nil, nil, ErrClosed
	}
	return d.recSnap, d.recTail, nil
}

// Sync implements Backend.
func (d *Disk) Sync() error {
	if d.closed {
		return ErrClosed
	}
	if !d.dirty {
		return nil
	}
	var t0 time.Time
	m := d.opts.Metrics
	if m != nil {
		t0 = time.Now()
	}
	if err := d.cur.Sync(); err != nil {
		return fmt.Errorf("storage: sync WAL: %w", err)
	}
	if m != nil {
		m.observeFsync(time.Since(t0).Nanoseconds())
	}
	d.dirty = false
	d.lastSync = time.Now()
	return nil
}

// Abandon releases the backend's file handles without any final flush —
// the in-process stand-in for a crash. What survives on disk is exactly
// what the configured fsync policy (plus the OS page cache, for an
// in-process "crash") already holds; restart tests reopen the directory
// to exercise the recovery path.
func (d *Disk) Abandon() {
	if d.closed {
		return
	}
	d.closed = true
	d.cur.Close()
}

// Close implements Backend.
func (d *Disk) Close() error {
	if d.closed {
		return nil
	}
	err := d.Sync()
	if cerr := d.cur.Close(); err == nil {
		err = cerr
	}
	d.closed = true
	return err
}

func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("storage: open dir for sync: %w", err)
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("storage: sync dir %s: %w", dir, err)
	}
	return nil
}
