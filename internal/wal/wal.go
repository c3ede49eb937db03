// Package wal implements the segmented write-ahead log behind Vapro's
// durability plane. Both ends of the collection path use the same log:
// ResilientClient spills overflowing wire frames to disk and replays
// them through its writer on restart, and the collector journals every
// delivered frame so a restarted server rebuilds fragment logs,
// sequence-tracker state, and generation watermarks by replay — and so
// `vapro analyze -journal` can re-run window analysis over any recorded
// interval long after the run.
//
// Layout: a directory of segment files `wal-%08d.seg`, each a 13-byte
// header (magic, version, creation time) followed by CRC32-C framed
// records (trace.AppendRecord). The active (highest-numbered) segment
// takes appends; rotation seals it at SegmentBytes. Recovery scans
// every segment in order and truncates each at its last whole, checksum-
// valid record — a torn tail from a crash mid-write costs at most the
// record being written, never the segment. Retention reclaims whole
// sealed segments oldest-first when the log exceeds MaxBytes or MaxAge;
// records reclaimed before they were consumed are surfaced through
// OnDrop so the owner can book the loss exactly instead of discovering
// it later as an unexplained gap.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vapro/internal/trace"
)

// SyncPolicy says when the log calls fsync. Durability is a spectrum
// the deployment picks: every record (each append survives power loss),
// every rotation (at most one segment of appends at risk), or never
// (the OS page cache decides; process death is still safe because the
// kernel holds the bytes).
type SyncPolicy int

// Sync policies.
const (
	// SyncRotate fsyncs a segment as it is sealed and on explicit Sync —
	// the default: process crashes lose nothing, power loss at most the
	// active segment.
	SyncRotate SyncPolicy = iota
	// SyncEach fsyncs after every append.
	SyncEach
	// SyncNever leaves flushing to the OS entirely.
	SyncNever
)

// Options tunes a Log. The zero value is usable.
type Options struct {
	// SegmentBytes is the rotation threshold; a segment is sealed once
	// it reaches it. Default 4 MiB. A single record larger than the
	// threshold still gets written (alone in its segment).
	SegmentBytes int64
	// MaxBytes bounds the whole log; when exceeded, sealed segments are
	// reclaimed oldest-first (the active segment is never reclaimed).
	// 0 means unbounded.
	MaxBytes int64
	// MaxAge reclaims sealed segments created longer than this ago.
	// 0 means unbounded.
	MaxAge time.Duration
	// Sync is the fsync policy.
	Sync SyncPolicy
	// SyncFn replaces the fsync call; tests inject failures or count
	// calls. Nil means (*os.File).Sync.
	SyncFn func(*os.File) error
	// Now supplies segment creation timestamps (age-based retention);
	// nil means time.Now. Injectable for deterministic retention tests.
	Now func() time.Time
	// WriteErr, when non-nil, is consulted before every disk write; a
	// non-nil return fails the append as if the disk had (fault
	// injection for disk-full paths).
	WriteErr func() error
	// OnDrop receives the payloads of records reclaimed by retention
	// before the consumer acknowledged them, in log order, so the owner
	// can book each loss exactly. Called synchronously under the log
	// lock from Append. Nil skips decoding the reclaimed records.
	OnDrop func(payloads [][]byte)
	// Metrics, when non-nil, mirrors the log's state into an
	// observability surface.
	Metrics *Metrics
}

// Segment file format.
const (
	segSuffix     = ".seg"
	segPrefix     = "wal-"
	segVersion    = 1
	segHeaderSize = 4 + 1 + 8 // magic, version, created unix nanos

	// cursorFile persists the consume position (segment index + byte
	// offset) as one CRC-framed record, rewritten in place on every Ack
	// without fsync: process death cannot lose it (the kernel holds the
	// bytes), and a torn write from power loss fails the CRC, falling
	// back to replaying everything — at-least-once, never lossy.
	cursorFile = "cursor"
)

var segMagic = [4]byte{'V', 'W', 'A', 'L'}

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: log closed")

// segment is one on-disk segment's bookkeeping.
type segment struct {
	path    string
	index   uint64
	size    int64 // file bytes including header
	records int
	created int64 // unix nanos from the header
}

// Stats is a point-in-time snapshot of a log.
type Stats struct {
	Segments  int
	Bytes     int64 // on-disk bytes across all segments
	Pending   int   // appended records not yet acknowledged
	Appended  uint64
	Truncated uint64 // recovery truncations (torn/corrupt tails cut)
	Dropped   uint64 // unconsumed records reclaimed by retention
	Reclaimed uint64 // sealed segments removed by retention
	OldestAge time.Duration
}

// Log is a segmented write-ahead log. All methods are safe for
// concurrent use; the append path and the cursor path may run from
// different goroutines.
type Log struct {
	dir string
	opt Options

	mu      sync.Mutex
	segs    []*segment
	active  *os.File
	pending int
	closed  bool
	// rec is Append's record buffer, reused under mu: the file write
	// does not keep it.
	rec []byte

	// Cursor state: the consumer reads records through Next (peek) and
	// Ack (consume). curSeg indexes segs; curOff is the byte offset of
	// the next unacked record inside that segment's record area; curBuf
	// caches the segment's record bytes, extended as the active segment
	// grows under the cursor.
	curSeg  int
	curOff  int64
	curBuf  []byte
	cursor  *os.File // cursorFile handle, rewritten in place on Ack
	peek    []byte
	peekEnd int64
	// peekDetached marks a peeked record whose segment retention
	// reclaimed mid-flight: the consumer still holds the payload (the
	// peek reference keeps the bytes alive), but the log no longer
	// tracks the record on disk. It stays pending until Ack so a failed
	// send still retries it from the cached peek.
	peekDetached bool

	appended  uint64
	truncated uint64
	dropped   uint64
	reclaimed uint64
}

// Open opens (creating if needed) the log in dir and recovers it:
// every segment is scanned and truncated at its last whole record, so
// a crash mid-append never poisons recovery. Records after the
// persisted consume cursor are pending; the cursor itself is
// best-effort (rewritten on every Ack, no fsync), so a machine crash
// can resurface a just-acked suffix — at-least-once, and the
// collector's sequence dedup makes the re-delivery harmless. It can
// never resurface records from before the last durable cursor write,
// which is what keeps a restarted client from replaying its very first
// frames and masquerading as a fresh sequence generation.
func Open(dir string, opt Options) (*Log, error) {
	if opt.SegmentBytes <= 0 {
		opt.SegmentBytes = 4 << 20
	}
	if opt.Now == nil {
		opt.Now = time.Now
	}
	if opt.SyncFn == nil {
		opt.SyncFn = func(f *os.File) error { return f.Sync() }
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{dir: dir, opt: opt}
	if err := l.recover(); err != nil {
		return nil, err
	}
	l.noteMetricsLocked()
	return l, nil
}

// recover scans the directory, truncates torn tails, counts records,
// and opens the newest segment for appending (creating the first
// segment when the directory is empty).
func (l *Log) recover() error {
	ents, err := os.ReadDir(l.dir)
	if err != nil {
		return err
	}
	var segs []*segment
	for _, ent := range ents {
		name := ent.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		idx, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 10, 64)
		if err != nil {
			continue
		}
		segs = append(segs, &segment{path: filepath.Join(l.dir, name), index: idx})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	for _, s := range segs {
		keep, err := l.recoverSegment(s)
		if err != nil {
			return err
		}
		if !keep {
			// Header never made it to disk — the segment held no records;
			// removing it is recovery, not loss.
			if err := os.Remove(s.path); err != nil {
				return err
			}
			continue
		}
		l.segs = append(l.segs, s)
		l.pending += s.records
	}
	cf, err := os.OpenFile(filepath.Join(l.dir, cursorFile), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	l.cursor = cf
	l.restoreCursor()
	if len(l.segs) == 0 {
		return l.openSegmentLocked(1)
	}
	last := l.segs[len(l.segs)-1]
	f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	l.active = f
	return nil
}

// restoreCursor positions the consume cursor from the persisted record
// and discounts the acked prefix from pending. A missing, torn, or
// stale cursor degrades to replay-from-start — extra re-delivery, never
// loss. Runs during recovery, before concurrent use.
func (l *Log) restoreCursor() {
	data, err := os.ReadFile(filepath.Join(l.dir, cursorFile))
	if err != nil || len(data) == 0 {
		return
	}
	payload, _, err := trace.DecodeRecord(data)
	if err != nil || len(payload) != 16 {
		return // torn or corrupt: fall back to full replay
	}
	segIdx := leUint64(payload[:8])
	off := int64(leUint64(payload[8:16]))
	for i, s := range l.segs {
		if s.index < segIdx {
			// Everything before the cursor's segment was consumed (the
			// segment itself may have been deleted on full ack).
			l.pending -= s.records
			l.curSeg = i + 1
			continue
		}
		if s.index > segIdx {
			// The cursor's segment is gone (fully acked and deleted, or
			// reclaimed with its drops already booked live): resume at
			// the first surviving segment after it.
			l.curOff = 0
			return
		}
		// Snap the offset to a record boundary no later than off — a
		// recovery truncation can only have cut unsynced tail bytes, so
		// the acked region survives intact.
		l.curSeg = i
		consumed := l.recordsBeforeLocked(s, off)
		l.curOff = l.recordOffsetLocked(s, consumed)
		l.pending -= consumed
		return
	}
	// Cursor beyond every surviving segment (directory rewound under
	// us): park at the end of the last one so new appends — which land
	// in it or after it — stay visible to Next.
	if len(l.segs) > 0 {
		l.curSeg = len(l.segs) - 1
		l.curOff = l.segs[l.curSeg].size - segHeaderSize
	} else {
		l.curSeg, l.curOff = 0, 0
	}
}

// recordOffsetLocked returns the byte offset of record n in seg's
// record area (0 ≤ n ≤ seg.records).
func (l *Log) recordOffsetLocked(seg *segment, n int) int64 {
	if n == 0 {
		return 0
	}
	buf, err := l.loadSegLocked(seg)
	if err != nil {
		return 0
	}
	off := int64(0)
	for i := 0; i < n && off < int64(len(buf)); i++ {
		_, rn, err := trace.DecodeRecord(buf[off:])
		if err != nil {
			break
		}
		off += int64(rn)
	}
	return off
}

// recoverSegment validates s's header, counts whole records, and
// truncates the file at the first torn or corrupt one. keep=false means
// the file has no valid header and should be removed.
func (l *Log) recoverSegment(s *segment) (keep bool, err error) {
	data, err := os.ReadFile(s.path)
	if err != nil {
		return false, err
	}
	if len(data) < segHeaderSize || [4]byte(data[:4]) != segMagic || data[4] != segVersion {
		return false, nil
	}
	s.created = int64(leUint64(data[5:13]))
	valid := int64(segHeaderSize)
	rest := data[segHeaderSize:]
	for len(rest) > 0 {
		_, n, err := trace.DecodeRecord(rest)
		if err != nil {
			break
		}
		valid += int64(n)
		rest = rest[n:]
		s.records++
	}
	if valid < int64(len(data)) {
		if err := os.Truncate(s.path, valid); err != nil {
			return false, err
		}
		l.truncated++
		if l.opt.Metrics != nil {
			l.opt.Metrics.Truncated.Inc()
		}
	}
	s.size = valid
	return true, nil
}

// openSegmentLocked creates and activates segment idx. Caller holds mu
// (or is the constructor).
func (l *Log) openSegmentLocked(idx uint64) error {
	path := filepath.Join(l.dir, fmt.Sprintf("%s%08d%s", segPrefix, idx, segSuffix))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	created := l.opt.Now().UnixNano()
	hdr := make([]byte, 0, segHeaderSize)
	hdr = append(hdr, segMagic[:]...)
	hdr = append(hdr, segVersion)
	hdr = appendLEUint64(hdr, uint64(created))
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	l.active = f
	l.segs = append(l.segs, &segment{path: path, index: idx, size: segHeaderSize, created: created})
	return nil
}

// SetOnDrop replaces the retention-drop hook. The spill-WAL owner
// (ResilientClient) installs its loss-booking callback here because the
// log is opened before the client that owns it exists.
func (l *Log) SetOnDrop(fn func(payloads [][]byte)) {
	l.mu.Lock()
	l.opt.OnDrop = fn
	l.mu.Unlock()
}

// Append durably appends one payload. On error the payload is NOT in
// the log (a partially written record is cut by the next recovery), so
// the caller still owns it and can fall back to memory-only handling.
func (l *Log) Append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.opt.WriteErr != nil {
		if err := l.opt.WriteErr(); err != nil {
			l.countErrLocked()
			return err
		}
	}
	l.rec = trace.AppendRecord(l.rec[:0], payload)
	rec := l.rec
	cur := l.segs[len(l.segs)-1]
	if cur.records > 0 && cur.size+int64(len(rec)) > l.opt.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			l.countErrLocked()
			return err
		}
		cur = l.segs[len(l.segs)-1]
	}
	if _, err := l.active.Write(rec); err != nil {
		l.countErrLocked()
		return err
	}
	cur.size += int64(len(rec))
	cur.records++
	l.pending++
	l.appended++
	if m := l.opt.Metrics; m != nil {
		m.Appended.Inc()
		m.AppendedBytes.Add(uint64(len(rec)))
	}
	if l.opt.Sync == SyncEach {
		l.fsyncLocked()
	}
	l.enforceRetentionLocked()
	l.noteMetricsLocked()
	return nil
}

// rotateLocked seals the active segment and opens the next one.
func (l *Log) rotateLocked() error {
	if l.opt.Sync != SyncNever {
		l.fsyncLocked()
	}
	if err := l.active.Close(); err != nil {
		return err
	}
	l.active = nil
	next := l.segs[len(l.segs)-1].index + 1
	return l.openSegmentLocked(next)
}

// fsyncLocked syncs the active segment, timing the call.
func (l *Log) fsyncLocked() {
	start := time.Now()
	err := l.opt.SyncFn(l.active)
	if m := l.opt.Metrics; m != nil {
		m.Fsyncs.Inc()
		m.FsyncNS.Observe(time.Since(start).Nanoseconds())
		if err != nil {
			m.Errors.Inc()
		}
	}
}

// countErrLocked bumps the error counter.
func (l *Log) countErrLocked() {
	if m := l.opt.Metrics; m != nil {
		m.Errors.Inc()
	}
}

// enforceRetentionLocked reclaims sealed segments oldest-first while
// the log exceeds its byte or age budget. Unconsumed records inside a
// reclaimed segment are handed to OnDrop — loss by retention is booked,
// never silent.
func (l *Log) enforceRetentionLocked() {
	for len(l.segs) > 1 {
		oldest := l.segs[0]
		over := false
		if l.opt.MaxBytes > 0 && l.totalBytesLocked() > l.opt.MaxBytes {
			over = true
		}
		if !over && l.opt.MaxAge > 0 && l.opt.Now().UnixNano()-oldest.created > l.opt.MaxAge.Nanoseconds() {
			over = true
		}
		if !over {
			return
		}
		l.reclaimOldestLocked()
	}
}

// reclaimOldestLocked removes segs[0], booking any unacked records in
// it as dropped.
func (l *Log) reclaimOldestLocked() {
	oldest := l.segs[0]
	if l.curSeg == 0 {
		// The cursor sits inside the reclaimed segment: its unread
		// records are lost to retention — except a record the consumer
		// peeked and may be writing out right now. That one detaches
		// instead (the peek reference keeps its bytes alive) and settles
		// on Ack or retry; booking it dropped here would let one frame
		// count both sent and lost. A record that detached in an earlier
		// reclaim stays the consumer's; the current segs[0] then holds
		// only records the cursor never reached.
		off := l.curOff
		if l.peek != nil && !l.peekDetached {
			off = l.peekEnd
			l.peekDetached = true
		}
		unread := oldest.records - l.recordsBeforeLocked(oldest, off)
		if unread > 0 {
			if l.opt.OnDrop != nil {
				if payloads := l.unreadPayloadsLocked(oldest, off); len(payloads) > 0 {
					l.opt.OnDrop(payloads)
				}
			}
			l.pending -= unread
			l.dropped += uint64(unread)
			if m := l.opt.Metrics; m != nil {
				m.Dropped.Add(uint64(unread))
			}
		}
		l.curOff = 0
		l.curBuf = nil
	} else {
		l.curSeg--
	}
	os.Remove(oldest.path)
	l.segs = l.segs[1:]
	l.reclaimed++
	if m := l.opt.Metrics; m != nil {
		m.Reclaimed.Inc()
	}
}

// recordsBeforeLocked counts whole records before byte offset upto in
// seg's record area — i.e. records the consumer already passed.
func (l *Log) recordsBeforeLocked(seg *segment, upto int64) int {
	if upto == 0 {
		return 0
	}
	buf, err := l.loadSegLocked(seg)
	if err != nil {
		return 0
	}
	n, off := 0, int64(0)
	for off < upto && off < int64(len(buf)) {
		_, rn, err := trace.DecodeRecord(buf[off:])
		if err != nil {
			break
		}
		off += int64(rn)
		n++
	}
	return n
}

// unreadPayloadsLocked decodes the records at and after byte offset
// from in seg, copying each payload (the backing buffer is about to go
// away).
func (l *Log) unreadPayloadsLocked(seg *segment, from int64) [][]byte {
	buf, err := l.loadSegLocked(seg)
	if err != nil {
		return nil
	}
	var out [][]byte
	off := from
	for off < int64(len(buf)) {
		payload, n, err := trace.DecodeRecord(buf[off:])
		if err != nil {
			break
		}
		cp := make([]byte, len(payload))
		copy(cp, payload)
		out = append(out, cp)
		off += int64(n)
	}
	return out
}

// loadSegLocked reads seg's record area from disk.
func (l *Log) loadSegLocked(seg *segment) ([]byte, error) {
	data, err := os.ReadFile(seg.path)
	if err != nil {
		return nil, err
	}
	if len(data) < segHeaderSize {
		return nil, nil
	}
	return data[segHeaderSize:], nil
}

// extendSeg appends to buf, which caches a prefix of seg's record
// area, the bytes from len(buf) up to the segment's recorded size,
// reading only that tail from disk. It never writes below len(buf), so
// a payload Next handed out of the cache stays intact until Ack,
// whether the cache grows in place or moves. A move at least doubles
// the capacity, so a segment drained record by record as it is written
// costs O(segment) allocation, not O(segment) per record.
func extendSeg(seg *segment, buf []byte) ([]byte, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	have, need := len(buf), int(seg.size-segHeaderSize)
	if need > cap(buf) {
		grown := make([]byte, have, max(need, 2*cap(buf)))
		copy(grown, buf)
		buf = grown
	}
	buf = buf[:need]
	if _, err := f.ReadAt(buf[have:], segHeaderSize+int64(have)); err != nil {
		return buf[:have], err
	}
	return buf, nil
}

// totalBytesLocked sums on-disk segment sizes.
func (l *Log) totalBytesLocked() int64 {
	var n int64
	for _, s := range l.segs {
		n += s.size
	}
	return n
}

// Next peeks the oldest unacknowledged record's payload, or (nil, nil)
// when none is pending. Repeated calls without Ack return the same
// record. The returned slice is owned by the log until Ack.
func (l *Log) Next() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil, ErrClosed
	}
	if l.peek != nil {
		return l.peek, nil
	}
	for {
		if l.curSeg >= len(l.segs) {
			return nil, nil
		}
		seg := l.segs[l.curSeg]
		recArea := seg.size - segHeaderSize
		if l.curOff >= recArea {
			if l.curSeg == len(l.segs)-1 {
				return nil, nil // caught up with the active segment
			}
			l.curSeg++
			l.curOff = 0
			l.curBuf = nil
			continue
		}
		// Extend the cached buffer if the segment grew under the cursor
		// (only the active segment does).
		if int64(len(l.curBuf)) < recArea {
			buf, err := extendSeg(seg, l.curBuf)
			if err != nil {
				l.countErrLocked()
				return nil, err
			}
			l.curBuf = buf
		}
		payload, n, err := trace.DecodeRecord(l.curBuf[l.curOff:])
		if err != nil {
			// A record that recovered clean but reads torn now means the
			// disk changed underneath us; treat the rest of this segment
			// as consumed rather than spinning.
			l.countErrLocked()
			return nil, err
		}
		l.peek = payload
		l.peekEnd = l.curOff + int64(n)
		return payload, nil
	}
}

// Ack consumes the record last returned by Next. Sealed segments whose
// records are all acknowledged are deleted on the spot — successful
// delivery reclaims disk without waiting for retention.
func (l *Log) Ack() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.peek == nil {
		return
	}
	if l.peekDetached {
		// The record's segment was reclaimed mid-flight; the cursor
		// already points at the next surviving segment, so only the
		// pending count settles here.
		l.peek = nil
		l.peekDetached = false
		l.pending--
		l.persistCursorLocked()
		l.noteMetricsLocked()
		return
	}
	l.curOff = l.peekEnd
	l.peek = nil
	l.pending--
	seg := l.segs[l.curSeg]
	if l.curOff >= seg.size-segHeaderSize && l.curSeg < len(l.segs)-1 {
		os.Remove(seg.path)
		l.segs = append(l.segs[:l.curSeg], l.segs[l.curSeg+1:]...)
		l.curOff = 0
		l.curBuf = nil
	}
	l.persistCursorLocked()
	l.noteMetricsLocked()
}

// persistCursorLocked rewrites the cursor record in place: best-effort
// (a failed write only costs re-delivery on the next open) and never
// fsynced — see the cursorFile comment for the durability contract.
func (l *Log) persistCursorLocked() {
	if l.cursor == nil || l.curSeg >= len(l.segs) {
		return
	}
	payload := make([]byte, 0, 16)
	payload = appendLEUint64(payload, l.segs[l.curSeg].index)
	payload = appendLEUint64(payload, uint64(l.curOff))
	rec := trace.AppendRecord(make([]byte, 0, 32), payload)
	if _, err := l.cursor.WriteAt(rec, 0); err != nil {
		l.countErrLocked()
	}
}

// Pending returns how many appended records await acknowledgement.
func (l *Log) Pending() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.pending
}

// Replay streams every record currently in the log, oldest first,
// independent of the cursor. The journal recovery path runs it against
// a fresh pool; fn's payload aliases a per-segment buffer valid only
// during the call.
func (l *Log) Replay(fn func(payload []byte) error) error {
	l.mu.Lock()
	segs := make([]*segment, len(l.segs))
	copy(segs, l.segs)
	m := l.opt.Metrics
	l.mu.Unlock()
	if m != nil {
		m.ReplayActive.Set(1)
		defer m.ReplayActive.Set(0)
	}
	for _, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil {
			return err
		}
		if len(data) < segHeaderSize {
			continue
		}
		rest := data[segHeaderSize:]
		for len(rest) > 0 {
			payload, n, err := trace.DecodeRecord(rest)
			if err != nil {
				// Tail appended after recovery can only be torn by a
				// concurrent crash; stop cleanly at the last whole record.
				break
			}
			if err := fn(payload); err != nil {
				return err
			}
			if m != nil {
				m.Replayed.Inc()
			}
			rest = rest[n:]
		}
	}
	return nil
}

// Sync flushes the active segment to stable storage regardless of
// policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	start := time.Now()
	err := l.opt.SyncFn(l.active)
	if m := l.opt.Metrics; m != nil {
		m.Fsyncs.Inc()
		m.FsyncNS.Observe(time.Since(start).Nanoseconds())
		if err != nil {
			m.Errors.Inc()
		}
	}
	return err
}

// OldestAge returns how long ago the oldest segment still holding
// unacknowledged records was created (segment granularity), or zero
// when nothing is pending.
func (l *Log) OldestAge() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.pending == 0 || l.curSeg >= len(l.segs) {
		return 0
	}
	return time.Duration(l.opt.Now().UnixNano() - l.segs[l.curSeg].created)
}

// Stats snapshots the log.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Segments:  len(l.segs),
		Bytes:     l.totalBytesLocked(),
		Pending:   l.pending,
		Appended:  l.appended,
		Truncated: l.truncated,
		Dropped:   l.dropped,
		Reclaimed: l.reclaimed,
	}
	if l.pending > 0 && l.curSeg < len(l.segs) {
		st.OldestAge = time.Duration(l.opt.Now().UnixNano() - l.segs[l.curSeg].created)
	}
	return st
}

// Close flushes (per policy) and closes the log. Pending records stay
// on disk for the next Open.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	if l.opt.Sync != SyncNever {
		l.fsyncLocked()
	}
	if l.cursor != nil {
		l.cursor.Close()
		l.cursor = nil
	}
	err := l.active.Close()
	l.active = nil
	return err
}

// noteMetricsLocked refreshes the gauges.
func (l *Log) noteMetricsLocked() {
	if m := l.opt.Metrics; m != nil {
		m.Segments.Set(int64(len(l.segs)))
		m.Bytes.Set(l.totalBytesLocked())
		m.Pending.Set(int64(l.pending))
	}
}

// leUint64 / appendLEUint64 avoid importing encoding/binary for two
// fixed-width header fields.
func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func appendLEUint64(b []byte, v uint64) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}
