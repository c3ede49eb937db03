package collector

import (
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"time"

	"vapro/internal/obs"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// Dialer produces a fresh connection to the collector. ResilientClient
// owns the full connection lifecycle through it: the first dial, every
// redial after a failure, and the backoff between attempts.
type Dialer func() (net.Conn, error)

// ResilientOptions tunes the fault-tolerant client.
type ResilientOptions struct {
	// BackoffBase is the delay before the second dial attempt; each
	// failure doubles it up to BackoffMax.
	BackoffBase time.Duration
	// BackoffMax caps the backoff delay.
	BackoffMax time.Duration
	// Jitter spreads each delay by ±Jitter (0.2 → ±20%) so a fleet of
	// ranks does not redial a restarted collector in lockstep.
	Jitter float64
	// MaxSpill bounds the disconnected-side queue in batches. When
	// full, the queue either migrates to the WAL (when one is attached)
	// or evicts its oldest batch not currently being written, counted
	// lost; the eviction surfaces server-side as a sequence gap.
	MaxSpill int
	// MaxSpillBytes additionally bounds the queue by encoded frame
	// bytes — a few huge frames can dwarf many small ones under the
	// entry cap alone. Zero means entries-only. Overflow behaves
	// exactly like MaxSpill overflow.
	MaxSpillBytes int64
	// WAL, when non-nil, is the client's spill-to-disk log: on queue
	// overflow the in-memory backlog migrates to it (and new frames
	// follow, preserving per-rank order) instead of being dropped, and
	// at Close still-queued frames are persisted for the next process
	// generation to replay. The client takes ownership — it installs
	// the log's drop hook and closes the log in Close. Records already
	// in the log at construction (a previous generation's leftovers)
	// are replayed through the writer before any new frame.
	WAL *wal.Log
	// WriteTimeout bounds each frame write so a stalled (accept-then-
	// hang) collector never blocks the application's flush path. Zero
	// disables the deadline. Deadlines are kernel-socket real time and
	// are not routed through Clock.
	WriteTimeout time.Duration
	// Clock drives backoff waits; tests inject a fake to replay exact
	// retry schedules with no real sleeps. Nil means wall clock.
	Clock Clock
	// Rand supplies jitter in [0,1); nil means math/rand. A constant
	// 0.5 makes the schedule deterministic.
	Rand func() float64
}

// DefaultResilientOptions returns the production tuning.
func DefaultResilientOptions() ResilientOptions {
	return ResilientOptions{
		BackoffBase:  50 * time.Millisecond,
		BackoffMax:   5 * time.Second,
		Jitter:       0.2,
		MaxSpill:     1024,
		WriteTimeout: 5 * time.Second,
	}
}

// spillEntry is one encoded frame awaiting delivery.
type spillEntry struct {
	rank    int
	buf     []byte
	key     obs.TraceKey // journey key of a sampled traced batch
	sampled bool
}

// ResilientStats is a point-in-time snapshot of the client's loss
// accounting. The core invariant, checked by the chaos soak: every
// consumed batch is either written to a connection (Sent), evicted or
// rejected by the bounded spill queue or reclaimed by WAL retention
// (Lost), discarded at Close (Abandoned), durable on disk awaiting the
// next generation (WALPending), or still queued —
// Consumed == Sent + Lost + Abandoned + WALPending + SpillDepth.
// Persisted counts the subset of WALPending written by Close.
type ResilientStats struct {
	Consumed      uint64
	Sent          uint64
	Lost          uint64
	Abandoned     uint64
	Persisted     uint64
	Dials         uint64
	Connects      uint64
	Reconnects    uint64
	WriteTimeouts uint64
	SpillDepth    int
	SpillPeak     int
	SpillBytes    int64
	WALPending    int
	WALBroken     bool
	LostByRank    map[int]uint64
}

// ResilientClient is the wire client: it implements interpose.Sink
// over framed connections it owns. It dials through a Dialer,
// reconnects with jittered exponential backoff, and absorbs outages in
// a bounded spill queue so Consume never blocks and never errors. Every
// frame carries a per-rank sequence number (wire format v2), which is
// what turns silent loss — spill evictions, frames torn by a dying
// connection — into exact server-side gap accounting.
//
// With a WAL attached the spill queue overflows to disk instead of
// dropping: the backlog migrates oldest-first, new frames follow it
// into the log while it drains (per-rank sequence order must stay
// non-decreasing at delivery, or the server's dedup would suppress
// frames that were never delivered), and a restarted process replays
// the log through the same writer — retransmits ride their original
// sequence numbers, so the server's tracker keeps
// consumed == delivered + gaps exact across client death. A failing
// disk degrades the client back to memory-only eviction; it never
// fails a flush.
//
// It is safe for any number of ranks: one client per traced process,
// shared by its ranks.
type ResilientClient struct {
	dial    Dialer
	opt     ResilientOptions
	clock   Clock
	rand    func() float64
	closeCh chan struct{}
	done    chan struct{}

	mu            sync.Mutex
	cond          *sync.Cond
	queue         []spillEntry
	inFlight      bool // the writer is mid-send of some frame
	inFlightMem   bool // ...and that frame is queue[0]; eviction must skip it
	conn          net.Conn
	closed        bool
	everConnected bool
	met           *Metrics

	// Spill-to-disk state. walMode: the log holds frames older than any
	// new consume, so new frames append there too until it drains.
	// preWalHead: queue[0] predates the log's content (it was mid-write
	// when the queue migrated) and must be sent before any log record.
	// walBroken: an append failed (disk full); the client degraded to
	// memory-only spill. walDead: a read failed; the log is abandoned
	// and its pending records were booked lost.
	walMode    bool
	preWalHead bool
	walBroken  bool
	walDead    bool

	// Batch provenance tracing: when enabled, every frame is encoded in
	// the traced wire variant (client id + flush ns), and sampled batches
	// get their flush/enqueue/write hops stamped into tracer.
	traceID uint64
	tracer  *obs.Trace

	seqs       map[int]uint64
	consumed   uint64
	sent       uint64
	lost       uint64
	abandoned  uint64
	persisted  uint64
	dials      uint64
	connects   uint64
	reconnects uint64
	timeouts   uint64
	spillPeak  int
	spillBytes int64
	lostByRank map[int]uint64
}

// NewResilientClient starts a client that ships batches through
// connections obtained from dial. The single writer goroutine runs
// until Close.
func NewResilientClient(dial Dialer, opt ResilientOptions) *ResilientClient {
	def := DefaultResilientOptions()
	if opt.BackoffBase <= 0 {
		opt.BackoffBase = def.BackoffBase
	}
	if opt.BackoffMax <= 0 {
		opt.BackoffMax = def.BackoffMax
	}
	if opt.MaxSpill <= 0 {
		opt.MaxSpill = def.MaxSpill
	}
	c := &ResilientClient{
		dial:       dial,
		opt:        opt,
		clock:      opt.Clock,
		rand:       opt.Rand,
		closeCh:    make(chan struct{}),
		done:       make(chan struct{}),
		seqs:       make(map[int]uint64),
		lostByRank: make(map[int]uint64),
	}
	if c.clock == nil {
		c.clock = realClock{}
	}
	if c.rand == nil {
		c.rand = rand.Float64
	}
	if opt.WAL != nil {
		opt.WAL.SetOnDrop(c.walDrop)
		if opt.WAL.Pending() > 0 {
			// A previous generation left frames behind: replay them
			// (oldest first, original sequence numbers) before anything
			// this generation consumes.
			c.walMode = true
		}
	}
	c.cond = sync.NewCond(&c.mu)
	go c.writeLoop()
	return c
}

// SetMetrics mirrors the client's counters into a collector metrics
// surface (layer "net"). Call before traffic for exact mirrors.
func (c *ResilientClient) SetMetrics(m *Metrics) {
	c.mu.Lock()
	c.met = m
	c.mu.Unlock()
}

// EnableTrace switches the client to the traced wire variant: every
// frame carries clientID and the flush wall time, and batches sampled
// by tr get flush/enqueue/write hops stamped into its exemplar ring.
// In-process deployments pass the server pool's tracer so one ring
// holds the whole journey; across processes the client uses its own
// ring and the server reconstructs flush→deliver from the wire context.
// Call before traffic.
func (c *ResilientClient) EnableTrace(clientID uint64, tr *obs.Trace) {
	c.mu.Lock()
	c.traceID = clientID
	c.tracer = tr
	c.mu.Unlock()
}

// walUsableLocked reports whether appends can still go to the log.
func (c *ResilientClient) walUsableLocked() bool {
	return c.opt.WAL != nil && !c.walBroken && !c.walDead
}

// walPendingLocked returns the log's unacknowledged record count (0
// when no usable log is attached).
func (c *ResilientClient) walPendingLocked() int {
	if c.opt.WAL == nil || c.walDead {
		return 0
	}
	return c.opt.WAL.Pending()
}

// walAppendLocked appends one frame to the log, degrading the client to
// memory-only spill on failure (disk full must not fail a flush).
func (c *ResilientClient) walAppendLocked(frame []byte) bool {
	if err := c.opt.WAL.Append(frame); err != nil {
		c.walBroken = true
		return false
	}
	return true
}

// walDrop books frames reclaimed by the log's retention as exact
// per-rank losses. It runs synchronously inside a WAL append, and every
// WAL append happens with c.mu held, so the client state is ours.
func (c *ResilientClient) walDrop(payloads [][]byte) {
	for _, frame := range payloads {
		rank := -1 // undecodable frames book against the unknown rank
		if _, n := binary.Uvarint(frame); n > 0 {
			if meta, _, err := trace.DecodeBatchMeta(frame[n:]); err == nil {
				rank = meta.Rank
			}
		}
		c.loseLocked(rank)
	}
}

// overLimitLocked reports whether admitting sz more bytes would push
// the in-memory queue past either spill bound.
func (c *ResilientClient) overLimitLocked(sz int64) bool {
	if len(c.queue) >= c.opt.MaxSpill {
		return true
	}
	return c.opt.MaxSpillBytes > 0 && c.spillBytes+sz > c.opt.MaxSpillBytes
}

// Consume implements interpose.Sink: it stamps the batch with the
// rank's next sequence number, encodes it, and enqueues it for the
// writer. It never blocks on the network. On overflow the queue
// migrates to the WAL when one is attached; otherwise the oldest batch
// not in flight is evicted (or, when nothing is evictable, the new
// batch is rejected) and counted lost.
func (c *ResilientClient) Consume(rank int, frags []trace.Fragment) {
	c.mu.Lock()
	defer c.mu.Unlock()
	seq := c.seqs[rank]
	c.seqs[rank] = seq + 1
	c.consumed++
	if c.closed {
		c.abandoned++
		return
	}
	ent := spillEntry{rank: rank}
	if c.tracer != nil {
		flushNS := c.clock.Now().UnixNano()
		ent.buf = encodeFrameTraced(rank, seq, c.traceID, flushNS, frags)
		if c.tracer.Sample(seq) {
			ent.key = obs.TraceKey{ClientID: c.traceID, Seq: seq}
			ent.sampled = true
			c.tracer.Record(ent.key, rank, flushNS, obs.HopFlush)
			c.tracer.Record(ent.key, rank, flushNS, obs.HopEnqueue)
		}
	} else {
		ent.buf = encodeFrame(rank, seq, frags)
	}
	sz := int64(len(ent.buf))

	if c.walMode && c.walUsableLocked() {
		// Disk mode: the log holds older frames, so this one must land
		// behind them. A failed append flips walBroken and falls through
		// to the memory path — still behind the log's content, because
		// the writer drains the log before the queue.
		if c.walAppendLocked(ent.buf) {
			c.noteDepthLocked()
			c.cond.Signal()
			return
		}
	}

	if c.overLimitLocked(sz) && c.walUsableLocked() {
		// Overflow with a WAL: migrate the backlog (minus any frame the
		// writer holds mid-send) to disk oldest-first, then follow it.
		start := 0
		if c.inFlightMem {
			start = 1
		}
		moved := 0
		for _, e := range c.queue[start:] {
			if !c.walAppendLocked(e.buf) {
				break
			}
			c.spillBytes -= int64(len(e.buf))
			moved++
		}
		if moved > 0 || len(c.queue) == start {
			c.walMode = true
			c.preWalHead = c.inFlightMem
		}
		c.queue = append(c.queue[:start], c.queue[start+moved:]...)
		if c.walUsableLocked() && c.walAppendLocked(ent.buf) {
			c.noteDepthLocked()
			c.cond.Signal()
			return
		}
		// Disk filled mid-migration; whatever moved is safe. The new
		// frame competes for memory below.
	}

	for c.overLimitLocked(sz) {
		start := 0
		if c.inFlightMem {
			start = 1
		}
		if len(c.queue) <= start {
			// Nothing evictable (the only queued batch is mid-write, or
			// the frame alone exceeds the byte bound): reject the
			// newcomer. Its sequence number is already burned, so the
			// server sees this loss as a gap like any eviction.
			c.loseLocked(rank)
			return
		}
		victim := c.queue[start]
		c.loseLocked(victim.rank)
		c.spillBytes -= int64(len(victim.buf))
		c.queue = append(c.queue[:start], c.queue[start+1:]...)
	}
	c.queue = append(c.queue, ent)
	c.spillBytes += sz
	c.noteDepthLocked()
	c.cond.Signal()
}

// loseLocked books one lost batch for rank. Caller holds mu.
func (c *ResilientClient) loseLocked(rank int) {
	c.lost++
	c.lostByRank[rank]++
	if c.met != nil {
		c.met.NetBatchesLost.Inc()
	}
}

// noteDepthLocked refreshes the spill gauges. Caller holds mu.
func (c *ResilientClient) noteDepthLocked() {
	d := len(c.queue)
	if d > c.spillPeak {
		c.spillPeak = d
	}
	if c.met != nil {
		c.met.NetSpillDepth.Set(int64(d))
		c.met.NetSpillPeak.Set(int64(c.spillPeak))
		c.met.NetSpillBytes.Set(c.spillBytes)
	}
}

// encodeFrame builds a length-prefixed wire frame around a sequenced
// batch encoding.
func encodeFrame(rank int, seq uint64, frags []trace.Fragment) []byte {
	buf := make([]byte, binary.MaxVarintLen64, binary.MaxVarintLen64+64+len(frags)*32)
	buf = trace.AppendBatchSeq(buf, rank, seq, frags)
	return prefixFrame(buf)
}

// encodeFrameTraced is encodeFrame for the traced (v4) wire variant.
func encodeFrameTraced(rank int, seq, clientID uint64, flushNS int64, frags []trace.Fragment) []byte {
	buf := make([]byte, binary.MaxVarintLen64, binary.MaxVarintLen64+64+len(frags)*32)
	buf = trace.AppendBatchTraced(buf, rank, seq, clientID, flushNS, frags)
	return prefixFrame(buf)
}

// prefixFrame turns a batch encoded after MaxVarintLen64 reserved bytes
// into a length-prefixed frame, reusing the reserved prefix.
func prefixFrame(buf []byte) []byte {
	payload := len(buf) - binary.MaxVarintLen64
	var hdr [binary.MaxVarintLen64]byte
	hn := binary.PutUvarint(hdr[:], uint64(payload))
	frame := buf[binary.MaxVarintLen64-hn:]
	copy(frame, hdr[:hn])
	return frame
}

// nextFrameLocked picks the next frame to send, honoring age order:
// the pre-WAL head first, then the log, then the memory queue. fromWAL
// reports the frame came from the log (acknowledge after send). ok is
// false when a race drained everything between the wait and here.
func (c *ResilientClient) nextFrameLocked() (head spillEntry, fromWAL, ok bool) {
	if len(c.queue) > 0 && (c.preWalHead || c.walPendingLocked() == 0) {
		c.inFlightMem = true
		return c.queue[0], false, true
	}
	if c.walPendingLocked() > 0 {
		payload, err := c.opt.WAL.Next()
		if err != nil {
			c.walFailLocked()
			return spillEntry{}, false, false
		}
		if payload == nil {
			return spillEntry{}, false, false
		}
		return spillEntry{rank: -1, buf: payload}, true, true
	}
	return spillEntry{}, false, false
}

// walFailLocked abandons an unreadable log: its pending records can
// never be delivered, so they are booked lost in bulk (their ranks are
// unrecoverable without the bytes that just failed to read).
func (c *ResilientClient) walFailLocked() {
	n := uint64(c.opt.WAL.Pending())
	c.lost += n
	if c.met != nil && n > 0 {
		c.met.NetBatchesLost.Add(n)
	}
	c.walDead = true
	c.walMode = false
	c.preWalHead = false
}

// writeLoop is the single writer: it drains the spill queue (and the
// WAL, oldest first) in order, (re)connecting as needed. A frame is
// popped — or its log record acknowledged — only after its write fully
// succeeds, so a connection that dies mid-frame retransmits the same
// frame on the next connection — safe, because the server rejects the
// torn copy, and duplicate-safe for timeout retries because the server
// dedups by sequence number.
func (c *ResilientClient) writeLoop() {
	defer close(c.done)
	for {
		c.mu.Lock()
		for len(c.queue) == 0 && c.walPendingLocked() == 0 && !c.closed {
			c.cond.Wait()
		}
		if c.closed {
			c.shutdownLocked()
			c.mu.Unlock()
			return
		}
		head, fromWAL, ok := c.nextFrameLocked()
		if !ok {
			c.mu.Unlock()
			continue
		}
		c.inFlight = true
		frame := head.buf
		conn := c.conn
		c.mu.Unlock()

		if conn == nil {
			if conn = c.connect(); conn == nil {
				continue // closed during backoff; loop top persists/abandons
			}
		}
		if c.opt.WriteTimeout > 0 {
			_ = conn.SetWriteDeadline(time.Now().Add(c.opt.WriteTimeout))
		}
		_, err := conn.Write(frame)

		c.mu.Lock()
		c.inFlight = false
		if err == nil {
			if fromWAL {
				c.opt.WAL.Ack()
				if c.walPendingLocked() == 0 {
					// The log drained: exit disk mode; new frames queue in
					// memory again.
					c.walMode = false
				}
			} else {
				c.queue = c.queue[1:]
				c.spillBytes -= int64(len(frame))
				c.inFlightMem = false
				c.preWalHead = false
			}
			c.sent++
			if c.met != nil {
				c.met.NetBatchesSent.Inc()
			}
			if head.sampled && c.tracer != nil {
				// enqueue→write is the spill/redial dwell.
				c.tracer.Record(head.key, head.rank, 0, obs.HopWrite)
			}
			c.noteDepthLocked()
			c.mu.Unlock()
			continue
		}
		c.inFlightMem = false
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			c.timeouts++
			if c.met != nil {
				c.met.NetWriteTimeouts.Inc()
			}
		}
		c.conn = nil
		c.mu.Unlock()
		conn.Close()
		// The head frame stays queued (or unacknowledged in the log) and
		// is retried on a new connection.
	}
}

// shutdownLocked disposes of the backlog at close: with a usable WAL
// the queue is persisted for the next generation to replay; without
// one (or when the disk is failing) it is counted abandoned, not
// silently dropped. The pre-WAL head is never persisted — it is older
// than the log's content, and an out-of-order replay would be
// dedup-suppressed server-side instead of delivered.
func (c *ResilientClient) shutdownLocked() {
	walOK := c.walUsableLocked()
	for i, e := range c.queue {
		if i == 0 && c.preWalHead {
			c.abandoned++
			continue
		}
		if walOK {
			if c.walAppendLocked(e.buf) {
				c.persisted++
				continue
			}
			walOK = false
		}
		c.abandoned++
	}
	c.queue = nil
	c.spillBytes = 0
	c.noteDepthLocked()
}

// connect dials with jittered exponential backoff until it succeeds or
// the client closes. It returns the new connection, or nil when closed.
func (c *ResilientClient) connect() net.Conn {
	delay := c.opt.BackoffBase
	for {
		select {
		case <-c.closeCh:
			return nil
		default:
		}
		c.mu.Lock()
		c.dials++
		met := c.met
		c.mu.Unlock()
		if met != nil {
			met.NetDials.Inc()
		}
		conn, err := c.dial()
		if err == nil {
			c.mu.Lock()
			if c.closed {
				c.mu.Unlock()
				conn.Close()
				return nil
			}
			c.conn = conn
			c.connects++
			again := c.everConnected
			c.everConnected = true
			if again {
				c.reconnects++
			}
			c.mu.Unlock()
			if met != nil {
				met.NetConnects.Inc()
				if again {
					met.NetReconnects.Inc()
				}
			}
			return conn
		}
		d := delay
		if j := c.opt.Jitter; j > 0 {
			d = time.Duration(float64(d) * (1 + j*(2*c.rand()-1)))
		}
		select {
		case <-c.clock.After(d):
		case <-c.closeCh:
			return nil
		}
		delay *= 2
		if delay > c.opt.BackoffMax {
			delay = c.opt.BackoffMax
		}
	}
}

// Drain blocks until the spill queue and the WAL are empty (every
// consumed batch sent or already counted lost) or timeout elapses,
// reporting success. Call before Close for a graceful shutdown with
// zero abandonment.
func (c *ResilientClient) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		c.mu.Lock()
		empty := len(c.queue) == 0 && !c.inFlight && c.walPendingLocked() == 0
		c.mu.Unlock()
		if empty {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops the writer and closes any live connection. With a WAL
// attached, still-queued batches are persisted to it (and the log
// synced and closed) so the next generation replays them; without one
// they are counted abandoned, not silently dropped. Use Drain first to
// deliver them instead.
func (c *ResilientClient) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.closeCh)
	conn := c.conn
	c.conn = nil
	c.cond.Broadcast()
	c.mu.Unlock()
	if conn != nil {
		conn.Close() // unblock an in-flight write
	}
	<-c.done
	if c.opt.WAL != nil {
		_ = c.opt.WAL.Close()
	}
	return nil
}

// Stats snapshots the loss accounting.
func (c *ResilientClient) Stats() ResilientStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	by := make(map[int]uint64, len(c.lostByRank))
	for r, n := range c.lostByRank {
		by[r] = n
	}
	return ResilientStats{
		Consumed:      c.consumed,
		Sent:          c.sent,
		Lost:          c.lost,
		Abandoned:     c.abandoned,
		Persisted:     c.persisted,
		Dials:         c.dials,
		Connects:      c.connects,
		Reconnects:    c.reconnects,
		WriteTimeouts: c.timeouts,
		SpillDepth:    len(c.queue),
		SpillPeak:     c.spillPeak,
		SpillBytes:    c.spillBytes,
		WALPending:    c.walPendingLocked(),
		WALBroken:     c.walBroken || c.walDead,
		LostByRank:    by,
	}
}
