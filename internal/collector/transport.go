package collector

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"vapro/internal/obs"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// Wire transport: in the real deployment the client library ships
// fragment batches to the server processes over the management network.
// This file implements that path over net.Conn so the client/server
// split can run across real processes; the in-process Pool remains the
// default because the simulation runs everything in one address space.
//
// The stream is a sequence of frames: a uvarint payload length followed
// by one encoded batch — what ResilientClient writes (sequenced v2, or
// traced v4 with tracing on), or an older version, since the decoder
// reads v1–v4. The compact encoding is what the §6.2 storage accounting
// measures, so the transport ships exactly those bytes.

// maxFramePayload rejects absurd frame lengths (a corrupt or hostile
// stream must not OOM the server). 64 MiB is orders of magnitude above
// any real client batch at the measured ~10-30 bytes/fragment.
const maxFramePayload = 64 << 20

// frameReadChunk bounds how much serveConn grows its payload buffer per
// read, so allocation tracks bytes actually received rather than the
// claimed frame length.
const frameReadChunk = 1 << 20

// maxRetainedFrags bounds the decode buffer a connection keeps between
// frames (~18 MB of fragments): one oversized batch must not pin its
// worst case for the connection's lifetime.
const maxRetainedFrags = 64 << 10

// Batch is the transport unit: one client's buffered fragments.
type Batch struct {
	Rank      int
	Fragments []trace.Fragment
}

// The sink capabilities the delivery step probes for. Every sink takes
// Consume; each optional method set lets it take more of the step.

// sizedSink is implemented by sinks (Pool, Monitor) that can book an
// already-measured encoded size, so the wire server's decoded payload
// length feeds the §6.2 byte accounting directly instead of the sink
// re-encoding the batch just to measure it.
type sizedSink interface {
	ConsumeSized(rank int, frags []trace.Fragment, bytes int)
}

// tracedSink is implemented by sinks (Pool, Monitor, ShardSink) that
// carry a sampled batch's trace context through the intake path.
type tracedSink interface {
	ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc TraceCtx)
}

// seqStater is implemented by sinks (Pool, Monitor, ShardSink) that own
// a sequence tracker; the step feeds it so gap state survives server
// restarts.
type seqStater interface {
	SeqState() *SeqTracker
}

// metricsProvider is implemented by sinks (Pool, Monitor) that expose a
// collector metrics surface; the step counts frames into it so
// transport failures that are swallowed as connection kills still leave
// a visible trace.
type metricsProvider interface {
	Metrics() *Metrics
}

// journalProvider is implemented by sinks (Pool via AttachJournal, and
// the Monitor / ShardSink forwards) that carry a delivery journal. The
// probe runs at ServeWire time, so attach the journal before starting
// the server.
type journalProvider interface {
	Journal() *wal.Log
}

// helloProvider is implemented by sinks (ShardSink) that publish a
// shard map: the server writes one hello frame at the top of every
// accepted connection so the client learns the rank→server assignment
// and can redirect to its owner. Legacy sinks don't implement it and
// legacy clients never read from the connection, so the handshake is
// invisible to both.
type helloProvider interface {
	Hello() (version uint64, addrs []string, ok bool)
}

// delivery is one sink's probed capabilities and the
// observe→journal→deliver→count step every delivered frame takes, live
// off a connection (WireServer) or from disk (ReplayJournal).
type delivery struct {
	sink interface {
		Consume(rank int, frags []trace.Fragment)
	}
	sized  sizedSink     // non-nil when sink implements sizedSink
	traced tracedSink    // non-nil when sink implements tracedSink
	seq    *SeqTracker   // non-nil when sink implements seqStater
	hello  helloProvider // non-nil when sink implements helloProvider
	jour   *wal.Log      // non-nil when sink implements journalProvider
	met    *Metrics      // the sink's surface, else a standalone one

	// jmu serializes observe→journal→deliver across connections when a
	// journal is attached: the journal's record order must equal the
	// sequence tracker's decision order and the sink's delivery order,
	// or replay would rebuild a different state than the live run held.
	// Without a journal the path stays lock-free.
	jmu sync.Mutex
}

// probe reads sink's capabilities into d.
func (d *delivery) probe(sink interface {
	Consume(rank int, frags []trace.Fragment)
}) {
	d.sink = sink
	d.sized, _ = sink.(sizedSink)
	d.traced, _ = sink.(tracedSink)
	if ss, ok := sink.(seqStater); ok {
		d.seq = ss.SeqState()
	}
	if mp, ok := sink.(metricsProvider); ok {
		d.met = mp.Metrics()
	}
	d.hello, _ = sink.(helloProvider)
	if jp, ok := sink.(journalProvider); ok {
		d.jour = jp.Journal()
	}
	if d.met == nil {
		d.met = NewMetrics() // standalone counting surface
	}
}

// deliver runs one decoded frame's observe→journal→deliver→count step
// and reports whether the sink received the batch (false: a suppressed
// duplicate). With a journal attached the whole step is a single
// critical section across connections (jmu); without one only the
// tracker's own lock is involved.
func (d *delivery) deliver(meta trace.BatchMeta, frags []trace.Fragment, payload []byte) bool {
	if d.jour != nil {
		d.jmu.Lock()
		defer d.jmu.Unlock()
	}
	rank := meta.Rank
	if meta.HasSeq && d.seq != nil {
		// Sequence accounting: gaps are batches that died with a
		// connection or were evicted client-side; duplicates are
		// retransmits whose original arrived (e.g. a write deadline
		// fired on a live link) and must not be delivered twice.
		minStart, maxEnd := fragSpan(frags)
		deliver, gap := d.seq.Observe(rank, meta.Seq, minStart, maxEnd)
		if gap > 0 {
			d.met.WireSeqGaps.Add(gap)
		}
		if !deliver {
			d.met.WireDups.Inc()
			return false
		}
	}
	if d.jour != nil {
		// Journal the delivered payload before the sink sees it.
		// Duplicates never reach this point, so the journal holds
		// exactly the delivered stream. An append failure (disk full,
		// dead device) is counted by the log's own metrics and must not
		// kill the connection: durability degrades, ingestion keeps
		// serving.
		_ = d.jour.Append(payload)
	}
	if meta.HasTrace && d.traced != nil && d.met.Trace.Sample(meta.Seq) {
		// Sampled exemplar: stamp delivery and carry the provenance
		// context through staging and drain. The sampling decision is
		// derived from the sequence number alone, so the client that
		// stamped flush/enqueue/write picked the same batches.
		tc := TraceCtx{ClientID: meta.ClientID, Seq: meta.Seq, Rank: rank, FlushNS: meta.FlushNS}
		d.met.Trace.Record(tc.Key(), rank, meta.FlushNS, obs.HopDeliver)
		d.traced.ConsumeTraced(rank, frags, len(payload), tc)
	} else if d.sized != nil {
		d.sized.ConsumeSized(rank, frags, len(payload))
	} else {
		d.sink.Consume(rank, frags)
	}
	d.met.WireFrames.Inc()
	d.met.WireBytes.Add(uint64(len(payload)))
	return true
}

// WireServer accepts connections and feeds decoded batches into a sink
// (normally a Pool or Monitor).
type WireServer struct {
	ln net.Listener
	delivery
	wg sync.WaitGroup

	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	drain   time.Duration
	batches int
	err     error
}

// defaultDrainTimeout bounds Close's wait for in-flight connections.
const defaultDrainTimeout = 5 * time.Second

// ServeWire starts accepting on ln and decoding into sink until ln is
// closed. Call Close (or Shutdown) to stop and drain.
func ServeWire(ln net.Listener, sink interface {
	Consume(rank int, frags []trace.Fragment)
}) *WireServer {
	s := &WireServer{ln: ln, conns: make(map[net.Conn]struct{}), drain: defaultDrainTimeout}
	s.probe(sink)
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// SetDrainTimeout bounds how long Close waits for in-flight
// connections before force-closing them.
func (s *WireServer) SetDrainTimeout(d time.Duration) {
	s.mu.Lock()
	s.drain = d
	s.mu.Unlock()
}

// Metrics returns the surface the server counts into — the sink's own
// when the sink provides one, otherwise a private registry.
func (s *WireServer) Metrics() *Metrics { return s.met }

// SetHello publishes a static shard map on every subsequently accepted
// connection — how a single-server deployment speaks the same
// bootstrap handshake as the sharded tier (a one-entry map naming
// itself), so ShardDialer clients dial either uniformly. It replaces
// whatever the sink publishes.
func (s *WireServer) SetHello(version uint64, addrs []string) {
	s.mu.Lock()
	s.hello = staticHello{ver: version, addrs: append([]string(nil), addrs...)}
	s.mu.Unlock()
}

type staticHello struct {
	ver   uint64
	addrs []string
}

func (h staticHello) Hello() (uint64, []string, bool) { return h.ver, h.addrs, true }

func (s *WireServer) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

func (s *WireServer) setErr(err error) {
	s.mu.Lock()
	if s.err == nil {
		s.err = err
	}
	s.mu.Unlock()
}

func (s *WireServer) serveConn(conn net.Conn) {
	defer conn.Close()
	s.met.WireConns.Inc()
	// Defense in depth: a decoder bug on a hostile frame must take down
	// this connection, not the whole server process. The kill is counted
	// — a swallowed failure must still be visible from outside.
	defer func() {
		if p := recover(); p != nil {
			s.met.WirePanics.Inc()
			s.met.WireFramesRejected.Inc()
			s.setErr(fmt.Errorf("collector: panic serving connection: %v", p))
		}
	}()
	s.mu.Lock()
	hello := s.hello
	s.mu.Unlock()
	if hello != nil {
		// Shard handshake: one length-prefixed hello frame, written
		// before any reads so a shard-aware client can verify ownership
		// immediately after dialing. A failed write means the client is
		// gone; the connection dies before consuming anything.
		if ver, addrs, ok := hello.Hello(); ok {
			payload := trace.AppendHello(nil, ver, addrs)
			out := binary.AppendUvarint(nil, uint64(len(payload)))
			out = append(out, payload...)
			if _, err := conn.Write(out); err != nil {
				s.setErr(err)
				return
			}
		}
	}
	br := bufio.NewReaderSize(conn, 64<<10)
	var payload []byte // reused across frames, grown only as bytes arrive
	// frags is the connection's one decode buffer: every frame decodes
	// over the previous one's fragments. Legal because a sink copies what
	// it keeps before Consume returns (the interpose.Sink contract), so
	// a delivered fragment is allocated once — by the sink.
	var frags []trace.Fragment
	for {
		size, err := binary.ReadUvarint(br)
		if err != nil {
			if err != io.EOF {
				s.setErr(err)
			}
			return
		}
		if size > maxFramePayload {
			s.met.WireFramesRejected.Inc()
			s.setErr(fmt.Errorf("collector: frame of %d bytes exceeds limit", size))
			return
		}
		payload, err = readPayload(br, payload[:0], int(size))
		if err != nil {
			s.met.WireFramesRejected.Inc() // torn frame
			s.setErr(err)
			return
		}
		var meta trace.BatchMeta
		meta, frags, err = trace.DecodeBatchMetaInto(frags, payload)
		if err != nil {
			s.met.WireDecodeErrors.Inc()
			s.met.WireFramesRejected.Inc()
			s.setErr(err)
			return
		}
		if s.deliver(meta, frags, payload) {
			s.mu.Lock()
			s.batches++
			s.mu.Unlock()
		}
		if cap(frags) > maxRetainedFrags {
			frags = nil
		}
	}
}

// readPayload appends exactly size bytes from br onto buf in bounded
// chunks: a 5-byte header claiming a huge frame cannot make the server
// allocate that much before any payload actually arrives.
func readPayload(br *bufio.Reader, buf []byte, size int) ([]byte, error) {
	for len(buf) < size {
		n := size - len(buf)
		if n > frameReadChunk {
			n = frameReadChunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		if _, err := io.ReadFull(br, buf[start:]); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Shutdown stops accepting and waits for in-flight connections to
// drain. When ctx expires first, remaining connections are force-closed
// and the wait completes — a hung client can no longer leak serveConn
// goroutines past Close.
func (s *WireServer) Shutdown(ctx context.Context) error {
	err := s.ln.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for conn := range s.conns {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
	}
	return err
}

// Close is Shutdown bounded by the drain timeout (SetDrainTimeout).
func (s *WireServer) Close() error {
	s.mu.Lock()
	d := s.drain
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return s.Shutdown(ctx)
}

// SeqGaps returns the batches inferred lost from sequence gaps, and
// Dups the duplicates suppressed. Both count into the sink's tracker
// when it has one, so the totals survive server restarts.
func (s *WireServer) SeqGaps() uint64 { return s.met.WireSeqGaps.Load() }

// Dups returns the duplicate batches suppressed by sequence tracking.
func (s *WireServer) Dups() uint64 { return s.met.WireDups.Load() }

// Batches returns how many batches were decoded.
func (s *WireServer) Batches() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.batches
}

// FramesRejected counts frames that terminated their connection:
// oversized headers, torn payloads, undecodable batches, and decoder
// panics contained by recover. These failures are swallowed on the
// serving path by design (a hostile client must not take the server
// down) — the counter is how they stay visible.
func (s *WireServer) FramesRejected() uint64 { return s.met.WireFramesRejected.Load() }

// DecodeErrors counts payloads trace.DecodeBatch refused.
func (s *WireServer) DecodeErrors() uint64 { return s.met.WireDecodeErrors.Load() }

// Panics counts per-connection panics contained by recover.
func (s *WireServer) Panics() uint64 { return s.met.WirePanics.Load() }

// Err returns the first decode error (io.EOF excluded).
func (s *WireServer) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}
