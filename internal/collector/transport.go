package collector

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"net/http"
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

// sizedSink is implemented by sinks (Pool, Monitor) that can book an
// already-measured encoded size, so the wire server's decoded payload
// length feeds the §6.2 byte accounting directly instead of the sink
// re-encoding the batch just to measure it.
type sizedSink interface {
	ConsumeSized(rank int, frags []trace.Fragment, bytes int)
}

// metricsProvider is implemented by sinks (Pool, Monitor,
// RecordingSink wrapping either) that expose a collector metrics
// surface; the wire server counts frames into it so transport failures
// that are swallowed as connection kills still leave a visible trace.
type metricsProvider interface {
	Metrics() *Metrics
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

// WireServer accepts connections and feeds decoded batches into a sink
// (normally a Pool or Monitor).
type WireServer struct {
	ln   net.Listener
	sink interface {
		Consume(rank int, frags []trace.Fragment)
	}
	sized  sizedSink     // non-nil when sink implements sizedSink
	traced tracedSink    // non-nil when sink implements tracedSink
	seq    *SeqTracker   // non-nil when sink implements seqStater
	hello  helloProvider // non-nil when sink implements helloProvider
	jour   *wal.Log      // non-nil when sink implements journalProvider
	met    *Metrics
	mln    net.Listener // metrics HTTP listener, if serving
	wg     sync.WaitGroup

	// jmu serializes observe→journal→deliver across connections when a
	// journal is attached: the journal's record order must equal the
	// sequence tracker's decision order and the sink's delivery order,
	// or replay would rebuild a different state than the live run held.
	// Without a journal the path stays lock-free as before.
	jmu sync.Mutex

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
	s := &WireServer{ln: ln, sink: sink, conns: make(map[net.Conn]struct{}), drain: defaultDrainTimeout}
	s.sized, _ = sink.(sizedSink)
	s.traced, _ = sink.(tracedSink)
	if ss, ok := sink.(seqStater); ok {
		s.seq = ss.SeqState()
	}
	if mp, ok := sink.(metricsProvider); ok {
		s.met = mp.Metrics()
	}
	s.hello, _ = sink.(helloProvider)
	if jp, ok := sink.(journalProvider); ok {
		s.jour = jp.Journal()
	}
	if s.met == nil {
		s.met = NewMetrics() // standalone counting surface
	}
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
// itself), so ShardDialer clients dial either uniformly. A sink that
// publishes its own live map (ShardSink) keeps precedence.
func (s *WireServer) SetHello(version uint64, addrs []string) {
	s.mu.Lock()
	if s.hello == nil {
		s.hello = staticHello{ver: version, addrs: append([]string(nil), addrs...)}
	}
	s.mu.Unlock()
}

type staticHello struct {
	ver   uint64
	addrs []string
}

func (h staticHello) Hello() (uint64, []string, bool) { return h.ver, h.addrs, true }

// ServeMetrics serves the metrics registry (Prometheus text / JSON)
// over HTTP on mln until the wire server is closed.
func (s *WireServer) ServeMetrics(mln net.Listener) {
	s.mu.Lock()
	s.mln = mln
	s.mu.Unlock()
	srv := &http.Server{Handler: s.met.Handler()}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = srv.Serve(mln) // returns when mln closes
	}()
}

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
		s.deliverFrame(meta, frags, payload)
		if cap(frags) > maxRetainedFrags {
			frags = nil
		}
	}
}

// deliverFrame runs one decoded frame's observe→journal→deliver
// sequence. With a journal attached the whole sequence is a single
// critical section across connections (jmu): the journal's record
// order must equal the tracker's decision order and the sink's
// delivery order, or replay would rebuild a different state than the
// live run held. Without a journal only the tracker's own lock is
// involved, as before.
func (s *WireServer) deliverFrame(meta trace.BatchMeta, frags []trace.Fragment, payload []byte) {
	if s.jour != nil {
		s.jmu.Lock()
		defer s.jmu.Unlock()
	}
	rank := meta.Rank
	if meta.HasSeq && s.seq != nil {
		// Sequence accounting: gaps are batches that died with a
		// connection or were evicted client-side; duplicates are
		// retransmits whose original arrived (e.g. a write deadline
		// fired on a live link) and must not be delivered twice.
		minStart, maxEnd := fragSpan(frags)
		deliver, gap := s.seq.Observe(rank, meta.Seq, minStart, maxEnd)
		if gap > 0 {
			s.met.WireSeqGaps.Add(gap)
		}
		if !deliver {
			s.met.WireDups.Inc()
			return
		}
	}
	if s.jour != nil {
		// Journal the delivered payload before the sink sees it.
		// Duplicates never reach this point, so the journal holds
		// exactly the delivered stream. An append failure (disk full,
		// dead device) is counted by the log's own metrics and must not
		// kill the connection: durability degrades, ingestion keeps
		// serving.
		_ = s.jour.Append(payload)
	}
	if meta.HasTrace && s.traced != nil && s.met.Trace.Sample(meta.Seq) {
		// Sampled exemplar: stamp delivery and carry the provenance
		// context through staging and drain. The sampling decision is
		// derived from the sequence number alone, so the client that
		// stamped flush/enqueue/write picked the same batches.
		tc := TraceCtx{ClientID: meta.ClientID, Seq: meta.Seq, Rank: rank, FlushNS: meta.FlushNS}
		s.met.Trace.Record(tc.Key(), rank, meta.FlushNS, obs.HopDeliver)
		s.traced.ConsumeTraced(rank, frags, len(payload), tc)
	} else if s.sized != nil {
		s.sized.ConsumeSized(rank, frags, len(payload))
	} else {
		s.sink.Consume(rank, frags)
	}
	s.met.WireFrames.Inc()
	s.met.WireBytes.Add(uint64(len(payload)))
	s.mu.Lock()
	s.batches++
	s.mu.Unlock()
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

// Shutdown stops accepting (wire and metrics listeners) and waits for
// in-flight connections to drain. When ctx expires first, remaining
// connections are force-closed and the wait completes — a hung client
// can no longer leak serveConn goroutines past Close.
func (s *WireServer) Shutdown(ctx context.Context) error {
	err := s.ln.Close()
	s.mu.Lock()
	mln := s.mln
	s.mu.Unlock()
	if mln != nil {
		_ = mln.Close()
	}
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
