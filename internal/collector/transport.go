package collector

import (
	"bufio"
	"context"
	"encoding/binary"
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
//
// A server takes one sink (wireSink): a Pool, or one plane's ShardSink
// from Pool.WireSink. A monitor observes the pool, so it needs no sink
// of its own. The server counts into its sink's metrics surface.

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

// wireSink is what the delivery step takes from its sink: sized and
// traced consumption (the wire server passes the payload length it just
// decoded, so the §6.2 byte accounting needs no re-encode), the
// sequence tracker (nil skips sequence accounting), the metrics surface
// the step counts into, and the delivery journal (nil: none). A Pool
// (or a Monitor over it, whose methods are the pool's) and a ShardSink
// implement it. The probe runs at ServeWire time, so attach a journal
// before starting the server.
type wireSink interface {
	ConsumeSized(rank int, frags []trace.Fragment, bytes int)
	ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc TraceCtx)
	SeqState() *SeqTracker
	Metrics() *Metrics
	Journal() *wal.Log
}

// helloProvider is implemented by sinks (ShardSink) that publish a
// shard map: the server writes one hello frame at the top of every
// accepted connection so the client learns the rank→server assignment
// and can redirect to its owner. Legacy clients never read from the
// connection, so the handshake is invisible to them.
type helloProvider interface {
	Hello() (version uint64, addrs []string, ok bool)
}

// delivery is one sink and the observe→journal→deliver→count step
// every delivered frame takes, live off a connection (WireServer), from
// disk (ReplayJournal), or from Pool.Consume onto a plane with a journal
// (the plane's local step).
type delivery struct {
	sink  wireSink
	seq   *SeqTracker   // the sink's tracker; nil skips sequence accounting
	jour  *wal.Log      // the sink's journal; nil when none
	met   *Metrics      // the sink's surface
	live  bool          // off a connection: sampled batches stamp their journey
	hello helloProvider // non-nil when the sink publishes a shard map

	// jmu serializes observe→journal→deliver across connections when a
	// journal is attached: the journal's record order must equal the
	// sequence tracker's decision order and the sink's delivery order,
	// or replay would rebuild a different state than the live run held.
	// Without a journal the path stays lock-free.
	jmu sync.Mutex
}

// probe reads sink's state into d.
func (d *delivery) probe(sink wireSink) {
	d.sink = sink
	d.seq = sink.SeqState()
	d.met = sink.Metrics()
	d.jour = sink.Journal()
	d.hello, _ = sink.(helloProvider)
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
	if d.live && meta.HasTrace && d.met.Trace.Sample(meta.Seq) {
		// Sampled exemplar: stamp delivery and carry the provenance
		// context through staging and drain. The sampling decision is
		// derived from the sequence number alone, so the client that
		// stamped flush/enqueue/write picked the same batches.
		tc := TraceCtx{ClientID: meta.ClientID, Seq: meta.Seq, Rank: rank, FlushNS: meta.FlushNS}
		d.met.Trace.Record(tc.Key(), rank, meta.FlushNS, obs.HopDeliver)
		d.sink.ConsumeTraced(rank, frags, len(payload), tc)
	} else {
		d.sink.ConsumeSized(rank, frags, len(payload))
	}
	d.met.WireFrames.Inc()
	d.met.WireBytes.Add(uint64(len(payload)))
	return true
}

// WireServer accepts connections and feeds decoded batches into a sink
// (a Pool, or one plane's ShardSink). It counts into the sink's metrics
// surface only.
type WireServer struct {
	ln net.Listener
	delivery
	wg sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	drain time.Duration
}

// defaultDrainTimeout bounds Close's wait for in-flight connections.
const defaultDrainTimeout = 5 * time.Second

// ServeWire starts accepting on ln and decoding into sink until ln is
// closed. Call Close (or Shutdown) to stop and drain.
func ServeWire(ln net.Listener, sink wireSink) *WireServer {
	s := &WireServer{ln: ln, conns: make(map[net.Conn]struct{}), drain: defaultDrainTimeout}
	s.probe(sink)
	s.live = true
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

// Metrics returns the surface the server counts into: the sink's. Its
// vapro_wire_* series (frames, bytes, gaps, duplicates, rejected frames,
// decode errors, contained panics) are the server's counters; over a
// sink that several servers feed, they are the servers' sum.
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
			return // EOF, or the connection died between frames
		}
		if size > maxFramePayload {
			s.met.WireFramesRejected.Inc()
			return
		}
		payload, err = readPayload(br, payload[:0], int(size))
		if err != nil {
			s.met.WireFramesRejected.Inc() // torn frame
			return
		}
		var meta trace.BatchMeta
		meta, frags, err = trace.DecodeBatchMetaInto(frags, payload)
		if err != nil {
			s.met.WireDecodeErrors.Inc()
			s.met.WireFramesRejected.Inc()
			return
		}
		s.deliver(meta, frags, payload)
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
