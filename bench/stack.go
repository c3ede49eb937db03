package main

import (
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"vapro/internal/collector"
	"vapro/internal/obs"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// sinkAPI is everything the wire server discovers on its sink
// (structurally, so the probe below is a drop-in for the real monitor).
type sinkAPI interface {
	Consume(rank int, frags []trace.Fragment)
	ConsumeSized(rank int, frags []trace.Fragment, bytes int)
	ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc collector.TraceCtx)
	Metrics() *collector.Metrics
	SeqState() *collector.SeqTracker
	Journal() *wal.Log
}

// probe forwards every sink call to the real monitor and timestamps
// it. Metrics/SeqState/Journal are promoted from the embedded sink.
type probe struct {
	sinkAPI
	rec *recorder
}

func (p *probe) Consume(rank int, frags []trace.Fragment) {
	t0 := p.rec.now()
	p.sinkAPI.Consume(rank, frags)
	p.rec.record(t0, rank, len(frags))
}

func (p *probe) ConsumeSized(rank int, frags []trace.Fragment, bytes int) {
	t0 := p.rec.now()
	p.sinkAPI.ConsumeSized(rank, frags, bytes)
	p.rec.record(t0, rank, len(frags))
}

func (p *probe) ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc collector.TraceCtx) {
	t0 := p.rec.now()
	p.sinkAPI.ConsumeTraced(rank, frags, bytes, tc)
	p.rec.record(t0, rank, len(frags))
}

// shardProbe adds the hello a shard sink publishes.
type shardProbe struct {
	*probe
	hello func() (uint64, []string, bool)
}

func (p shardProbe) Hello() (uint64, []string, bool) { return p.hello() }

// sinkCall is one timestamped delivery into the monitor.
type sinkCall struct {
	Start, End int64 // ns since the recorder's base
	Rank       int32
	Frags      int32
	// Windows is how many analysed windows this call was the first to
	// return with; non-zero marks the call that ran the tick.
	Windows int32
}

// recorder collects the probe's observations of one server lifetime.
type recorder struct {
	base    time.Time
	windows func() uint64 // the monitor's analysed-window counter

	mu          sync.Mutex
	calls       []sinkCall
	frags       int
	firstWindow int     // windows analysed before the recorder attached
	seen        uint64  // windows attributed so far
	tickEnd     []int64 // per window since firstWindow: earliest return that saw it analysed
	target      int
	done        chan struct{}
}

func newRecorder(windows func() uint64, expectCalls int) *recorder {
	w := windows()
	return &recorder{
		base: time.Now(), windows: windows,
		calls:       make([]sinkCall, 0, expectCalls),
		firstWindow: int(w), seen: w,
		done: make(chan struct{}),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.base)) }

// record books one returned sink call. A call during which the window
// counter advanced ran (or waited behind) a tick; each window is
// credited once, to the earliest return.
func (r *recorder) record(t0 int64, rank, n int) {
	end := r.now()
	cur := r.windows()
	r.mu.Lock()
	c := sinkCall{Start: t0, End: end, Rank: int32(rank), Frags: int32(n)}
	if cur > r.seen {
		c.Windows = int32(cur - r.seen)
		for ; r.seen < cur; r.seen++ {
			r.tickEnd = append(r.tickEnd, end)
		}
	}
	r.calls = append(r.calls, c)
	r.frags += n
	if r.target > 0 && r.frags >= r.target {
		r.target = 0
		close(r.done)
	}
	r.mu.Unlock()
}

// expect arms done to close once n more fragments have been delivered.
func (r *recorder) expect(n int) {
	r.mu.Lock()
	r.target = r.frags + n
	r.done = make(chan struct{})
	r.mu.Unlock()
}

func (r *recorder) wait(timeout time.Duration) error {
	r.mu.Lock()
	done := r.done
	r.mu.Unlock()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		r.mu.Lock()
		defer r.mu.Unlock()
		return fmt.Errorf("timed out after %v: %d fragments delivered, %d still expected", timeout, r.frags, r.target-r.frags)
	}
}

func (r *recorder) snapshot() (calls []sinkCall, tickEnd []int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]sinkCall(nil), r.calls...), append([]int64(nil), r.tickEnd...)
}

// stack is one server lifetime: the analysis plane, the wire servers in
// front of it and the resilient clients feeding it over loopback TCP,
// wired as cmd/vapro/serve.go and feed.go wire them.
type stack struct {
	sp *spec

	pool *collector.Pool
	mon  *collector.Monitor
	tier *collector.ShardedPool
	smon *collector.ShardedMonitor
	jlog *wal.Log

	rec     *recorder
	srvs    []*collector.WireServer
	clients []*collector.ResilientClient
	cmet    *collector.Metrics // the clients' own registry, as in `vapro feed`
	owner   []int              // rank → client
}

func (sp *spec) options() (collector.Options, collector.MonitorOptions) {
	copt := collector.DefaultOptions()
	copt.Period, copt.Overlap = sp.period, sp.overlap
	copt.Detect.Window = sp.bucket
	mopt := collector.DefaultMonitorOptions(sp.ranks)
	mopt.Period, mopt.Overlap = sp.period, sp.overlap
	mopt.Detect = copt.Detect
	return copt, mopt
}

// newPlane builds the analysis side only. journalDir, when set, is
// opened (recovering whatever it holds) but neither replayed nor
// attached: the caller decides, as serve.go does.
func newPlane(sp *spec, journalDir string) (*stack, error) {
	st := &stack{sp: sp}
	copt, mopt := sp.options()
	if sp.shards > 1 {
		st.tier = collector.NewShardedPool(sp.ranks, sp.shards, copt)
		st.smon = collector.NewShardedMonitor(st.tier, mopt)
		return st, nil
	}
	st.pool = collector.NewPool(sp.ranks, copt)
	st.mon = collector.NewMonitor(st.pool, mopt)
	if journalDir != "" {
		l, err := wal.Open(journalDir, wal.Options{
			Metrics: wal.NewMetrics(st.pool.Metrics().Registry, "journal"),
		})
		if err != nil {
			return nil, fmt.Errorf("open journal: %w", err)
		}
		wal.RegisterOldestAge(st.pool.Metrics().Registry, "journal", l)
		st.jlog = l
	}
	return st, nil
}

// windowCounter is the counter a tick bumps: the monitor's own for the
// plain shape; for the tier, plane 0's, which every RunWindow fan-out
// bumps once.
func (st *stack) windowCounter() func() uint64 {
	if st.tier != nil {
		return st.tier.Plane(0).Metrics().Detect.Windows.Load
	}
	return st.pool.Metrics().Detect.Windows.Load
}

// serve puts probes and wire listeners in front of the plane and starts
// one resilient client per listener-side connection the workload uses:
// two for the plain shape (ranks split by parity), one per shard for
// the tier (each dialled through ShardDialer on a rank that shard owns).
func (st *stack) serve(expectCalls int) error {
	sp := st.sp
	st.rec = newRecorder(st.windowCounter(), expectCalls)
	st.owner = make([]int, sp.ranks)
	st.cmet = collector.NewMetrics()
	listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

	nclients := 2
	var addrs []string
	if st.tier != nil {
		nclients = sp.shards
		lns := make([]net.Listener, sp.shards)
		for i := range lns {
			ln, err := listen()
			if err != nil {
				return err
			}
			lns[i] = ln
			addrs = append(addrs, ln.Addr().String())
		}
		for i, ln := range lns {
			sink := st.smon.WireSink(i)
			st.srvs = append(st.srvs, collector.ServeWire(ln, shardProbe{
				probe: &probe{sinkAPI: sink, rec: st.rec}, hello: sink.Hello,
			}))
		}
		if err := st.tier.Rebalance(addrs); err != nil {
			return err
		}
		for r := range st.owner {
			st.owner[r] = st.tier.Owner(r)
		}
	} else {
		if st.jlog != nil {
			st.pool.AttachJournal(st.jlog)
		}
		ln, err := listen()
		if err != nil {
			return err
		}
		addrs = []string{ln.Addr().String()}
		srv := collector.ServeWire(ln, &probe{sinkAPI: st.mon, rec: st.rec})
		srv.SetHello(1, addrs)
		st.srvs = append(st.srvs, srv)
		for r := range st.owner {
			st.owner[r] = r % nclients
		}
	}
	for c := 0; c < nclients; c++ {
		first := -1
		for r, o := range st.owner {
			if o == c {
				first = r
				break
			}
		}
		if first < 0 {
			return fmt.Errorf("client %d owns no rank", c)
		}
		cl := collector.NewResilientClient(
			collector.ShardDialer(first, addrs[:1], st.cmet),
			collector.DefaultResilientOptions())
		cl.SetMetrics(st.cmet)
		cl.EnableTrace(uint64(c+1), st.cmet.Trace)
		st.clients = append(st.clients, cl)
	}
	return nil
}

// boot is newPlane + serve for the streaming workloads.
func boot(sp *spec, tmp string, expectCalls int) (*stack, error) {
	dir := ""
	if sp.journal {
		dir = filepath.Join(tmp, "journal")
	}
	st, err := newPlane(sp, dir)
	if err != nil {
		return nil, err
	}
	if err := st.serve(expectCalls); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// drain waits for every client's queue to reach the wire.
func (st *stack) drain(timeout time.Duration) (waited time.Duration, ok bool) {
	t0 := time.Now()
	ok = true
	for _, c := range st.clients {
		if !c.Drain(timeout) {
			ok = false
		}
	}
	return time.Since(t0), ok
}

// close stops clients, servers and the plane, in that order, and waits
// for each.
func (st *stack) close() {
	for _, c := range st.clients {
		_ = c.Close()
	}
	for _, s := range st.srvs {
		_ = s.Close()
	}
	if st.tier != nil {
		st.tier.Close()
	}
	if st.pool != nil {
		st.pool.Close()
	}
	if st.jlog != nil {
		_ = st.jlog.Close()
	}
}

// snapshot is the server-side registry view: the pool's own for the
// plain shape, the merge of every plane's for the tier.
func (st *stack) snapshot() obs.Snapshot {
	if st.tier != nil {
		return st.tier.MergedSnapshot()
	}
	return st.pool.Metrics().Registry.Snapshot()
}

// books is the loss accounting of one server lifetime.
type books struct {
	consumed, sent, lost, abandoned uint64 // client side, batches
	reconnects                      uint64
	spillPeak                       int
	delivered, gaps, dups, rejected uint64 // server side, batches
	wireBytes                       uint64
	fragments                       int // resident in the plane
}

func (st *stack) books() books {
	var b books
	for _, c := range st.clients {
		cs := c.Stats()
		b.consumed += cs.Consumed
		b.sent += cs.Sent
		b.lost += cs.Lost
		b.abandoned += cs.Abandoned
		b.reconnects += cs.Reconnects
		if cs.SpillPeak > b.spillPeak {
			b.spillPeak = cs.SpillPeak
		}
	}
	snap := st.snapshot()
	val := func(name string) uint64 {
		if m := snap.Get(name); m != nil {
			return uint64(m.Value)
		}
		return 0
	}
	b.delivered = val("vapro_wire_frames_total")
	b.gaps = val("vapro_wire_seq_gaps_total")
	b.dups = val("vapro_wire_dups_total")
	b.rejected = val("vapro_wire_frames_rejected_total")
	b.wireBytes = val("vapro_wire_bytes_total")
	if st.tier != nil {
		b.fragments = st.tier.FragmentCount()
	} else {
		b.fragments = st.pool.FragmentCount()
	}
	return b
}

// failed is the number of batches the books cannot account as delivered.
func (b books) failed() uint64 {
	return b.lost + b.abandoned + b.gaps + b.rejected
}

// balanced checks consumed == delivered + gaps with nothing lost,
// rejected or still queued.
func (b books) balanced() error {
	switch {
	case b.lost != 0 || b.abandoned != 0:
		return fmt.Errorf("client lost %d, abandoned %d batches", b.lost, b.abandoned)
	case b.rejected != 0:
		return fmt.Errorf("server rejected %d frames", b.rejected)
	case b.consumed != b.delivered+b.gaps:
		return fmt.Errorf("consumed %d != delivered %d + gaps %d", b.consumed, b.delivered, b.gaps)
	case b.gaps != 0:
		return fmt.Errorf("%d sequence gaps", b.gaps)
	}
	return nil
}
