package collector

import (
	"math"
	"sync"

	"vapro/internal/detect"
)

// SeqTracker is the server-side half of the loss accounting: it follows
// each rank's batch sequence numbers (stamped by ResilientClient,
// wire format v2) and decides what each anomaly means —
//
//   - a jump past the expected sequence is a gap: that many batches died
//     with a connection or were evicted from the client's spill queue;
//     the uncovered virtual-time interval is recorded as an Outage so
//     the analysis can mark the rank stale instead of misreading its
//     silence as speed,
//   - a sequence below the expected one is a duplicate (a retransmit
//     whose original did arrive, e.g. after a write deadline fired on a
//     slow but live collector) and must not be delivered twice,
//   - sequence zero from a rank already tracked is a client restart: the
//     rank's numbering begins again and no gap is charged.
//
// The tracker decides; it keeps no counts. The delivery step books
// each decision on its sink's registry (vapro_wire_seq_gaps_total,
// vapro_wire_dups_total), the one ledger an operator scrapes. The
// tracker lives on the sink (a plane), not the WireServer, so its state
// survives server restarts — exactly the window where gaps occur.
type SeqTracker struct {
	mu      sync.Mutex
	ranks   map[int]*rankSeq
	outages []detect.Outage
}

// rankSeq is one rank's tracking state.
type rankSeq struct {
	next uint64 // next expected sequence number
	high int64  // virtual-time high-water mark of delivered fragments
}

// NewSeqTracker returns an empty tracker.
func NewSeqTracker() *SeqTracker {
	return &SeqTracker{ranks: make(map[int]*rankSeq)}
}

// Observe records one sequenced batch from rank. minStart/maxEnd bound
// the batch's fragments in virtual time (pass math.MaxInt64/MinInt64
// for an empty batch). It reports whether the batch should be delivered
// (false for duplicates) and how many batches were lost immediately
// before it.
func (t *SeqTracker) Observe(rank int, seq uint64, minStart, maxEnd int64) (deliver bool, gap uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rs := t.ranks[rank]
	if rs == nil {
		rs = &rankSeq{}
		t.ranks[rank] = rs
	}
	switch {
	case seq < rs.next && seq == 0:
		// Client restart: numbering begins again; prior frames were
		// already accounted, so no gap.
		rs.next = 1
	case seq < rs.next:
		return false, 0
	default:
		if gap = seq - rs.next; gap > 0 {
			end := minStart
			if minStart == math.MaxInt64 {
				end = rs.high // empty batch: zero-length interval at the high-water mark
			}
			t.outages = append(t.outages, detect.Outage{Rank: rank, Start: rs.high, End: end})
		}
		rs.next = seq + 1
	}
	if maxEnd != math.MinInt64 && maxEnd > rs.high {
		rs.high = maxEnd
	}
	return true, gap
}

// Outages returns a copy of the recorded per-rank loss intervals in
// virtual time, the staleness input for gap-aware analysis.
func (t *SeqTracker) Outages() []detect.Outage {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]detect.Outage, len(t.outages))
	copy(out, t.outages)
	return out
}
