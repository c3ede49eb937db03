package collector

import (
	"vapro/internal/obs"
	"vapro/internal/trace"
)

// TraceCtx is the provenance context of one sampled wire batch: who
// flushed it (client id + per-rank seq, together the journey key), for
// which rank, and when (flush wall ns). The wire server decodes it off
// a traced (v4) frame and threads it through staging and drain so the
// exemplar journey picks up every hop. The zero value means untraced.
type TraceCtx struct {
	ClientID uint64
	Seq      uint64
	Rank     int
	FlushNS  int64
}

// Key returns the journey key the context addresses in the exemplar ring.
func (tc TraceCtx) Key() obs.TraceKey {
	return obs.TraceKey{ClientID: tc.ClientID, Seq: tc.Seq}
}

// ConsumeTraced stages a sampled traced batch, carrying its provenance
// context through staging and drain.
func (p *Pool) ConsumeTraced(rank int, frags []trace.Fragment, bytes int, tc TraceCtx) {
	p.stage(frags, bytes, tc, true)
}
