package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// satQueueDepth is the closed loop's window: a generator flushes its
// next batch only while its client has fewer frames than this queued.
const satQueueDepth = 8

// span is one traced call. Spans of one batch share (Rank, Seq); Parent
// is the ID of the span that caused this one, 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Rank    int    `json:"rank"`
	Seq     int    `json:"seq"`
	Windows int    `json:"windows_closed,omitempty"`
}

// driveResult is what the generator side observed while driving batches
// [from, to) of a stream into a stack.
type driveResult struct {
	batches   int
	frags     int
	start     int64   // recorder ns of the first flush
	consumeNS []int64 // duration of every ResilientClient.Consume
	lateNS    []int64 // open loop: how long after its due time each flush began
	dueNS     []int64 // open loop: recorder ns at which batch from+i was due
	busyNS    int64   // generator time spent outside Consume and outside waiting
	wallNS    int64   // summed generator lifetimes
	spans     []span  // gen.batch ⊃ client.consume, only when tracing
}

// drive feeds batches [from, to) through the stack's clients from one
// generator goroutine per client (never more than nproc). With a zero
// interval it runs the closed loop; otherwise the open loop, in which
// batch from+i is due i×interval after the start whatever the server is
// doing. It returns once every generator has flushed its last batch —
// delivery is awaited by the caller through the recorder.
func (st *stack) drive(s *stream, from, to int, interval time.Duration, traced bool) driveResult {
	paced := interval > 0
	n := to - from
	res := driveResult{batches: n, frags: n * s.sp.batch}
	res.consumeNS = make([]int64, n)
	if paced {
		res.dueNS = make([]int64, n)
		res.lateNS = make([]int64, n)
		// The schedule starts a little ahead so both generators are
		// running before the first batch falls due.
		t0 := st.rec.now() + int64(2*time.Millisecond)
		for i := range res.dueNS {
			res.dueNS[i] = t0 + int64(i)*int64(interval)
		}
	}
	var first atomic.Int64
	first.Store(-1)
	spans := make([][]span, len(st.clients))
	var busy, wall atomic.Int64
	var wg sync.WaitGroup
	for g := range st.clients {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cl := st.clients[g]
			born := st.rec.now()
			var waited, consumed int64
			for b := from; b < to; b++ {
				rank, frags := s.batch(b)
				if st.owner[rank] != g {
					continue
				}
				i := b - from
				w0 := st.rec.now()
				if paced {
					if sleep, _ := pace(res.dueNS[i], w0); sleep > 0 {
						time.Sleep(time.Duration(sleep))
					}
				} else {
					for cl.Stats().SpillDepth >= satQueueDepth {
						time.Sleep(100 * time.Microsecond)
					}
				}
				c0 := st.rec.now()
				waited += c0 - w0
				if paced {
					_, res.lateNS[i] = pace(res.dueNS[i], c0)
				}
				first.CompareAndSwap(-1, c0)
				cl.Consume(rank, frags)
				c1 := st.rec.now()
				res.consumeNS[i] = c1 - c0
				consumed += c1 - c0
				if traced {
					// IDs are assigned when the per-generator slices are merged.
					seq := b / s.sp.ranks
					spans[g] = append(spans[g],
						span{Name: "gen.batch", Start: w0, End: c1, Rank: rank, Seq: seq},
						span{Name: "client.consume", Start: c0, End: c1, Rank: rank, Seq: seq})
				}
			}
			life := st.rec.now() - born
			wall.Add(life)
			busy.Add(life - waited - consumed)
		}(g)
	}
	wg.Wait()
	res.start = first.Load()
	res.busyNS, res.wallNS = busy.Load(), wall.Load()
	for _, sp := range spans {
		res.spans = append(res.spans, sp...)
	}
	return res
}

// pace is the open loop's accounting for one batch: a generator that
// reaches a batch before it is due sleeps the difference; one that
// reaches it after is that late, and flushes at once. The schedule never
// moves, so lateness does not push later batches back.
func pace(due, now int64) (sleep, late int64) {
	if now < due {
		return due - now, 0
	}
	return 0, now - due
}

// windowLags times every window the driven batches closed: from the due
// time of the batch that lifted the watermark past the window's end to
// the return of the sink call in which its analysis completed.
func windowLags(s *stream, from, to int, dueNS []int64, firstWindow int, tickEnd []int64) []int64 {
	var lags []int64
	for i, end := range tickEnd {
		w := firstWindow + i
		if w >= len(s.closing) {
			break
		}
		b := s.closing[w]
		if b < from || b >= to {
			continue
		}
		lags = append(lags, end-dueNS[b-from])
	}
	return lags
}
