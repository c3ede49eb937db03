package collector

import (
	"fmt"
	"math"

	"vapro/internal/trace"
	"vapro/internal/wal"
)

// Delivery journal: the server-side half of the durability plane. The
// wire server appends every *delivered* frame's payload — post
// sequence dedup, in delivery order — to an append-only wal.Log before
// handing the batch to the sink. Because the journal holds exactly the
// delivered stream in delivery order, replaying it through a fresh
// pool reproduces the fragment logs, the sequence tracker (gaps,
// outages, restarts) and the monitor watermarks bit-identically to the
// uninterrupted run: duplicates were never journaled, so re-observing
// each journaled sequence number makes the same deliver/suppress
// decision the live server made.

// ReplayJournal feeds every journaled payload back through the sink,
// in journal (= original delivery) order: decode, re-observe the
// sequence number, deliver. Wire frame/byte counters advance so the
// rebuilt metrics surface reads like the uninterrupted run; nothing is
// re-journaled (the records are already durable). It returns the
// number of frames delivered.
//
// Call it on a freshly built sink before attaching the journal and
// accepting connections; a retransmit arriving after replay dedups
// against the rebuilt tracker exactly as it would have against the
// live one.
func ReplayJournal(jour *wal.Log, sink interface {
	Consume(rank int, frags []trace.Fragment)
}) (frames int, err error) {
	// The wire server's delivery step, without its journal (the records
	// are already durable) and without its tracer (replay stamps no
	// journey hops).
	var d delivery
	d.probe(sink)
	d.jour, d.traced = nil, nil
	// One decode buffer for the whole replay, as on a live connection:
	// the sink copies what it keeps.
	var frags []trace.Fragment
	err = jour.Replay(func(payload []byte) error {
		meta, decoded, derr := trace.DecodeBatchMetaInto(frags, payload)
		if derr != nil {
			// Every journaled payload decoded once when it was live and
			// is CRC-guarded on disk, so this is real corruption, not a
			// torn tail (recovery already truncated those).
			return fmt.Errorf("collector: journaled frame undecodable: %w", derr)
		}
		frags = decoded
		// A fresh tracker suppresses nothing (dups were never
		// journaled); replaying into a non-empty sink must not
		// double-deliver, and the step's dedup sees to that.
		if d.deliver(meta, frags, payload) {
			frames++
		}
		return nil
	})
	return frames, err
}

// fragSpan returns the batch's virtual-time extent for outage
// bookkeeping, mirroring the wire server's per-frame scan.
func fragSpan(frags []trace.Fragment) (minStart, maxEnd int64) {
	minStart, maxEnd = int64(math.MaxInt64), int64(math.MinInt64)
	for i := range frags {
		if frags[i].Start < minStart {
			minStart = frags[i].Start
		}
		if e := frags[i].Start + frags[i].Elapsed; e > maxEnd {
			maxEnd = e
		}
	}
	return minStart, maxEnd
}

// AttachJournal hands a plane its delivery journal. The wire server
// probes Journal() from its sink, so attach before ServeWire; the plane
// takes no ownership (the serving process opened it and closes it).
func (pl *plane) AttachJournal(l *wal.Log) { pl.jour = l }

// Journal returns the plane's delivery journal, nil when none.
func (pl *plane) Journal() *wal.Log { return pl.jour }

// AttachJournal hands a one-plane pool's plane its delivery journal, so
// a wire server fed by the pool (or a Monitor over it) journals what it
// delivers. A pool of several planes refuses with a panic — a caller
// bug: each plane journals its own stream (Plane(i).AttachJournal).
func (p *Pool) AttachJournal(l *wal.Log) {
	pl := p.solo()
	if pl == nil {
		panic(fmt.Sprintf("collector: AttachJournal on a %d-plane pool; attach per plane", len(p.planes)))
	}
	pl.AttachJournal(l)
}

// Journal returns a one-plane pool's delivery journal; nil when none is
// attached or over several planes, whose journals are per plane.
func (p *Pool) Journal() *wal.Log {
	if pl := p.solo(); pl != nil {
		return pl.jour
	}
	return nil
}
