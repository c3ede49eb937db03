package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"vapro/internal/collector"
	"vapro/internal/trace"
	"vapro/internal/wal"
)

// writeJournal appends batches [0, batches) to a fresh delivery journal
// exactly as a live wire server would have: the traced (v4) payload a
// ResilientClient with tracing enabled sends, one record per delivered
// frame, in delivery order.
func writeJournal(s *stream, batches int, dir string) (payloadBytes []int, err error) {
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return nil, err
	}
	payloadBytes = make([]int, batches)
	var buf []byte
	for b := 0; b < batches; b++ {
		rank, frags := s.batch(b)
		buf = trace.AppendBatchTraced(buf[:0], rank, uint64(b/s.sp.ranks), uint64(rank%2+1), time.Now().UnixNano(), frags)
		payloadBytes[b] = len(buf)
		if err := l.Append(buf); err != nil {
			_ = l.Close()
			return nil, err
		}
	}
	return payloadBytes, l.Close()
}

// runRestart is the restart-query shape. Set-up journals the first part
// of the stream. Measured: replaying that journal into a fresh server
// (ingest_frag_per_s here is the replay rate — the same fragments made
// resident and analysed, read from disk instead of the wire), seeded
// historical range queries against the replayed pool, and then the rest
// of the stream resumed over the wire at the paced rate, so the lag,
// flush and wire metrics describe a server running on rebuilt state.
func runRestart(sp *spec, cfg config, tmp string) (*result, error) {
	sz := sp.size(cfg.seconds, cfg.scale)
	rounds := sz.satRounds + sz.pacedRounds
	jbatches := sz.satRounds * sp.ranks
	jfrags := jbatches * sp.batch
	dir := filepath.Join(tmp, "journal")

	setupReps, epochs, paceDiv := cfg.plan()
	var s *stream
	var payloadBytes []int
	var setups []float64
	for i := 0; i < setupReps; i++ {
		t0 := setupClock()
		_ = os.RemoveAll(dir)
		s = generate(sp, cfg.seed, rounds)
		var err error
		if payloadBytes, err = writeJournal(s, jbatches, dir); err != nil {
			return newResult(sp, cfg, s, sz), fmt.Errorf("journal set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	r := newResult(sp, cfg, s, sz)
	r.set("setup_s", r.dist("setup_s", setups).P50)
	cfg.logf("%s; %d fragments journaled", s, jfrags)

	// Replays, each into a fresh server. The first measured server stays
	// up for everything that follows. A traced run records one span per
	// harness call; there is no traced replay to compare, so its plan's
	// traced epoch is skipped.
	tf := &traceFile{Workload: sp.name, Seed: cfg.seed, Phases: map[string][]span{}}
	harness := &spanLog{base: time.Now()}
	var st *stack
	var rates []float64
	for e, kind := range epochs {
		if kind == tracedEpoch {
			continue
		}
		first := kind == measured && len(rates) == 0
		var heapBase uint64
		if first {
			heapBase = liveHeap()
		}
		cur, err := newPlane(sp, dir)
		if err != nil {
			return r, err
		}
		harness.begin("journal.replay", 0, e)
		t0 := time.Now()
		n, err := collector.ReplayJournal(cur.jlog, cur.mon)
		wall := time.Since(t0)
		harness.end()
		if err != nil {
			cur.close()
			return r, fmt.Errorf("replay %d: %w", e, err)
		}
		rate := float64(jfrags) / wall.Seconds()
		cfg.logf("  replay %d: %.0f frag/s over %d fragments%s", e, rate, jfrags, map[epochKind]string{warmUp: " (warm-up)"}[kind])
		if kind == measured {
			rates = append(rates, rate)
			r.Attempted += uint64(jbatches)
			r.Failed += uint64(jbatches - n)
		}
		if first {
			st = cur
			r.set("live_heap_bytes_per_frag", float64(liveHeap()-heapBase)/float64(jfrags))
			continue
		}
		cur.close()
		debug.FreeOSMemory()
	}
	defer st.close()
	d := r.dist("ingest_frag_per_s", rates)
	r.set("ingest_frag_per_s", d.P50)
	r.set("collector.journal.replay_frag_per_s", d.P50)

	t0 := time.Now()
	replayedEvents, gerr := restartGate(s, st, jbatches, payloadBytes)
	cfg.logf("  gate: %v in %.2fs", errString(gerr), time.Since(t0).Seconds())
	if gerr != nil {
		return r, fmt.Errorf("correctness gate: %w", gerr)
	}

	harness.begin("query.range", 0, 0)
	queryMS, renderMS, empty := rangeQueries(st.pool, s, jbatches, scaled(sp.queries, cfg.scale), cfg.seed)
	harness.end()
	if empty > 0 {
		return r, fmt.Errorf("%d of %d range queries returned no window", empty, len(queryMS))
	}
	reportQueries(r, queryMS, renderMS)

	// Resume: the wire server comes up on the replayed monitor with the
	// journal attached behind the replayed records, as serve.go does.
	before := st.books()
	if err := st.serve(s.batches() - jbatches); err != nil {
		return r, err
	}
	ph, err := st.runPhase(s, jbatches, s.batches(), sp.pacedInterval()/time.Duration(paceDiv), cfg.trace)
	if err != nil {
		return r, fmt.Errorf("resume: %w", err)
	}
	after := st.books()
	r.Attempted += uint64(ph.drive.batches)
	r.Failed += after.failed() - before.failed()
	if got, want := after.delivered-before.delivered, uint64(ph.drive.batches); got != want {
		return r, fmt.Errorf("resume: %d frames delivered, %d flushed", got, want)
	}
	first := s.windowsClosedBy(jbatches)
	if want := len(s.closing) - first; len(ph.tickEnd) != want {
		return r, fmt.Errorf("resume: %d windows analysed, the stream closes %d", len(ph.tickEnd), want)
	}
	events := append(replayedEvents, st.mon.Drain()...)
	if err := checkInjection(s, events); err != nil {
		return r, err
	}
	reportPaced(r, s, st, ph, first, events)
	diagnoseEvents(r, st.mon, events)

	if cfg.trace {
		tf.Phases["harness"] = harness.spans
		tf.Phases["paced"] = ph.spans(sp.ranks)
		st.close() // the ladder runs alone, as in runStreaming
		l, err := warmLadder(s, ladderBatches(sp, cfg.scale, jbatches), tmp)
		if err != nil {
			return r, fmt.Errorf("ladder: %w", err)
		}
		// Coverage compares the replay's cost per fragment with the
		// layers a replayed record crosses.
		reportLadder(r, l, 1e9/d.P50)
		tf.Phases["ladder"] = l.spans
		if err := writeTrace(cfg, sp.name, tf); err != nil {
			return r, err
		}
	}
	return r, nil
}

// restartGate checks the replayed server against a live run of the
// same batches (fed in-process, in journal order, through the sized
// sink path a wire server uses) and against the cold reference.
func restartGate(s *stream, st *stack, jbatches int, payloadBytes []int) ([]collector.Event, error) {
	if got, want := st.pool.FragmentCount(), jbatches*s.sp.batch; got != want {
		return nil, fmt.Errorf("%d fragments resident after replay, %d journaled", got, want)
	}
	live, err := newPlane(s.sp, "")
	if err != nil {
		return nil, err
	}
	defer live.close()
	for b := 0; b < jbatches; b++ {
		rank, frags := s.batch(b)
		live.mon.ConsumeSized(rank, frags, payloadBytes[b])
	}
	replayed := st.pool.WindowResults()
	if err := sameWindows(replayed, live.pool.WindowResults()); err != nil {
		return nil, fmt.Errorf("replayed window results differ from the live run's: %w", err)
	}
	if err := sameWindows(replayed, coldWindows(s, jbatches, st.ownerFunc())); err != nil {
		return nil, fmt.Errorf("replayed analysis differs from the cold reference: %w", err)
	}
	events := st.mon.Drain()
	if err := sameEvents(events, live.mon.Drain()); err != nil {
		return nil, fmt.Errorf("replayed events differ from the live run's: %w", err)
	}
	if s.injectionWithin(jbatches) {
		if err := checkInjection(s, events); err != nil {
			return nil, err
		}
	}
	return events, nil
}
