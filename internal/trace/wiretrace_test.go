package trace

import (
	"testing"
)

// TestWireTracedRoundTrip pins the traced (version 4) batch layout: the
// v2 fields plus client id and signed flush time all survive the trip,
// and both legacy decode entry points keep working on traced batches —
// an old server sees a traced frame as a plain sequenced batch.
func TestWireTracedRoundTrip(t *testing.T) {
	frags := []Fragment{
		{Rank: 3, Kind: Comm, From: 7, State: 9, Start: 123, Elapsed: 456,
			Counters: CountersView{TotIns: 11, Cycles: 22},
			Args:     Args{Op: Op("Send"), Bytes: 1024, Peer: 1, Tag: 5}},
		{Rank: 3, Kind: Comp, From: 9, State: 7, Start: 579, Elapsed: 21,
			Counters: CountersView{TotIns: 13, Cycles: 29}, Static: true, Truth: 4},
	}
	cases := []struct {
		seq, client uint64
		flushNS     int64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{1 << 40, 1 << 50, 1700000000_000000000}, // realistic wall ns
		{7, 42, -12345},                          // negative flush time survives zigzag
	}
	for _, c := range cases {
		enc := AppendBatchTraced(nil, 3, c.seq, c.client, c.flushNS, frags)
		meta, got, err := DecodeBatchMeta(enc)
		if err != nil {
			t.Fatalf("case %+v: %v", c, err)
		}
		if meta.Rank != 3 || !meta.HasSeq || meta.Seq != c.seq {
			t.Fatalf("meta = %+v, want rank 3 seq %d", meta, c.seq)
		}
		if !meta.HasTrace || meta.ClientID != c.client || meta.FlushNS != c.flushNS {
			t.Fatalf("trace meta = %+v, want client %d flush %d", meta, c.client, c.flushNS)
		}
		if len(got) != len(frags) {
			t.Fatalf("decoded %d fragments, want %d", len(got), len(frags))
		}
		for i := range frags {
			if got[i] != frags[i] {
				t.Fatalf("fragment %d mutated:\n got %+v\nwant %+v", i, got[i], frags[i])
			}
		}
	}
}

// TestWireTracedMetaAbsent pins that v1 and v2 batches report HasTrace
// false with zero trace fields — the server must never invent a trace
// context for untraced clients.
func TestWireTracedMetaAbsent(t *testing.T) {
	frag := []Fragment{{Rank: 7, Kind: Comp, From: 1, State: 2, Start: 1, Elapsed: 2}}
	for name, enc := range map[string][]byte{
		"v1": AppendBatch(nil, 7, frag),
		"v2": AppendBatchSeq(nil, 7, 9, frag),
	} {
		meta, _, err := DecodeBatchMeta(enc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if meta.HasTrace || meta.ClientID != 0 || meta.FlushNS != 0 {
			t.Fatalf("%s invented trace meta: %+v", name, meta)
		}
	}
}

// TestWireTracedTruncation: every proper prefix of a traced batch must
// be rejected — including cuts inside the two new varint fields.
func TestWireTracedTruncation(t *testing.T) {
	good := AppendBatchTraced(nil, 5, 42, 1<<40, 1700000000_000000000, []Fragment{
		{Kind: IO, State: 7, Start: 10, Elapsed: 2, Args: Args{Op: Op("write"), FD: 3}},
	})
	for cut := 1; cut < len(good); cut++ {
		if _, _, err := DecodeBatchMeta(good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
		if _, _, err := DecodeBatchMeta(good[:cut]); err == nil {
			t.Fatalf("meta truncation at %d decoded cleanly", cut)
		}
	}
}

// TestWireTracedCompactness: the trace context costs a handful of bytes
// over v2, not a fixed-width header.
func TestWireTracedCompactness(t *testing.T) {
	frag := []Fragment{{Rank: 1, Kind: Comp, From: 1, State: 2, Start: 100, Elapsed: 50}}
	v2 := AppendBatchSeq(nil, 1, 3, frag)
	v4small := AppendBatchTraced(nil, 1, 3, 5, 0, frag)
	if overhead := len(v4small) - len(v2); overhead > 3 {
		t.Fatalf("small trace context costs %d bytes over v2", overhead)
	}
}
