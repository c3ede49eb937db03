package trace

import (
	"testing"
)

// TestWireSeqRoundTrip pins the sequenced (version 2) batch layout:
// the sequence number survives the trip and the fragments decode
// identically to the unsequenced encoding.
func TestWireSeqRoundTrip(t *testing.T) {
	frags := []Fragment{
		{Rank: 3, Kind: Comm, From: 7, State: 9, Start: 123, Elapsed: 456,
			Counters: CountersView{TotIns: 11, Cycles: 22},
			Args:     Args{Op: Op("Send"), Bytes: 1024, Peer: 1, Tag: 5}},
		{Rank: 3, Kind: Comp, From: 9, State: 7, Start: 579, Elapsed: 21,
			Counters: CountersView{TotIns: 13, Cycles: 29}, Static: true, Truth: 4},
	}
	for _, seq := range []uint64{0, 1, 1 << 40} {
		enc := AppendBatchSeq(nil, 3, seq, frags)
		meta, got, err := DecodeBatchMeta(enc)
		if err != nil {
			t.Fatalf("seq %d: %v", seq, err)
		}
		if meta.Rank != 3 || !meta.HasSeq || meta.Seq != seq {
			t.Fatalf("meta = %+v, want rank 3 seq %d", meta, seq)
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

// TestWireUnsequencedMeta pins that version-1 batches report HasSeq
// false, so the server never invents gap accounting for legacy clients.
func TestWireUnsequencedMeta(t *testing.T) {
	enc := AppendBatch(nil, 7, []Fragment{{Rank: 7, Kind: Comp, From: 1, State: 2, Start: 1, Elapsed: 2}})
	meta, frags, err := DecodeBatchMeta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if meta.HasSeq || meta.Seq != 0 || meta.Rank != 7 {
		t.Fatalf("meta = %+v, want rank 7 without seq", meta)
	}
	if len(frags) != 1 {
		t.Fatalf("decoded %d fragments, want 1", len(frags))
	}
}

// TestWireSeqTruncation: every proper prefix of a sequenced batch must
// be rejected, exactly like the v1 hardening.
func TestWireSeqTruncation(t *testing.T) {
	good := AppendBatchSeq(nil, 5, 42, []Fragment{
		{Kind: IO, State: 7, Start: 10, Elapsed: 2, Args: Args{Op: Op("write"), FD: 3}},
	})
	for cut := 1; cut < len(good); cut++ {
		if _, _, err := DecodeBatchMeta(good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
}
