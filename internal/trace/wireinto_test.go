package trace

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// dirtyDst returns an over-long scratch slice whose every field is set,
// so a decoder that leaves any field of a reused slot unwritten shows up
// as a mismatch against the fresh decode.
func dirtyDst(n int) []Fragment {
	dst := make([]Fragment, n)
	for i := range dst {
		dst[i] = Fragment{
			Rank: -7, Kind: Probe, From: ^uint64(0), State: ^uint64(0), Start: -1, Elapsed: -1,
			Counters: CountersView{TotIns: 99, SuspensionNS: -5, L2MissStall: 77},
			Args:     Args{Op: OpWrite, Bytes: 1, Peer: 2, Tag: 3, FD: 4, Mode: 5},
			Static:   true, Truth: 12345,
		}
	}
	return dst
}

// sameDecode requires DecodeBatchMetaInto over a dirty dst to agree
// with a fresh DecodeBatchMeta: same error-ness, same header, same
// fragments. The fuzz target and the per-version test share it.
func sameDecode(t *testing.T, data []byte) {
	t.Helper()
	wantMeta, want, wantErr := DecodeBatchMeta(data)
	gotMeta, got, gotErr := DecodeBatchMetaInto(dirtyDst(300), data)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("fresh err=%v, into err=%v", wantErr, gotErr)
	}
	if wantErr != nil {
		if got != nil {
			t.Fatalf("failed decode returned %d fragments", len(got))
		}
		return
	}
	if gotMeta != wantMeta {
		t.Fatalf("meta %+v, fresh decode %+v", gotMeta, wantMeta)
	}
	if len(got) != len(want) {
		t.Fatalf("%d fragments, fresh decode %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fragment %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestDecodeIntoMatchesFresh: a reused, dirty, over-long destination
// decodes v1, v2 and v4 frames (v3 is the hello, which both entry
// points must refuse alike) exactly like a fresh allocation, across
// batches shorter and longer than the destination.
func TestDecodeIntoMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 60; trial++ {
		rank := rng.Intn(4096)
		frags := make([]Fragment, rng.Intn(700))
		for i := range frags {
			frags[i] = randFragment(rng, rank)
		}
		sameDecode(t, AppendBatch(nil, rank, frags))
		sameDecode(t, AppendBatchSeq(nil, rank, uint64(trial), frags))
		sameDecode(t, AppendBatchTraced(nil, rank, uint64(trial), 0xbeef, -42, frags))
	}
	sameDecode(t, AppendHello(nil, 3, []string{"127.0.0.1:1"}))

	// The destination is actually reused, not just tolerated.
	dst := dirtyDst(300)
	enc := AppendBatchSeq(nil, 1, 0, fuzzFrags())
	_, got, err := DecodeBatchMetaInto(dst, enc)
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &dst[0] {
		t.Fatal("decode allocated although the destination had room")
	}
}

// TestDecodeIntoWarmAllocatesNothing pins the receive loop's steady
// state: a traced 256-fragment comm/IO frame (op names, counters, args,
// a key dictionary) decoded into the previous call's slice performs
// zero heap allocations.
func TestDecodeIntoWarmAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	frags := make([]Fragment, 256)
	for i := range frags {
		frags[i] = randFragment(rng, 5)
	}
	enc := AppendBatchTraced(nil, 5, 9, 1, 2, frags)
	_, dst, err := DecodeBatchMetaInto(nil, enc)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		_, dst, err = DecodeBatchMetaInto(dst, enc)
		if err != nil || len(dst) != len(frags) {
			t.Fatalf("decode: n=%d err=%v", len(dst), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm decode allocates %.1f objects per frame, want 0", allocs)
	}
}

// hugeRankFrame is a well-formed empty v2 batch whose rank varint does
// not fit an int32 — on a 64-bit host 1<<63 converts to a negative int.
func hugeRankFrame(rank uint64) []byte {
	b := []byte{wireMagic, wireVersionSeq}
	b = binary.AppendUvarint(b, rank)
	b = binary.AppendUvarint(b, 0)    // seq
	b = binary.AppendUvarint(b, 0)    // fragments
	return binary.AppendUvarint(b, 0) // keys
}

// TestDecodeRejectsOutOfRangeRank: the batch rank indexes per-rank
// tables on the server, so anything past MaxInt32 is a decode error,
// not a negative index waiting for a recover().
func TestDecodeRejectsOutOfRangeRank(t *testing.T) {
	for _, rank := range []uint64{math.MaxInt32 + 1, 1 << 63, math.MaxUint64} {
		meta, frags, err := DecodeBatchMeta(hugeRankFrame(rank))
		if err == nil || !strings.Contains(err.Error(), "rank") {
			t.Fatalf("rank %d decoded: meta=%+v n=%d err=%v", rank, meta, len(frags), err)
		}
	}
	if meta, _, err := DecodeBatchMeta(hugeRankFrame(math.MaxInt32)); err != nil || meta.Rank != math.MaxInt32 {
		t.Fatalf("MaxInt32 rank refused: meta=%+v err=%v", meta, err)
	}
}

// overflowFrames encodes one batch per wire version whose second
// fragment's span end, Start+Elapsed, wraps int64 (sign given by neg).
func overflowFrames(neg bool) [][]byte {
	bad := Fragment{Kind: Comp, From: 1, State: 2, Start: math.MaxInt64 - 5, Elapsed: 6}
	if neg {
		bad.Start, bad.Elapsed = math.MinInt64+5, -6
	}
	frags := []Fragment{{Kind: Comp, From: 1, State: 2, Start: 10, Elapsed: 5}, bad}
	return [][]byte{
		AppendBatch(nil, 3, frags),
		AppendBatchSeq(nil, 3, 7, frags),
		AppendBatchTraced(nil, 3, 7, 0xbeef, 99, frags),
	}
}

// TestDecodeRejectsOverflowingSpan: a fragment whose end does not fit
// int64 is a decode error in every batch version, so no analysis ever
// sees a span whose window test wraps.
func TestDecodeRejectsOverflowingSpan(t *testing.T) {
	for _, neg := range []bool{false, true} {
		for v, frame := range overflowFrames(neg) {
			meta, frags, err := DecodeBatchMeta(frame)
			if err == nil || !strings.Contains(err.Error(), "overflows int64") {
				t.Fatalf("neg=%v version #%d decoded: meta=%+v n=%d err=%v", neg, v, meta, len(frags), err)
			}
		}
	}
	// The largest ends that fit still decode.
	ok := []Fragment{
		{Kind: Comp, From: 1, State: 2, Start: math.MaxInt64 - 6, Elapsed: 6},
		{Kind: Comp, From: 1, State: 2, Start: math.MinInt64 + 6, Elapsed: -6},
	}
	if _, got, err := DecodeBatchMeta(AppendBatch(nil, 3, ok)); err != nil || len(got) != 2 {
		t.Fatalf("in-range extreme spans: n=%d err=%v", len(got), err)
	}
}
