package trace

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randCounters fills every lane with draws that include the extremes.
func randCounters(rng *rand.Rand) CountersView {
	lane := func() uint64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return math.MaxUint64
		case 2:
			return uint64(rng.Int63())
		default:
			return uint64(rng.Intn(1000))
		}
	}
	var lanes [numCounterLanes]uint64
	for i := range lanes {
		lanes[i] = lane()
	}
	// SuspensionNS is signed; exercise negative values too.
	if rng.Intn(2) == 0 {
		lanes[12] = uint64(-rng.Int63())
	}
	var c CountersView
	setCounterLanes(&c, lanes)
	return c
}

func randFragment(rng *rand.Rand, rank int) Fragment {
	ops := []OpSym{Op(""), Op("Send"), Op("Recv"), Op("Allreduce"), Op("write")}
	f := Fragment{
		Rank:    rank,
		Kind:    Kind(rng.Intn(6)), // includes one out-of-range kind
		From:    uint64(rng.Intn(8)) * 0x9e3779b97f4a7c15,
		State:   uint64(rng.Intn(8)) * 0xc2b2ae3d27d4eb4f,
		Start:   rng.Int63n(1 << 40),
		Elapsed: rng.Int63n(1 << 30),
		Static:  rng.Intn(2) == 0,
	}
	if rng.Intn(3) == 0 {
		f.Truth = uint64(rng.Int63())
	}
	if rng.Intn(3) == 0 {
		f.Args = Args{
			Op:    ops[rng.Intn(len(ops))],
			Bytes: rng.Intn(1 << 20),
			Peer:  rng.Intn(256) - 1,
			Tag:   rng.Intn(100),
			FD:    rng.Intn(16) - 1,
			Mode:  rng.Intn(4),
		}
	}
	if rng.Intn(2) == 0 {
		f.Counters = randCounters(rng)
	}
	if rng.Intn(8) == 0 {
		f.Rank = rank + rng.Intn(7) - 3 // stray rank in a batch
	}
	return f
}

// TestWireRoundTripProperty fuzzes randomized batches — including
// zero/max counter values, negative SuspensionNS, out-of-order starts,
// stray ranks, and out-of-range kinds — through encode/decode and
// requires exact structural equality.
func TestWireRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		rank := rng.Intn(4096)
		frags := make([]Fragment, rng.Intn(64))
		for i := range frags {
			frags[i] = randFragment(rng, rank)
		}
		if trial%3 == 0 {
			// Out-of-order batch: shuffle so Start deltas go negative.
			rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
		}
		enc := AppendBatch(nil, rank, frags)
		meta, got, err := DecodeBatchMeta(enc)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if meta.Rank != rank {
			t.Fatalf("trial %d: rank %d, want %d", trial, meta.Rank, rank)
		}
		if len(got) != len(frags) {
			t.Fatalf("trial %d: %d fragments, want %d", trial, len(got), len(frags))
		}
		for i := range frags {
			if !reflect.DeepEqual(got[i], frags[i]) {
				t.Fatalf("trial %d frag %d:\n got %+v\nwant %+v", trial, i, got[i], frags[i])
			}
		}
		BatchPayload(rank, frags, func(payload []byte) {
			if !bytes.Equal(payload, enc) {
				t.Fatalf("trial %d: BatchPayload %d bytes differ from AppendBatch's %d", trial, len(payload), len(enc))
			}
		})
	}
}

func TestWireEmptyBatch(t *testing.T) {
	enc := AppendBatch(nil, 17, nil)
	meta, frags, err := DecodeBatchMeta(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if meta.Rank != 17 || len(frags) != 0 {
		t.Fatalf("got rank %d, %d fragments", meta.Rank, len(frags))
	}
}

func TestWireExtremeCounterDeltas(t *testing.T) {
	// Adjacent fragments at opposite counter extremes force maximal
	// wrapping deltas.
	var lo, hi CountersView
	var maxLanes [numCounterLanes]uint64
	for i := range maxLanes {
		maxLanes[i] = math.MaxUint64
	}
	setCounterLanes(&hi, maxLanes)
	frags := []Fragment{
		{Kind: Comp, State: 1, Counters: lo},
		{Kind: Comp, State: 1, Counters: hi},
		{Kind: Comp, State: 1, Counters: lo},
		{Kind: Comp, State: 1, Counters: CountersView{SuspensionNS: math.MinInt64}},
		{Kind: Comp, State: 1, Counters: CountersView{SuspensionNS: math.MaxInt64}},
	}
	enc := AppendBatch(nil, 0, frags)
	_, got, err := DecodeBatchMeta(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, frags) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, frags)
	}
}

// TestWireExtremeTimestamps: every span whose end fits int64 round-trips,
// however far the deltas between neighbours wrap.
func TestWireExtremeTimestamps(t *testing.T) {
	frags := []Fragment{
		{Kind: Comm, State: 1, Start: math.MaxInt64, Elapsed: 0},
		{Kind: Comm, State: 1, Start: math.MinInt64, Elapsed: 0},
		{Kind: Comm, State: 1, Start: 0, Elapsed: math.MaxInt64},
		{Kind: Comm, State: 1, Start: -1, Elapsed: math.MinInt64 + 1},
		{Kind: Comm, State: 1, Start: 1, Elapsed: math.MaxInt64 - 1},
	}
	enc := AppendBatch(nil, 3, frags)
	_, got, err := DecodeBatchMeta(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, frags) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, frags)
	}
}

// TestWireKindEscape covers kinds that do not fit the 3-bit flags
// field (≥ 7) and so take the raw-byte escape path.
func TestWireKindEscape(t *testing.T) {
	frags := []Fragment{
		{Kind: Kind(7), State: 1, Start: 1, Elapsed: 1},
		{Kind: Kind(255), State: 1, Start: 2, Elapsed: 1},
		{Kind: Probe, State: 1, Start: 3, Elapsed: 1},
	}
	enc := AppendBatch(nil, 0, frags)
	_, got, err := DecodeBatchMeta(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, frags) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, frags)
	}
}

// TestWireCompactness pins the motivation for the format: a realistic
// monitoring batch must encode far below the old fabricated 96 B/frag.
func TestWireCompactness(t *testing.T) {
	frags := make([]Fragment, 512)
	for i := range frags {
		frags[i] = Fragment{
			Rank:    9,
			Kind:    Comp,
			From:    uint64(1 + i%4),
			State:   uint64(2 + i%4),
			Start:   int64(i) * 1_000_000,
			Elapsed: 900_000,
			Counters: CountersView{
				TotIns: uint64(5_000_000 + i*13),
				Cycles: uint64(7_000_000 + i*17),
			},
		}
	}
	n := len(AppendBatch(nil, 9, frags))
	if per := float64(n) / float64(len(frags)); per >= 32 {
		t.Fatalf("%.1f bytes/fragment; want < 32 (old accounting fabricated 96)", per)
	}
}

// TestWireHostileCounts pins the overflow hardening: a tiny frame
// claiming astronomically many keys or fragments must be rejected by
// the bounds checks, not die in (or bloat) the allocations they guard.
// nkeys = 2^61+1 is the regression case: multiplied by 8 it wraps a
// naive `nkeys*8 > len(data)` comparison and previously panicked in
// make([]uint64, nkeys).
func TestWireHostileCounts(t *testing.T) {
	header := func(count, nkeys uint64) []byte {
		b := []byte{wireMagic, wireVersion}
		b = binary.AppendUvarint(b, 0) // rank
		b = binary.AppendUvarint(b, count)
		b = binary.AppendUvarint(b, nkeys)
		return b
	}
	hostile := map[string][]byte{
		"overflowing key count":  header(0, (1<<61)+1),
		"max key count":          header(0, math.MaxUint64),
		"max fragment count":     header(math.MaxUint64, 0),
		"overflowing frag count": header((1<<63)+1, 0),
		"count over byte bound":  header(1<<20, 0),
		"keys over byte bound":   header(0, 1<<20),
	}
	for name, frame := range hostile {
		if _, _, err := DecodeBatchMeta(frame); err == nil {
			t.Errorf("%s decoded cleanly", name)
		}
	}
}

func TestWireCorruptInputs(t *testing.T) {
	good := AppendBatch(nil, 5, []Fragment{
		{Kind: IO, State: 7, Start: 10, Elapsed: 2, Args: Args{Op: Op("write"), FD: 3}},
		{Kind: Comp, From: 7, State: 9, Start: 12, Elapsed: 5, Counters: CountersView{TotIns: 1}},
	})
	if _, _, err := DecodeBatchMeta(nil); err == nil {
		t.Fatal("empty input decoded")
	}
	if _, _, err := DecodeBatchMeta([]byte{'X', wireVersion}); err == nil {
		t.Fatal("bad magic decoded")
	}
	if _, _, err := DecodeBatchMeta([]byte{wireMagic, 99}); err == nil {
		t.Fatal("bad version decoded")
	}
	for cut := 1; cut < len(good); cut++ {
		if _, _, err := DecodeBatchMeta(good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	if _, _, err := DecodeBatchMeta(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
}

func TestHelloRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{"127.0.0.1:9000"},
		{"10.0.0.1:9000", "10.0.0.2:9000", "", "host-3.cluster.local:443"},
	}
	for _, addrs := range cases {
		enc := AppendHello(nil, 42, addrs)
		ver, got, err := DecodeHello(enc)
		if err != nil {
			t.Fatalf("decode hello %v: %v", addrs, err)
		}
		if ver != 42 || len(got) != len(addrs) {
			t.Fatalf("hello %v round-tripped to version %d addrs %v", addrs, ver, got)
		}
		for i := range addrs {
			if got[i] != addrs[i] {
				t.Fatalf("addr %d: got %q want %q", i, got[i], addrs[i])
			}
		}
	}
}

func TestHelloBatchDisjoint(t *testing.T) {
	// A hello must never decode as a batch, and vice versa: the one frame
	// a client reads is unambiguous against everything a server sends.
	hello := AppendHello(nil, 1, []string{"a:1", "b:2"})
	if _, _, err := DecodeBatchMeta(hello); err == nil {
		t.Fatal("hello decoded as a batch")
	}
	batch := AppendBatchSeq(nil, 3, 7, []Fragment{{Kind: Comp, From: 1, State: 2, Start: 10, Elapsed: 5}})
	if _, _, err := DecodeHello(batch); err == nil {
		t.Fatal("batch decoded as a hello")
	}
}

func TestHelloCorruptInputs(t *testing.T) {
	good := AppendHello(nil, 9, []string{"127.0.0.1:8000", "127.0.0.1:8001"})
	for cut := 1; cut < len(good); cut++ {
		if _, _, err := DecodeHello(good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", cut)
		}
	}
	if _, _, err := DecodeHello(append(append([]byte{}, good...), 0)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
	// Hostile counts: huge shard counts and address lengths must be
	// rejected before allocation.
	hostile := AppendHello(nil, 1, nil)
	hostile = hostile[:3] // keep magic+version+version varint, drop count
	hostile = append(hostile, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)
	if _, _, err := DecodeHello(hostile); err == nil {
		t.Fatal("absurd shard count decoded cleanly")
	}
}

// counterLanes flattens a CountersView into uint64 lanes in field order
// (SuspensionNS is reinterpreted; wrapping deltas preserve it exactly).
func counterLanes(c *CountersView) (l [numCounterLanes]uint64) {
	counterLanesInto(&l, c)
	return l
}
