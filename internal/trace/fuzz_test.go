package trace

import (
	"bytes"
	"errors"
	"testing"
)

// Fuzz targets for the decoders that face bytes from outside the
// process: wire payloads (hostile clients) and durable records (disks
// that crashed mid-write or rotted). The recovery paths lean on these
// never panicking — a torn journal must truncate, not take the
// collector down. check.sh runs each with a short -fuzztime smoke; the
// committed corpus under testdata/fuzz pins past findings.

func fuzzFrags() []Fragment {
	return []Fragment{
		{Rank: 1, Kind: Comp, From: 7, State: 9, Start: 100, Elapsed: 50},
		{Rank: 1, Kind: Comm, State: 3, Start: 150, Elapsed: 25,
			Args: Args{Bytes: 4096, Peer: 3, Tag: 7}},
	}
}

func FuzzDecodeBatchMeta(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendBatch(nil, 3, fuzzFrags()))
	f.Add(AppendBatchSeq(nil, 3, 42, fuzzFrags()))
	f.Add(AppendBatchTraced(nil, 3, 42, 0xdead, 12345, fuzzFrags()))
	f.Add(AppendBatchSeq(nil, 0, 0, nil))
	f.Add(hugeRankFrame(1 << 63)) // rank that converts to a negative int
	// Names the vocabulary has never held: one it may take, and one far
	// past the length bound.
	f.Add(opFrame([]byte("fresh-op-seed")))
	f.Add(opFrame(bytes.Repeat([]byte{'x'}, 1<<20)))
	// Spans whose end wraps int64, upward and downward.
	f.Add(overflowFrames(false)[1])
	f.Add(overflowFrames(true)[2])
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reusing entry point must agree with the allocating one on
		// every input, hostile or not.
		sameDecode(t, data)
		meta, frags, err := DecodeBatchMeta(data)
		if err != nil {
			return
		}
		if meta.Rank < 0 {
			t.Fatalf("negative batch rank %d decoded", meta.Rank)
		}
		// A decoded batch must be internally consistent: the fragment
		// count was bounds-checked against the input size.
		if len(frags) > len(data) {
			t.Fatalf("%d fragments decoded from %d bytes", len(frags), len(data))
		}
		if meta.HasTrace && !meta.HasSeq {
			t.Fatal("traced batch without sequence")
		}
		for i := range frags {
			if endOverflows(frags[i].Start, frags[i].Elapsed) {
				t.Fatalf("fragment %d decoded with an overflowing span end", i)
			}
		}
	})
}

func FuzzDecodeHello(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendHello(nil, 1, []string{"127.0.0.1:9000", "127.0.0.1:9001"}))
	f.Add(AppendHello(nil, 7, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, addrs, err := DecodeHello(data)
		if err != nil {
			return
		}
		if len(addrs) > len(data) {
			t.Fatalf("%d addrs decoded from %d bytes", len(addrs), len(data))
		}
	})
}

func FuzzDecodeRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRecord(nil, []byte("payload")))
	f.Add(AppendRecord(nil, nil))
	f.Add(AppendRecord(AppendRecord(nil, []byte("a")), []byte("b")))
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := DecodeRecord(data)
		if err != nil {
			if !errors.Is(err, ErrShortRecord) && !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("unclassified decode error: %v", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("record size %d from %d input bytes", n, len(data))
		}
		if len(payload) >= n {
			t.Fatalf("payload %d bytes inside a %d-byte record", len(payload), n)
		}
		// A valid record re-encodes to the same bytes.
		if re := AppendRecord(nil, payload); string(re) != string(data[:n]) {
			t.Fatal("record does not round-trip")
		}
	})
}
