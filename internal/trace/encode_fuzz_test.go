package trace

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
)

// appendFragsMap is the encoder appendFrags replaced, kept verbatim as
// the reference it is pinned against byte for byte: a map dictionary
// looked up twice per key, counter lanes copied and compared whole, and
// the op name read from the interner on every change.
func appendFragsMap(dst []byte, rank int, frags []Fragment) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(frags)))

	// State-key dictionary, first-seen order (From then State per
	// fragment). Entry fragments share key 0 with real states rarely, so
	// the dictionary stays tiny relative to 8-byte raw hashes.
	keyIdx := make(map[uint64]int, 16)
	var keys []uint64
	intern := func(k uint64) int {
		if i, ok := keyIdx[k]; ok {
			return i
		}
		i := len(keys)
		keyIdx[k] = i
		keys = append(keys, k)
		return i
	}
	for i := range frags {
		intern(frags[i].From)
		intern(frags[i].State)
	}
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}

	var prevStart, prevElapsed int64
	var prevCounters [numCounterLanes]uint64
	var prevArgs Args
	for i := range frags {
		f := &frags[i]
		lanes := counterLanes(&f.Counters)

		flags := byte(0)
		if f.Kind < flagKindEscape {
			flags = byte(f.Kind)
		} else {
			flags = flagKindEscape
		}
		if f.Static {
			flags |= flagStatic
		}
		if f.Truth != 0 {
			flags |= flagTruth
		}
		if f.Args != prevArgs {
			flags |= flagArgs
		}
		if lanes != prevCounters {
			flags |= flagCounters
		}
		if f.Rank != rank {
			flags |= flagRank
		}
		dst = append(dst, flags)
		if flags&flagKindMask == flagKindEscape {
			dst = append(dst, byte(f.Kind))
		}
		if flags&flagRank != 0 {
			dst = binary.AppendUvarint(dst, zigzag(int64(f.Rank)-int64(rank)))
		}
		dst = binary.AppendUvarint(dst, uint64(keyIdx[f.From]))
		dst = binary.AppendUvarint(dst, uint64(keyIdx[f.State]))
		dst = binary.AppendUvarint(dst, zigzag(f.Start-prevStart))
		dst = binary.AppendUvarint(dst, zigzag(f.Elapsed-prevElapsed))
		prevStart, prevElapsed = f.Start, f.Elapsed

		if flags&flagCounters != 0 {
			var bitmap uint64
			for l := 0; l < numCounterLanes; l++ {
				if lanes[l] != prevCounters[l] {
					bitmap |= 1 << l
				}
			}
			dst = binary.AppendUvarint(dst, bitmap)
			for l := 0; l < numCounterLanes; l++ {
				if bitmap&(1<<l) != 0 {
					// Wrapping delta: exact for every uint64 value.
					dst = binary.AppendUvarint(dst, zigzag(int64(lanes[l]-prevCounters[l])))
				}
			}
			prevCounters = lanes
		}
		if flags&flagArgs != 0 {
			var bitmap uint64
			if f.Args.Op != prevArgs.Op {
				bitmap |= 1 << 0
			}
			if f.Args.Bytes != prevArgs.Bytes {
				bitmap |= 1 << 1
			}
			if f.Args.Peer != prevArgs.Peer {
				bitmap |= 1 << 2
			}
			if f.Args.Tag != prevArgs.Tag {
				bitmap |= 1 << 3
			}
			if f.Args.FD != prevArgs.FD {
				bitmap |= 1 << 4
			}
			if f.Args.Mode != prevArgs.Mode {
				bitmap |= 1 << 5
			}
			dst = binary.AppendUvarint(dst, bitmap)
			if bitmap&(1<<0) != 0 {
				op := f.Args.Op.String()
				dst = binary.AppendUvarint(dst, uint64(len(op)))
				dst = append(dst, op...)
			}
			if bitmap&(1<<1) != 0 {
				dst = binary.AppendUvarint(dst, zigzag(int64(f.Args.Bytes)))
			}
			if bitmap&(1<<2) != 0 {
				dst = binary.AppendUvarint(dst, zigzag(int64(f.Args.Peer)))
			}
			if bitmap&(1<<3) != 0 {
				dst = binary.AppendUvarint(dst, zigzag(int64(f.Args.Tag)))
			}
			if bitmap&(1<<4) != 0 {
				dst = binary.AppendUvarint(dst, zigzag(int64(f.Args.FD)))
			}
			if bitmap&(1<<5) != 0 {
				dst = binary.AppendUvarint(dst, zigzag(int64(f.Args.Mode)))
			}
			prevArgs = f.Args
		}
		if flags&flagTruth != 0 {
			dst = binary.AppendUvarint(dst, f.Truth)
		}
	}
	return dst
}

// maxBatchFrags keeps one fuzz execution short.
const maxBatchFrags = 600

// runAppendScript reads data as a batch — its rank, then fragments — and
// requires appendFrags to write exactly appendFragsMap's bytes. Each
// step is one of:
//
//	0  a fresh fragment (script.fragment: any field group, extremes)
//	1  the previous fragment again, at a new start and elapsed
//	2  the previous fragment with one counter lane, argument or its rank changed
//	3  a run of the previous fragment over fresh state keys, growing the
//	   dictionary past its first tables
func runAppendScript(t *testing.T, data []byte) {
	s := &script{data: data}
	rank := int(int64(s.word()))
	var frags []Fragment
	last := func() Fragment {
		if len(frags) == 0 {
			return Fragment{}
		}
		return frags[len(frags)-1]
	}
	for !s.done() && len(frags) < maxBatchFrags {
		switch s.byte() % 4 {
		case 0:
			frags = append(frags, s.fragment())
		case 1:
			f := last()
			f.Start, f.Elapsed = int64(s.word()), int64(s.word())
			frags = append(frags, f)
		case 2:
			f := last()
			k := int(s.byte())
			if k%2 == 0 {
				l := counterLanes(&f.Counters)
				l[k/2%numCounterLanes] = s.word()
				setCounterLanes(&f.Counters, l)
			} else {
				x := s.word()
				switch k / 2 % 7 {
				case 0:
					f.Args.Op = [...]OpSym{0, OpSend, OpAllreduce, OpWrite, OpSym(x)}[x%5]
				case 1:
					f.Args.Bytes = int(int64(x))
				case 2:
					f.Args.Peer = int(int64(x))
				case 3:
					f.Args.Tag = int(int64(x))
				case 4:
					f.Args.FD = int(int64(x))
				case 5:
					f.Args.Mode = int(int64(x))
				default:
					f.Rank = int(int64(x))
				}
			}
			frags = append(frags, f)
		case 3:
			f := last()
			for n := int(s.byte()); n > 0 && len(frags) < maxBatchFrags; n-- {
				f.From, f.State = f.State, f.State*31+uint64(n)
				frags = append(frags, f)
			}
		}
	}
	sameEncoding(t, rank, frags)
}

// sameEncoding requires appendFrags and appendFragsMap to write the same
// bytes for one batch.
func sameEncoding(t *testing.T, rank int, frags []Fragment) {
	t.Helper()
	got, want := appendFrags(nil, rank, frags), appendFragsMap(nil, rank, frags)
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Fatalf("%d fragments at rank %d: %d bytes, the map encoder wrote %d; they differ from byte %d",
			len(frags), rank, len(got), len(want), i)
	}
}

// appendSeeds: an empty batch, a dictionary grown through three tables,
// argument and op changes over repeated fragments, and random scripts.
func appendSeeds() [][]byte {
	seeds := [][]byte{
		{},
		{0, 3, 255, 3, 255, 3, 255},
		{0, 0, 7, 0x81, 9, 1, 2, 3, 0xA0, 1, 2, 5, 0xF0, 1, 2, 3, 4, 5, 6, 7, 8, 2, 4, 0x81, 9, 1, 0xA0, 7},
	}
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{40, 300, 2000} {
		seed := make([]byte, n)
		rng.Read(seed)
		seeds = append(seeds, seed)
	}
	return seeds
}

// FuzzAppendBatch: any batch the script language can spell encodes to
// the replaced encoder's bytes.
func FuzzAppendBatch(f *testing.F) {
	for _, seed := range appendSeeds() {
		f.Add(seed)
	}
	f.Fuzz(runAppendScript)
}

// randomBatch draws a batch shaped like a client flush: computation
// fragments over a few edges with drifting TOT_INS, communication and
// IO fragments with changing arguments, the odd foreign rank.
func randomBatch(rng *rand.Rand) (rank int, frags []Fragment) {
	rank = rng.Intn(64)
	frags = make([]Fragment, rng.Intn(300))
	var clock int64
	for i := range frags {
		f := Fragment{Rank: rank, Start: clock, Elapsed: int64(900_000 + rng.Intn(200_000))}
		switch r := rng.Intn(16); {
		case r < 10:
			e := uint64(rng.Intn(8))
			f.Kind, f.From, f.State = Comp, e+1, e+2
			f.Counters = CountersView{TotIns: uint64(1+rng.Intn(5))*1_000_000 + uint64(rng.Intn(1000)),
				Cycles: uint64(rng.Intn(3)), SuspensionNS: -int64(rng.Intn(2))}
		case r < 14:
			f.Kind, f.From, f.State = Comm, uint64(rng.Intn(3)), uint64(1000+rng.Intn(40))
			f.Args = Args{Op: [...]OpSym{OpAllreduce, OpSend, OpRecv}[rng.Intn(3)], Bytes: 1 << rng.Intn(20), Peer: rng.Intn(3) - 1, Tag: rng.Intn(4)}
		default:
			f.Kind, f.State = IO, uint64(2000+rng.Intn(4))
			f.Args = Args{Op: OpWrite, Bytes: 4096 << rng.Intn(3), FD: 3 + rng.Intn(2)}
		}
		if rng.Intn(50) == 0 {
			f.Rank = rng.Intn(1 << 20)
		}
		if rng.Intn(40) == 0 {
			f.Kind, f.Static, f.Truth = Kind(5+rng.Intn(250)), true, rng.Uint64()
		}
		clock += f.Elapsed - int64(rng.Intn(2000))
		frags[i] = f
	}
	return rank, frags
}

// TestAppendBatchMatchesMap is the plain-`go test` breadth behind
// FuzzAppendBatch: 20 000 client-shaped batches and 2 000 random scripts
// encode to the replaced encoder's bytes.
func TestAppendBatchMatchesMap(t *testing.T) {
	batches, scripts := 20_000, 2_000
	if testing.Short() {
		batches, scripts = 2_000, 200
	}
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < batches; i++ {
		rank, frags := randomBatch(rng)
		sameEncoding(t, rank, frags)
	}
	for i := 0; i < scripts; i++ {
		script := make([]byte, rng.Intn(1500))
		rng.Read(script)
		runAppendScript(t, script)
	}
}

// TestCounterWordsMatchLanes pins counterWords' layout assumption: field
// for field, the struct is counterLanes' order.
func TestCounterWordsMatchLanes(t *testing.T) {
	var l [numCounterLanes]uint64
	for k := range l {
		l[k] = uint64(k+1) * 0x0101_0101
	}
	l[12] = 1 << 63 // SuspensionNS: a negative int64
	var c CountersView
	setCounterLanes(&c, l)
	if *counterWords(&c) != counterLanes(&c) || counterLanes(&c) != l {
		t.Fatalf("counterWords %v, counterLanes %v", *counterWords(&c), counterLanes(&c))
	}
}
