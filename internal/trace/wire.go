// Fragment wire format: the compact binary encoding the client library
// uses to ship fragment batches to the analysis servers (§5). The §6.2
// storage rates (12.8–47.4 KB/s per rank) are measured over this
// encoding, so it is deliberately byte-frugal:
//
//   - state keys are dictionary-coded per batch (a batch revisits the
//     same few call-sites over and over, so each fragment stores a 1-2
//     byte index instead of an 8-byte hash),
//   - timestamps are zigzag-varint deltas against the previous fragment
//     (client buffers are near time-ordered, so deltas are small, but
//     out-of-order and negative values still round-trip),
//   - counters and invocation arguments are change-coded: a bitmap
//     marks the fields that differ from the previous fragment, and only
//     those are stored, as wrapping zigzag deltas (repeated identical
//     snapshots cost one bitmap byte; zero fields cost nothing).
//
// The format is self-contained per batch: a decoder needs no state
// beyond the batch bytes.
package trace

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"
)

// wireVersion is bumped on incompatible format changes.
const wireVersion = 1

// wireVersionSeq is the sequenced variant: identical to version 1 plus
// a per-rank batch sequence number after the rank, stamped by the
// resilient client so the server can account for lost and duplicated
// batches exactly (gaps in the sequence are batches that died with a
// connection or were evicted from a client's spill queue).
const wireVersionSeq = 2

// wireVersionHello is the server→client hello payload: not a batch at
// all, but the shard map (version + per-shard server addresses) a
// sharded server tier announces on every accepted connection, so a
// client can dial the server that owns its rank directly. It shares the
// magic/version framing with batches so the one frame a client ever
// reads is distinguishable from anything a batch decoder would accept.
const wireVersionHello = 3

// wireVersionTraced is the traced variant: the sequenced layout plus a
// compact trace context — the flushing client's id and the flush wall
// time in ns — stamped after the sequence number. The context makes one
// batch's journey identifiable across processes (client id + per-rank
// seq) and lets the server reconstruct flush→deliver latency without
// clock coordination beyond the hosts' own wall clocks. Older decoders
// reject the unknown version cleanly; nothing else changes.
const wireVersionTraced = 4

// wireMagic is the first byte of every encoded batch.
const wireMagic = 'V'

// maxHelloAddrs bounds the shard count a hello may claim, rejecting
// absurd values before allocating (a corrupt hello must not OOM the
// client library inside the traced application).
const maxHelloAddrs = 1 << 16

// maxHelloAddrLen bounds one announced address.
const maxHelloAddrLen = 1 << 10

// numCounterLanes is the number of fields in CountersView.
const numCounterLanes = 21

// minFragmentWire is the smallest possible encoded fragment: one flags
// byte plus one-byte varints for the From index, State index, Start
// delta, and Elapsed delta.
const minFragmentWire = 5

// Fragment flags byte layout.
const (
	flagKindMask   = 0x07 // bits 0-2: Kind (7 = escape, raw byte follows)
	flagKindEscape = 0x07
	flagStatic     = 1 << 3
	flagTruth      = 1 << 4
	flagArgs       = 1 << 5 // Args differ from previous fragment's
	flagCounters   = 1 << 6 // Counters differ from previous fragment's
	flagRank       = 1 << 7 // Rank differs from the batch rank
)

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// counterLanes flattens a CountersView into uint64 lanes in field order
// (SuspensionNS is reinterpreted; wrapping deltas preserve it exactly).
func counterLanes(c *CountersView) (l [numCounterLanes]uint64) {
	counterLanesInto(&l, c)
	return l
}

// counterLanesInto is counterLanes written in place (the fragment log
// flattens a row per append and cannot afford the array copy).
func counterLanesInto(l *[numCounterLanes]uint64, c *CountersView) {
	l[0], l[1] = c.TotIns, c.Cycles
	l[2], l[3], l[4], l[5] = c.SlotsFrontend, c.SlotsBadSpec, c.SlotsRetiring, c.SlotsBackend
	l[6], l[7] = c.SlotsCore, c.SlotsMemory
	l[8], l[9], l[10], l[11] = c.SlotsL1, c.SlotsL2, c.SlotsL3, c.SlotsDRAM
	l[12] = uint64(c.SuspensionNS)
	l[13], l[14], l[15], l[16], l[17] = c.SoftPF, c.HardPF, c.VolCS, c.InvolCS, c.Signals
	l[18], l[19], l[20] = c.LoadStores, c.CacheMisses, c.L2MissStall
}

// setCounterLanes is the inverse of counterLanes.
func setCounterLanes(c *CountersView, l [numCounterLanes]uint64) {
	c.TotIns, c.Cycles = l[0], l[1]
	c.SlotsFrontend, c.SlotsBadSpec, c.SlotsRetiring, c.SlotsBackend = l[2], l[3], l[4], l[5]
	c.SlotsCore, c.SlotsMemory = l[6], l[7]
	c.SlotsL1, c.SlotsL2, c.SlotsL3, c.SlotsDRAM = l[8], l[9], l[10], l[11]
	c.SuspensionNS = int64(l[12])
	c.SoftPF, c.HardPF, c.VolCS, c.InvolCS, c.Signals = l[13], l[14], l[15], l[16], l[17]
	c.LoadStores, c.CacheMisses, c.L2MissStall = l[18], l[19], l[20]
}

// AppendBatch encodes one client batch onto dst and returns the
// extended slice. The encoding is decoded by DecodeBatch.
func AppendBatch(dst []byte, rank int, frags []Fragment) []byte {
	dst = append(dst, wireMagic, wireVersion)
	dst = binary.AppendUvarint(dst, uint64(rank))
	return appendFrags(dst, rank, frags)
}

// AppendBatchSeq encodes a sequenced (version 2) batch: the same layout
// as AppendBatch plus seq, the client's per-rank batch sequence number.
func AppendBatchSeq(dst []byte, rank int, seq uint64, frags []Fragment) []byte {
	dst = append(dst, wireMagic, wireVersionSeq)
	dst = binary.AppendUvarint(dst, uint64(rank))
	dst = binary.AppendUvarint(dst, seq)
	return appendFrags(dst, rank, frags)
}

// AppendBatchTraced encodes a traced (version 4) batch: the sequenced
// layout plus the trace context (client id, flush wall ns).
func AppendBatchTraced(dst []byte, rank int, seq, clientID uint64, flushNS int64, frags []Fragment) []byte {
	dst = append(dst, wireMagic, wireVersionTraced)
	dst = binary.AppendUvarint(dst, uint64(rank))
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, clientID)
	dst = binary.AppendUvarint(dst, zigzag(flushNS))
	return appendFrags(dst, rank, frags)
}

// AppendHello encodes a shard-map hello onto dst: the map version
// followed by the per-shard server addresses (index = shard id). The
// payload is decoded by DecodeHello; IsHello distinguishes it from
// batch payloads without decoding either.
func AppendHello(dst []byte, version uint64, addrs []string) []byte {
	dst = append(dst, wireMagic, wireVersionHello)
	dst = binary.AppendUvarint(dst, version)
	dst = binary.AppendUvarint(dst, uint64(len(addrs)))
	for _, a := range addrs {
		dst = binary.AppendUvarint(dst, uint64(len(a)))
		dst = append(dst, a...)
	}
	return dst
}

// IsHello reports whether a frame payload is a shard-map hello rather
// than a fragment batch.
func IsHello(payload []byte) bool {
	return len(payload) >= 2 && payload[0] == wireMagic && payload[1] == wireVersionHello
}

// DecodeHello decodes a hello payload produced by AppendHello. The
// whole input must be consumed (hellos ride the same length-prefixed
// framing as batches).
func DecodeHello(data []byte) (version uint64, addrs []string, err error) {
	r := &wireReader{data: data}
	if m := r.byte(); r.err == nil && m != wireMagic {
		return 0, nil, fmt.Errorf("trace: bad hello magic %#x", m)
	}
	if v := r.byte(); r.err == nil && v != wireVersionHello {
		return 0, nil, fmt.Errorf("trace: hello version %d, want %d", v, wireVersionHello)
	}
	version = r.uvarint()
	n := r.uvarint()
	if n > maxHelloAddrs || n > uint64(len(data)) {
		return 0, nil, fmt.Errorf("trace: hello claims %d shards in %d bytes", n, len(data))
	}
	addrs = make([]string, 0, n)
	for i := uint64(0); i < n && r.err == nil; i++ {
		l := r.uvarint()
		if l > maxHelloAddrLen {
			return 0, nil, fmt.Errorf("trace: hello address of %d bytes", l)
		}
		addrs = append(addrs, string(r.bytes(int(l))))
	}
	if r.err != nil {
		return 0, nil, r.err
	}
	if r.pos != len(data) {
		return 0, nil, fmt.Errorf("trace: %d trailing bytes after hello", len(data)-r.pos)
	}
	return version, addrs, nil
}

// counterWords views c as its lanes, in counterLanes order: the struct
// is numCounterLanes 8-byte fields in exactly that order (SuspensionNS
// reads as its two's-complement bits, as counterLanes makes it).
func counterWords(c *CountersView) *[numCounterLanes]uint64 {
	return (*[numCounterLanes]uint64)(unsafe.Pointer(c))
}

// counterWords is sound only while CountersView is numCounterLanes
// words: either array length goes negative, and fails to compile, if
// the size moves.
var (
	_ [unsafe.Sizeof(CountersView{}) - numCounterLanes*8]struct{}
	_ [numCounterLanes*8 - unsafe.Sizeof(CountersView{})]struct{}
)

// keyDict is a batch's state-key dictionary: the keys in first-seen
// order, an open-addressing table over them, and the last key looked up
// (a batch revisits a handful of keys, often the one just seen).
type keyDict struct {
	keys  []uint64
	slots []int32 // 1 + the index of the key hashed there, 0 empty; at most half full
	shift uint    // 64 - log2(len(slots))
	last  uint64
	lastI int // last's index, -1 before the first lookup
}

func newKeyDict() keyDict {
	return keyDict{keys: make([]uint64, 0, 32), slots: make([]int32, 64), shift: 64 - 6, lastI: -1}
}

func (d *keyDict) home(k uint64) int { return int(k * 0x9E3779B97F4A7C15 >> d.shift) }

// index returns k's index, adding k if it is new.
func (d *keyDict) index(k uint64) int {
	if k == d.last && d.lastI >= 0 {
		return d.lastI
	}
	mask := len(d.slots) - 1
	h := d.home(k)
	for ; d.slots[h] != 0; h = (h + 1) & mask {
		if i := int(d.slots[h]) - 1; d.keys[i] == k {
			d.last, d.lastI = k, i
			return i
		}
	}
	i := len(d.keys)
	d.keys = append(d.keys, k)
	d.slots[h] = int32(i + 1)
	if 2*len(d.keys) > len(d.slots) {
		d.slots, d.shift = make([]int32, 2*len(d.slots)), d.shift-1
		mask = len(d.slots) - 1
		for j, k := range d.keys {
			h := d.home(k)
			for d.slots[h] != 0 {
				h = (h + 1) & mask
			}
			d.slots[h] = int32(j + 1)
		}
	}
	d.last, d.lastI = k, i
	return i
}

// appendFrags encodes the version-independent tail of a batch: the
// fragment count, the state-key dictionary, and the fragment stream.
func appendFrags(dst []byte, rank int, frags []Fragment) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(frags)))

	// State-key dictionary, first-seen order (From then State per
	// fragment). Entry fragments share key 0 with real states rarely, so
	// the dictionary stays tiny relative to 8-byte raw hashes.
	keys := newKeyDict()
	for i := range frags {
		keys.index(frags[i].From)
		keys.index(frags[i].State)
	}
	dst = binary.AppendUvarint(dst, uint64(len(keys.keys)))
	for _, k := range keys.keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}

	var prevStart, prevElapsed int64
	prevCounters := new([numCounterLanes]uint64)
	var prevArgs Args
	// The name of the last operation written: a batch's ops change
	// rarely, and a lookup takes the interner's lock.
	op, opName := OpSym(0), ""
	for i := range frags {
		f := &frags[i]
		lanes := counterWords(&f.Counters)
		// changed: bit l set iff lane l moved. TOT_INS moves on nearly
		// every computation fragment and the other lanes mostly stay put,
		// so those are compared as one block and walked only if it moved.
		var changed uint64
		if lanes[0] != prevCounters[0] {
			changed = 1
		}
		if *(*[numCounterLanes - 1]uint64)(lanes[1:]) != *(*[numCounterLanes - 1]uint64)(prevCounters[1:]) {
			for l := 1; l < numCounterLanes; l++ {
				d := lanes[l] ^ prevCounters[l]
				changed |= (d | -d) >> 63 << l // no branch: armed lanes move unpredictably
			}
		}

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
		if changed != 0 {
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
		dst = binary.AppendUvarint(dst, uint64(keys.index(f.From)))
		dst = binary.AppendUvarint(dst, uint64(keys.index(f.State)))
		dst = binary.AppendUvarint(dst, zigzag(f.Start-prevStart))
		dst = binary.AppendUvarint(dst, zigzag(f.Elapsed-prevElapsed))
		prevStart, prevElapsed = f.Start, f.Elapsed

		if changed != 0 {
			dst = binary.AppendUvarint(dst, changed)
			for m := changed; m != 0; m &= m - 1 {
				l := bits.TrailingZeros64(m)
				// Wrapping delta: exact for every uint64 value.
				dst = binary.AppendUvarint(dst, zigzag(int64(lanes[l]-prevCounters[l])))
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
				if f.Args.Op != op {
					op, opName = f.Args.Op, f.Args.Op.String()
				}
				dst = binary.AppendUvarint(dst, uint64(len(opName)))
				dst = append(dst, opName...)
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

// wireReader walks an encoded batch with bounds checking.
type wireReader struct {
	data []byte
	pos  int
	err  error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("trace: corrupt batch: "+format, args...)
	}
}

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.pos >= len(r.data) {
		r.fail("truncated at %d", r.pos)
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail("bad varint at %d", r.pos)
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.data)-r.pos {
		r.fail("truncated run of %d at %d", n, r.pos)
		// The placeholder only has to satisfy fixed-size reads (the
		// 8-byte key lanes); n itself may be a hostile length claim
		// and must never size an allocation.
		return make([]byte, min(max(n, 0), 64))
	}
	b := r.data[r.pos : r.pos+n]
	r.pos += n
	return b
}

// endOverflows reports whether a span's end, start+elapsed, wraps int64.
func endOverflows(start, elapsed int64) bool {
	return (elapsed > 0 && start > math.MaxInt64-elapsed) ||
		(elapsed < 0 && start < math.MinInt64-elapsed)
}

// BatchMeta is the per-batch header DecodeBatchMeta returns: the
// client rank plus, for sequenced (version 2+) batches, the per-rank
// sequence number, and for traced (version 4) batches, the trace
// context (flushing client id + flush wall ns).
type BatchMeta struct {
	Rank     int
	Seq      uint64
	HasSeq   bool
	ClientID uint64
	FlushNS  int64
	HasTrace bool
}

// DecodeBatch decodes a batch produced by AppendBatch or
// AppendBatchSeq, discarding any sequence metadata. The whole input
// must be consumed (the transport frames batches with explicit lengths).
func DecodeBatch(data []byte) (rank int, frags []Fragment, err error) {
	meta, frags, err := DecodeBatchMeta(data)
	return meta.Rank, frags, err
}

// DecodeBatchMeta decodes a batch along with its header metadata into
// a freshly allocated fragment slice.
func DecodeBatchMeta(data []byte) (meta BatchMeta, frags []Fragment, err error) {
	return DecodeBatchMetaInto(nil, data)
}

// DecodeBatchMetaInto is DecodeBatchMeta decoding into dst's backing
// array (from index 0; dst's contents and length are ignored, and it is
// regrown only when the batch outgrows its capacity). A receive loop
// that hands each batch to a sink which copies before returning — the
// interpose.Sink contract — passes the previous call's result back in
// and decodes without allocating: every fragment is written whole, and
// state keys are read straight out of data, so no per-batch table is
// built. On error the returned slice is nil (dst's elements may have
// been overwritten).
func DecodeBatchMetaInto(dst []Fragment, data []byte) (meta BatchMeta, frags []Fragment, err error) {
	r := &wireReader{data: data}
	if m := r.byte(); r.err == nil && m != wireMagic {
		return meta, nil, fmt.Errorf("trace: bad batch magic %#x", m)
	}
	v := r.byte()
	if r.err == nil && v != wireVersion && v != wireVersionSeq && v != wireVersionTraced {
		return meta, nil, fmt.Errorf("trace: batch version %d, want %d, %d or %d", v, wireVersion, wireVersionSeq, wireVersionTraced)
	}
	// Ranks index per-rank tables on the server; a value that does not
	// fit a 32-bit int (or turns negative through the conversion) is a
	// corrupt or hostile header, never a real client.
	urank := r.uvarint()
	if urank > math.MaxInt32 {
		return meta, nil, fmt.Errorf("trace: batch rank %d out of range", urank)
	}
	rank := int(urank)
	meta.Rank = rank
	if v == wireVersionSeq || v == wireVersionTraced {
		meta.Seq = r.uvarint()
		meta.HasSeq = true
	}
	if v == wireVersionTraced {
		meta.ClientID = r.uvarint()
		meta.FlushNS = unzigzag(r.uvarint())
		meta.HasTrace = true
	}
	count := r.uvarint()
	// A fragment takes ≥ minFragmentWire bytes; this bound rejects absurd
	// counts before allocating. Division (not count*minFragmentWire) so a
	// hostile count near 2^64 cannot wrap the comparison.
	if count > uint64(len(data))/minFragmentWire {
		return meta, nil, fmt.Errorf("trace: batch claims %d fragments in %d bytes", count, len(data))
	}
	nkeys := r.uvarint()
	if nkeys > uint64(len(data))/8 {
		return meta, nil, fmt.Errorf("trace: batch claims %d keys in %d bytes", nkeys, len(data))
	}
	// The dictionary is nkeys little-endian words in place; fragments
	// index into it where it lies.
	keys := r.bytes(8 * int(nkeys))
	if r.err != nil {
		return meta, nil, r.err
	}
	key := func(idx uint64) uint64 {
		if idx >= nkeys {
			r.fail("key index %d of %d", idx, nkeys)
			return 0
		}
		return binary.LittleEndian.Uint64(keys[8*idx:])
	}

	// Pre-size for the claimed count, but cap the up-front allocation: a
	// hostile count within the byte bound could still demand ~50× the
	// payload in Fragment memory before the parse loop hits an error.
	// Honest large batches just regrow geometrically.
	preAlloc := count
	if preAlloc > 4096 {
		preAlloc = 4096
	}
	frags = dst[:0]
	if uint64(cap(frags)) < preAlloc {
		frags = make([]Fragment, 0, preAlloc)
	}
	var prevStart, prevElapsed int64
	var prevCounters [numCounterLanes]uint64
	var prevArgs Args
	for i := uint64(0); i < count && r.err == nil; i++ {
		var f Fragment
		flags := r.byte()
		if flags&flagKindMask == flagKindEscape {
			f.Kind = Kind(r.byte())
		} else {
			f.Kind = Kind(flags & flagKindMask)
		}
		f.Static = flags&flagStatic != 0
		f.Rank = rank
		if flags&flagRank != 0 {
			f.Rank = rank + int(unzigzag(r.uvarint()))
		}
		f.From = key(r.uvarint())
		f.State = key(r.uvarint())
		f.Start = prevStart + unzigzag(r.uvarint())
		f.Elapsed = prevElapsed + unzigzag(r.uvarint())
		prevStart, prevElapsed = f.Start, f.Elapsed
		// Window bounds compare against the span's end, Start+Elapsed; a
		// pair whose end wraps int64 is corrupt or hostile (no clock gets
		// there), and analysis would answer it inconsistently.
		if endOverflows(f.Start, f.Elapsed) {
			r.fail("fragment %d span end %d%+d overflows int64", i, f.Start, f.Elapsed)
			break
		}

		if flags&flagCounters != 0 {
			bitmap := r.uvarint()
			if bitmap >= 1<<numCounterLanes {
				r.fail("counter bitmap %#x", bitmap)
				break
			}
			for l := 0; l < numCounterLanes; l++ {
				if bitmap&(1<<l) != 0 {
					prevCounters[l] += uint64(unzigzag(r.uvarint()))
				}
			}
		}
		setCounterLanes(&f.Counters, prevCounters)
		if flags&flagArgs != 0 {
			bitmap := r.uvarint()
			if bitmap >= 1<<6 {
				r.fail("args bitmap %#x", bitmap)
				break
			}
			if bitmap&(1<<0) != 0 {
				name := r.bytes(int(r.uvarint()))
				if r.err != nil {
					break
				}
				op, ok := opOfBytes(name)
				if !ok {
					r.fail("new operation name of %d bytes past the wire vocabulary bounds", len(name))
					break
				}
				prevArgs.Op = op
			}
			if bitmap&(1<<1) != 0 {
				prevArgs.Bytes = int(unzigzag(r.uvarint()))
			}
			if bitmap&(1<<2) != 0 {
				prevArgs.Peer = int(unzigzag(r.uvarint()))
			}
			if bitmap&(1<<3) != 0 {
				prevArgs.Tag = int(unzigzag(r.uvarint()))
			}
			if bitmap&(1<<4) != 0 {
				prevArgs.FD = int(unzigzag(r.uvarint()))
			}
			if bitmap&(1<<5) != 0 {
				prevArgs.Mode = int(unzigzag(r.uvarint()))
			}
		}
		f.Args = prevArgs
		if flags&flagTruth != 0 {
			f.Truth = r.uvarint()
		}
		frags = append(frags, f)
	}
	if r.err != nil {
		return meta, nil, r.err
	}
	if r.pos != len(data) {
		return meta, nil, fmt.Errorf("trace: %d trailing bytes after batch", len(data)-r.pos)
	}
	return meta, frags, nil
}

// sizeBufs recycles the scratch buffer BatchWireSize encodes into, so
// the per-batch byte accounting on the ingestion hot path allocates
// nothing in steady state.
var sizeBufs = sync.Pool{New: func() any { b := make([]byte, 0, 16<<10); return &b }}

// BatchWireSize returns the encoded size of a batch in bytes — the
// measured transport volume the §6.2 storage accounting reports.
func BatchWireSize(rank int, frags []Fragment) int {
	bp := sizeBufs.Get().(*[]byte)
	b := AppendBatch((*bp)[:0], rank, frags)
	n := len(b)
	*bp = b[:0]
	sizeBufs.Put(bp)
	return n
}
