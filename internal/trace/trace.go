// Package trace defines the fragment records Vapro's interposition
// layer produces: one record per execution of a code snippet, carrying
// its running-state identity (call-site or call-path), elapsed virtual
// time, performance counters, and invocation arguments. Fragments are
// the unit everything downstream (STG, clustering, detection, diagnosis)
// operates on.
package trace

import (
	"fmt"
	"hash/fnv"
	"sync"
)

// Kind classifies a fragment by what produced it.
type Kind uint8

// Fragment kinds. Computation fragments attach to STG edges; the others
// attach to STG vertices.
const (
	Comp  Kind = iota // computation between two interceptions
	Comm              // a communication invocation
	IO                // a file-system invocation
	Sync              // a synchronization invocation (barrier, lock)
	Probe             // a user-defined probe (Dyninst-style)
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Comp:
		return "comp"
	case Comm:
		return "comm"
	case IO:
		return "io"
	case Sync:
		return "sync"
	case Probe:
		return "probe"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Site identifies a call-site: in the real tool this is the return
// address of the intercepted invocation; here it is the file:line of the
// application call, which plays the same role (identical across ranks
// running the same program, distinct per source location).
type Site string

// State identifies an STG vertex: a program running state. In
// context-free mode the state is just the call-site; in context-aware
// mode it is the hash of the whole call path. The textual form is kept
// for reports.
type State struct {
	Key  uint64 // hash identity used for STG lookup
	Name string // human-readable: call-site, optionally with path depth
}

// SiteState builds the context-free state for a call-site.
func SiteState(s Site) State {
	h := fnv.New64a()
	h.Write([]byte(s))
	return State{Key: h.Sum64(), Name: string(s)}
}

// PathState builds the context-aware state for a call-site reached via
// the given call path (outermost first).
func PathState(s Site, path []Site) State {
	h := fnv.New64a()
	for _, p := range path {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	h.Write([]byte(s))
	return State{Key: h.Sum64(), Name: fmt.Sprintf("%s@depth%d", s, len(path))}
}

// EntryState is the synthetic state a rank is in before its first
// interception (the STG source vertex).
var EntryState = State{Key: 0, Name: "<entry>"}

// OpSym is an interned operation name ("Send", "Allreduce", "read",
// ...). Operations come from a tiny fixed vocabulary but ride along on
// every fragment, so storing the string itself would make Fragment a
// pointer-carrying type. Keeping Fragment pointer-free means a symbol
// is one word of a fragment log's lane (see Log) — constant per STG
// element, so usually not stored per row at all — and the buffers that
// do hold whole fragments (wire decode, intake staging) are never
// scanned by the garbage collector. The zero OpSym is the empty name.
type OpSym uint32

// opInterner is the process-wide Op vocabulary. Reads vastly outnumber
// writes (the vocabulary stops growing almost immediately), so lookups
// take an RLock.
var opInterner = struct {
	sync.RWMutex
	ids   map[string]OpSym
	names []string
}{ids: map[string]OpSym{"": 0}, names: []string{""}}

// Op interns an operation name. Symbols are process-global and never
// released; the vocabulary is the set of intercepted call names, which
// is small and fixed.
func Op(name string) OpSym {
	opInterner.RLock()
	s, ok := opInterner.ids[name]
	opInterner.RUnlock()
	if ok {
		return s
	}
	opInterner.Lock()
	defer opInterner.Unlock()
	return internLocked(name)
}

// internLocked returns name's symbol, adding it if it is new. The
// caller holds the interner's write lock.
func internLocked(name string) OpSym {
	if s, ok := opInterner.ids[name]; ok {
		return s
	}
	s := OpSym(len(opInterner.names))
	opInterner.names = append(opInterner.names, name)
	opInterner.ids[name] = s
	return s
}

// The bounds on what a peer can add to the vocabulary. A frame may name
// any operation and nothing is ever released, so a name first seen on
// the wire is interned only while the vocabulary holds fewer than
// maxWireOps names, and only if it is at most maxWireOpName bytes: a
// peer can pin at most 64 KiB of names for the life of the process. The
// interposition layer's own vocabulary is two dozen names of under 16
// bytes. In-process Op is not bounded.
const (
	maxWireOps    = 1 << 10
	maxWireOpName = 64
)

// opOfBytes is Op for a name still sitting in a decode buffer, false
// for a new name past the wire bounds. A vocabulary hit — every sighting
// after the first — looks the bytes up in place, so the wire decoder's
// steady state allocates no strings.
func opOfBytes(name []byte) (OpSym, bool) {
	opInterner.RLock()
	s, ok := opInterner.ids[string(name)]
	opInterner.RUnlock()
	if ok {
		return s, true
	}
	if len(name) > maxWireOpName {
		return 0, false
	}
	opInterner.Lock()
	defer opInterner.Unlock()
	if s, ok := opInterner.ids[string(name)]; ok {
		return s, true
	}
	if len(opInterner.names) >= maxWireOps {
		return 0, false
	}
	return internLocked(string(name)), true
}

// String returns the interned operation name.
func (s OpSym) String() string {
	opInterner.RLock()
	defer opInterner.RUnlock()
	if int(s) < len(opInterner.names) {
		return opInterner.names[s]
	}
	return fmt.Sprintf("op(%d)", uint32(s))
}

// Pre-interned symbols for the interposition layer's fixed vocabulary,
// so the per-interception hot path never touches the interner lock.
var (
	OpSend      = Op("Send")
	OpRecv      = Op("Recv")
	OpSendrecv  = Op("Sendrecv")
	OpIsend     = Op("Isend")
	OpIrecv     = Op("Irecv")
	OpWait      = Op("Wait")
	OpWaitall   = Op("Waitall")
	OpBarrier   = Op("Barrier")
	OpBcast     = Op("Bcast")
	OpReduce    = Op("Reduce")
	OpAllreduce = Op("Allreduce")
	OpAlltoall  = Op("Alltoall")
	OpAllgather = Op("Allgather")
	OpGather    = Op("Gather")
	OpOpen      = Op("open")
	OpRead      = Op("read")
	OpWrite     = Op("write")
	OpClose     = Op("close")
	OpProbe     = Op("probe")
)

// Args carries the invocation arguments that approximate communication
// and IO workload (message size, peers, file descriptor, IO size, op).
// Unused fields are zero. Arguments become clustering dimensions.
type Args struct {
	Op    OpSym // interned operation name: Op("Send"), Op("read"), ...
	Bytes int   // message or IO size
	Peer  int   // src/dst rank or root; -1 when not applicable
	Tag   int   // message tag
	FD    int   // file descriptor for IO
	Mode  int   // IO open mode / collective scope
}

// Fragment is one execution of a code snippet with its performance data.
type Fragment struct {
	Rank    int    // producing process/thread
	Kind    Kind   // what kind of snippet
	From    uint64 // previous state key (for Comp fragments: the STG edge tail)
	State   uint64 // current state key (vertex, or edge head for Comp)
	Start   int64  // virtual start time, ns
	Elapsed int64  // virtual elapsed time, ns
	// Counters is the (masked) counter snapshot. For Comp fragments it
	// accumulates all Compute calls inside the snippet; for Comm/IO it
	// is mostly zero (PMU values of a wait loop are meaningless, as the
	// paper observes) and Args carries the workload instead.
	Counters CountersView
	Args     Args
	// Static marks a computation fragment all of whose constituent
	// compute calls carried compile-time-fixed workloads — the subset
	// a static-analysis tool like vSensor could have identified.
	Static bool
	// Truth is the exact workload identity of a computation fragment
	// (a hash of the un-jittered workload parameters). It models the
	// ground-truth execution-path instrumentation of §6.3 and is used
	// only by the clustering-verification experiment, never by the
	// detection algorithms themselves.
	Truth uint64
}

// CountersView is the subset of sim.Counters shipped to the analysis
// side. It is a plain value struct so fragments serialize trivially.
// Field meanings match sim.Counters.
type CountersView struct {
	TotIns        uint64
	Cycles        uint64
	SlotsFrontend uint64
	SlotsBadSpec  uint64
	SlotsRetiring uint64
	SlotsBackend  uint64
	SlotsCore     uint64
	SlotsMemory   uint64
	SlotsL1       uint64
	SlotsL2       uint64
	SlotsL3       uint64
	SlotsDRAM     uint64
	SuspensionNS  int64
	SoftPF        uint64
	HardPF        uint64
	VolCS         uint64
	InvolCS       uint64
	Signals       uint64
	LoadStores    uint64
	CacheMisses   uint64
	L2MissStall   uint64
}

// EdgeKey identifies an STG edge (a computation snippet between two
// states).
type EdgeKey struct {
	From, To uint64
}

// Edge returns the STG edge key of a computation fragment.
func (f *Fragment) Edge() EdgeKey { return EdgeKey{From: f.From, To: f.State} }

// End returns the virtual end time of the fragment.
func (f *Fragment) End() int64 { return f.Start + f.Elapsed }
