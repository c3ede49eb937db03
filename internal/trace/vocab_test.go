package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// opFrame is a one-fragment batch naming operation name on the wire,
// written by hand: an encoder can only name what its own process has
// interned.
func opFrame(name []byte) []byte {
	b := []byte{wireMagic, wireVersion}
	b = binary.AppendUvarint(b, 3) // rank
	b = binary.AppendUvarint(b, 1) // fragments
	b = binary.AppendUvarint(b, 1) // keys
	b = binary.LittleEndian.AppendUint64(b, 9)
	b = append(b, byte(Comm)|flagArgs, 0, 0, 0, 0) // flags; From, State, Start, Elapsed
	b = binary.AppendUvarint(b, 1)                 // args bitmap: Op only
	b = binary.AppendUvarint(b, uint64(len(name)))
	return append(b, name...)
}

func vocabulary() int {
	opInterner.RLock()
	defer opInterner.RUnlock()
	return len(opInterner.names)
}

// restoreVocabulary un-interns, when t ends, every name t added: the
// vocabulary is process-global, and a test that fills it must not leave
// the package's other tests without room.
func restoreVocabulary(t *testing.T) {
	n := vocabulary()
	t.Cleanup(func() {
		opInterner.Lock()
		defer opInterner.Unlock()
		for _, name := range opInterner.names[n:] {
			delete(opInterner.ids, name)
		}
		opInterner.names = opInterner.names[:n]
	})
}

// TestWireVocabularyBounded: 10 000 frames, each naming an operation
// never seen before, grow the vocabulary to its cap and no further. The
// frames past the cap fail to decode; a known name still decodes.
func TestWireVocabularyBounded(t *testing.T) {
	restoreVocabulary(t)
	rejected := 0
	for i := 0; i < 10_000; i++ {
		name := fmt.Sprintf("fresh-op-%d", i)
		_, frags, err := DecodeBatchMeta(opFrame([]byte(name)))
		if err != nil {
			rejected++
			continue
		}
		if got := frags[0].Args.Op.String(); got != name {
			t.Fatalf("frame %d decoded op %q", i, got)
		}
	}
	if n := vocabulary(); n > maxWireOps {
		t.Fatalf("the vocabulary holds %d names, cap %d", n, maxWireOps)
	}
	if rejected == 0 || rejected == 10_000 {
		t.Fatalf("%d of 10000 fresh names rejected", rejected)
	}
	if _, frags, err := DecodeBatchMeta(opFrame([]byte("Allreduce"))); err != nil || frags[0].Args.Op != OpAllreduce {
		t.Fatalf("a known name at the cap: err %v", err)
	}
}

// TestWireRejectsLongOpName: a 1 MiB name is a decode error and is not
// interned; a name at the length bound is.
func TestWireRejectsLongOpName(t *testing.T) {
	restoreVocabulary(t)
	before := vocabulary()
	if _, _, err := DecodeBatchMeta(opFrame(bytes.Repeat([]byte{'x'}, 1<<20))); err == nil {
		t.Fatal("a 1 MiB operation name decoded")
	}
	if _, _, err := DecodeBatchMeta(opFrame(bytes.Repeat([]byte{'y'}, maxWireOpName+1))); err == nil {
		t.Fatal("a name one byte past the bound decoded")
	}
	if n := vocabulary(); n != before {
		t.Fatalf("rejected names grew the vocabulary from %d to %d", before, n)
	}
	if _, _, err := DecodeBatchMeta(opFrame(bytes.Repeat([]byte{'z'}, maxWireOpName))); err != nil {
		t.Fatalf("a name at the bound: %v", err)
	}
}
