package exp

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden/<id>.txt from the current output")

// TestQuick runs every registered experiment at Small scale and compares
// its output byte for byte with testdata/golden/<id>.txt, which is
// `vaproexp <id>` without its closing "[<id> completed in …]" line. The
// experiments are deterministic, so a diff is a change in the paper's
// reproduced outputs. Regenerate with
//
//	go test ./internal/exp -run TestQuick -update
//
// and record the reason in an EXPERIMENTS.md row.
func TestQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are seconds-long")
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var out bytes.Buffer
			var w io.Writer = &out
			if testing.Verbose() {
				w = io.MultiWriter(&out, os.Stdout)
			}
			if _, err := e.Run(w, Small); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "golden", e.ID+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got := out.Bytes(); !bytes.Equal(got, want) {
				t.Errorf("output differs from %s at byte %d:\n%s", path, firstDiff(got, want), lineDiff(got, want))
			}
		})
	}
}

// firstDiff returns the first byte offset where a and b differ.
func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// lineDiff renders the first differing line of got and want.
func lineDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < max(len(g), len(w)); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d\n  got:  %s\n  want: %s", i+1, gl, wl)
		}
	}
	return ""
}
