package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// journalDirs returns shard i's journal at index i, however its name
// sorts: shard10 sorts before shard2.
func TestJournalDirsShardOrder(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 11; i++ {
		if err := os.Mkdir(filepath.Join(dir, fmt.Sprintf("shard%d", i)), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	dirs, err := journalDirs(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dirs {
		if want := filepath.Join(dir, fmt.Sprintf("shard%d", i)); d != want {
			t.Fatalf("dirs[%d] = %s, want %s", i, d, want)
		}
	}
	if err := os.RemoveAll(filepath.Join(dir, "shard4")); err != nil {
		t.Fatal(err)
	}
	if _, err := journalDirs(dir); err == nil {
		t.Fatal("a tier missing shard4 resolved")
	}
}
