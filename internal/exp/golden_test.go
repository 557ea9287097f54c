package exp

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestQuickTablesGolden pins the quick T7 (delay) and T9 (compaction)
// tables byte for byte. Both extension engines run core's effect-cause
// pipeline behind their own observation encoding, so any drift in seed
// extraction, class folding, cover or ranking shows up here as a table
// diff. Regenerate with UPDATE_GOLDEN=1 go test ./internal/exp -run
// QuickTablesGolden, and only for an intended change of the tables.
func TestQuickTablesGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(io.Writer, Options) error
	}{
		{"t7_quick", T7DelayDefects},
		{"t9_quick", T9Compaction},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.run(&buf, Options{Quick: true}); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".txt")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("golden missing (regenerate with UPDATE_GOLDEN=1): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s drifted from golden.\n got:\n%s\nwant:\n%s", tc.name, buf.Bytes(), want)
			}
		})
	}
}
