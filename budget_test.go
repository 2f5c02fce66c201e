package streamit

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// lineBudgets caps the non-test Go of the packages whose size ROADMAP
// states a limit for, in lines as wc -l counts them.
var lineBudgets = map[string]int{
	"internal/exec":   5000, // ROADMAP item 3
	"internal/fuse":   900,  // ROADMAP item 26
	"internal/linear": 1150, // ROADMAP item 27
}

// TestPackageLineBudgets fails when a capped package's non-test Go files
// together pass their line budget: a change that needs the room makes it
// elsewhere in the package first.
func TestPackageLineBudgets(t *testing.T) {
	for dir, limit := range lineBudgets {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", dir, err)
		}
		lines := 0
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			lines += bytes.Count(b, []byte("\n"))
		}
		if lines > limit {
			t.Errorf("%s: %d lines of non-test Go, over its budget of %d", dir, lines, limit)
		}
	}
}
