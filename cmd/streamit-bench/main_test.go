package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds the binary and drives it the way a user does: a
// paper table renders, and everything that is not a paper table — an
// unknown name, the retired runtime modes, the retired frequency-block
// ablation and the snapshot flags — is refused with the usage status.
func TestCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "streamit-bench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	run := func(args ...string) (string, int) {
		cmd := exec.Command(bin, args...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatalf("streamit-bench %s: %v", strings.Join(args, " "), err)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}

	out, code := run("-table", "benchchar")
	if code != 0 {
		t.Fatalf("-table benchchar exited %d:\n%s", code, out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if rows := len(lines) - 2; rows != 12 || !strings.HasPrefix(lines[len(lines)-1], "Radar") { // title + header
		t.Fatalf("benchchar rendered %d rows, want the 12 suite apps ending in Radar:\n%s", rows, out)
	}

	refused := [][]string{
		{"-table", "nosuch"},
		{"-table", "mapped"},
		{"-table", "freqblocks"},
		{"-json", dir},
		{"-validate", "*.json"},
	}
	for _, args := range refused {
		if out, code := run(args...); code != 2 {
			t.Errorf("streamit-bench %s exited %d, want 2:\n%s", strings.Join(args, " "), code, out)
		}
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "*.json")); len(left) != 0 {
		t.Errorf("streamit-bench wrote files into its working directory: %v", left)
	}
}
