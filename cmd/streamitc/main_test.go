package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds the binary and drives it the way a user does: a
// program compiles to a report naming its schedule, -dot emits the graph
// instead, and bad invocations exit with the documented status.
func TestCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "streamitc")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prog, err := filepath.Abs("../../examples/strprogs/fmradio.str")
	if err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(dir, "bad.str")
	if err := os.WriteFile(bad, []byte("filter X() { work pop 1 { } }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) (string, int) {
		cmd := exec.Command(bin, args...)
		out, err := cmd.CombinedOutput()
		if cmd.ProcessState == nil {
			t.Fatalf("streamitc %s: %v", strings.Join(args, " "), err)
		}
		return string(out), cmd.ProcessState.ExitCode()
	}

	cases := []struct {
		name string
		args []string
		code int
		want []string
	}{
		{"report", []string{prog}, 0, []string{"program Main", "steady state: 19 firings", "init schedule: 467 firings", "steady-state repetitions:"}},
		{"dot", []string{"-dot", prog}, 0, []string{"digraph stream {", "LowPass#3"}},
		{"missing file", []string{filepath.Join(dir, "nope.str")}, 1, []string{"streamitc:", "nope.str"}},
		{"source error", []string{bad}, 1, []string{"streamitc: 1:1:"}},
		{"no argument", nil, 2, []string{"usage: streamitc"}},
		{"linear", []string{"-linear", prog}, 0, []string{"linear optimization: ", "matrix kernels"}},
		{"retired -freq", []string{"-freq", prog}, 2, []string{"flag provided but not defined: -freq"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, code := run(c.args...)
			if code != c.code {
				t.Fatalf("exit status %d, want %d:\n%s", code, c.code, out)
			}
			for _, w := range c.want {
				if !strings.Contains(out, w) {
					t.Errorf("output does not contain %q:\n%s", w, out)
				}
			}
		})
	}
}
