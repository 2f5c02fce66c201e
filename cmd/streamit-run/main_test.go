package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCLIEndToEnd builds the binary and drives it the way a user does. The
// example program prints no items, so the observables are the exit status,
// the summary line naming the backend that ran, and the checkpoint image.
func TestCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "streamit-run")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prog, err := filepath.Abs("../../examples/strprogs/fmradio.str")
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, args ...string) string {
		t.Helper()
		out, err := exec.Command(bin, append(args, prog)...).CombinedOutput()
		if err != nil {
			t.Fatalf("streamit-run %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return string(out)
	}

	const iters, after = "40", "15"
	backends := []struct {
		name, summary string
		args          []string
	}{
		{"sequential", "ran 40 steady-state iterations (", nil},
		{"parallel", "ran 40 steady-state iterations on the parallel backend", []string{"-parallel"}},
		{"task+data", "on the mapped (task+data, 2 workers, ", []string{"-map", "task+data", "-workers", "2"}},
		{"task+swp", "on the mapped (task+swp, 2 workers, ", []string{"-map", "task+swp", "-workers", "2"}},
		{"task+ckpt", "on the mapped (task, 2 workers, ", []string{"-map", "task", "-workers", "2", "-checkpoint-every", "1"}},
		{"crash recovery", "crashes=1", []string{"-map", "task+data+swp", "-workers", "4", "-faults", "crash:worker1@2"}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			if out := run(t, append([]string{"-iters", iters}, b.args...)...); !strings.Contains(out, b.summary) {
				t.Fatalf("summary does not report %q:\n%s", b.summary, out)
			}
		})
	}

	// The mapped summary reports the plan's cut — how many edges cross
	// between workers — and, after a crash, the cut the run finished on.
	t.Run("cut", func(t *testing.T) {
		const cut = `(\d+) of (\d+) edges cross`
		for _, tc := range []struct {
			args    []string
			pattern string
		}{
			{[]string{"-map", "task+data", "-workers", "2"},
				`on the mapped \(task\+data, 2 workers, ` + cut + `\) backend`},
			{[]string{"-map", "task+data+swp", "-workers", "4", "-faults", "crash:worker1@2"},
				`(?s)mapped \(task\+data\+swp, 4 workers, ` + cut + `\) backend.*\nre-planned after a crash: finished on 3 workers, ` + cut + `\n`},
		} {
			out := run(t, append([]string{"-iters", iters}, tc.args...)...)
			m := regexp.MustCompile(tc.pattern).FindStringSubmatch(out)
			if m == nil {
				t.Fatalf("%v: output does not report the cut:\n%s", tc.args, out)
			}
			for i := 1; i < len(m); i += 2 {
				if m[i] == "0" || m[i] == m[i+1] {
					t.Fatalf("%v: %s of %s edges cross; want some but not every edge crossing:\n%s", tc.args, m[i], m[i+1], out)
				}
			}
		}
	})

	// A flag only the mapped engine reads is refused wherever that engine
	// does not run, instead of being silently ignored; -shards reads
	// -queue-depth but neither -workers nor -checkpoint-every.
	t.Run("unread flags", func(t *testing.T) {
		const needMap, shardsOnly = "they need -map", "it composes with -map (strategy), -per-shard, -epoch, -queue-depth, and -faults only"
		for _, tc := range []struct {
			args []string
			want string
		}{
			{[]string{"-workers", "7"}, needMap},
			{[]string{"-checkpoint-every", "5"}, needMap},
			{[]string{"-queue-depth", "3"}, needMap},
			{[]string{"-parallel", "-workers", "2"}, needMap},
			{[]string{"-shards", "2", "-workers", "2"}, shardsOnly},
			{[]string{"-shards", "2", "-checkpoint-every", "5"}, shardsOnly},
		} {
			out, err := exec.Command(bin, append(tc.args, prog)...).CombinedOutput()
			if err == nil || !strings.Contains(string(out), tc.want) {
				t.Fatalf("streamit-run %v: err %v, want a refusal saying %q\n%s", tc.args, err, tc.want, out)
			}
		}
	})

	// -cpuprofile writes a gzipped pprof profile of the run; a path it
	// cannot create fails the command before compiling.
	t.Run("cpuprofile", func(t *testing.T) {
		path := filepath.Join(dir, "cpu.pprof")
		run(t, "-iters", iters, "-cpuprofile", path)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
			t.Fatalf("%s holds %d bytes, not a gzipped profile", path, len(data))
		}
		bad := filepath.Join(dir, "missing", "cpu.pprof")
		err = exec.Command(bin, "-iters", iters, "-cpuprofile", bad, prog).Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("-cpuprofile %s: err %v, want exit status 1", bad, err)
		}
	})

	// A teleport program cannot run under a lockstep plan: core falls back
	// to the sequential engine, and the summary must name what ran.
	t.Run("fallback", func(t *testing.T) {
		freqhop, err := filepath.Abs("../../examples/strprogs/freqhop.str")
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "-iters", iters, "-map", "task", "-workers", "2", freqhop).CombinedOutput()
		if err != nil {
			t.Fatalf("streamit-run -map task freqhop.str: %v\n%s", err, out)
		}
		for _, want := range []string{"falling back to sequential", "iterations on the sequential backend"} {
			if !strings.Contains(string(out), want) {
				t.Fatalf("output does not report %q:\n%s", want, out)
			}
		}
		if strings.Contains(string(out), "mapped (") {
			t.Fatalf("summary names the mapped engine after a fallback:\n%s", out)
		}
	})

	// A program with a dynamic-rate filter runs on the dynamic engine with
	// no flag, -iters counting sink items.
	t.Run("dynamic", func(t *testing.T) {
		rle, err := filepath.Abs("../../examples/strprogs/rle.str")
		if err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(bin, "-iters", "500", "-profile", rle).CombinedOutput()
		if err != nil {
			t.Fatalf("streamit-run rle.str: %v\n%s", err, out)
		}
		var items int
		if _, err := fmt.Sscanf(string(out), "dynamic run: %d sink items", &items); err != nil || items < 500 {
			t.Fatalf("summary does not report at least 500 sink items:\n%s", out)
		}
		if !strings.Contains(string(out), "Decode") {
			t.Fatalf("profile does not list the dynamic-rate filter:\n%s", out)
		}
		// A static-engine flag is refused, after the linear pass too.
		for _, args := range [][]string{{"-map", "task", rle}, {"-linear", rle}} {
			out, err := exec.Command(bin, args...).CombinedOutput()
			if err == nil || !strings.Contains(string(out), "has dynamic-rate filters") {
				t.Fatalf("streamit-run %v: err %v\n%s", args, err, out)
			}
		}
	})

	// Checkpoint at `after`, resume to `iters`: once on a zero-skew plan and
	// once on a pipelined one. Two invocations must write the same image.
	for _, strat := range []string{"task+data", "task+swp"} {
		t.Run("resume/"+strat, func(t *testing.T) {
			base := []string{"-iters", iters, "-map", strat, "-workers", "2"}
			var imgs [2][]byte
			for i := range imgs {
				path := filepath.Join(dir, fmt.Sprintf("%s-%d.ckpt", strat, i))
				out := run(t, append(base, "-checkpoint", path, "-checkpoint-after", after)...)
				if want := "at iteration " + after; !strings.Contains(out, want) {
					t.Fatalf("checkpoint run did not report %q:\n%s", want, out)
				}
				if imgs[i], err = os.ReadFile(path); err != nil {
					t.Fatal(err)
				}
				out = run(t, append(base, "-resume", path)...)
				if want := "finished at iteration " + iters; !strings.Contains(out, want) {
					t.Fatalf("resumed run did not report %q:\n%s", want, out)
				}
			}
			if len(imgs[0]) == 0 || !bytes.Equal(imgs[0], imgs[1]) {
				t.Fatalf("two invocations wrote different images (%d vs %d bytes)", len(imgs[0]), len(imgs[1]))
			}
		})
	}
}
