package exec

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"streamit/internal/apps"
	"streamit/internal/ir"
	"streamit/internal/sched"
	"streamit/internal/wfunc"
	"streamit/internal/wire"
)

func buildEngine(t testing.TB, prog *ir.Program, backend Backend) *Engine {
	t.Helper()
	g, err := ir.Flatten(prog)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewFromGraphBackend(g, s, backend)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func checkpointBytes(t *testing.T, e *Engine, iteration int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WriteCheckpoint(&buf, iteration); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRoundTripSuite: on every benchmark app and under both
// work-function backends, a run checkpointed at iteration k and resumed in
// a fresh engine reaches a final state byte-identical to an uninterrupted
// run. The final checkpoint image covers every tape's contents and
// counters, every filter field, every firing count, and pending messages —
// byte equality is full-state bit-identity.
func TestCheckpointRoundTripSuite(t *testing.T) {
	const iters, k = 6, 3
	for _, backend := range []Backend{BackendVM, BackendInterp} {
		backend := backend
		for _, app := range apps.Suite() {
			app := app
			t.Run(app.Name+"/"+backend.String(), func(t *testing.T) {
				// Uninterrupted reference run.
				ref := buildEngine(t, app.Build(), backend)
				if err := ref.Run(iters); err != nil {
					t.Fatal(err)
				}
				want := checkpointBytes(t, ref, iters)

				// Interrupted run: checkpoint at k...
				first := buildEngine(t, app.Build(), backend)
				if err := first.RunInit(); err != nil {
					t.Fatal(err)
				}
				if err := first.RunSteady(k); err != nil {
					t.Fatal(err)
				}
				img := checkpointBytes(t, first, k)

				// ...restore into a fresh engine and finish the run.
				resumed := buildEngine(t, app.Build(), backend)
				if err := resumed.RunFromCheckpoint(img, iters); err != nil {
					t.Fatal(err)
				}
				got := checkpointBytes(t, resumed, iters)
				if !bytes.Equal(want, got) {
					t.Fatalf("resumed final state differs from uninterrupted run (%d vs %d bytes)", len(want), len(got))
				}
			})
		}
	}
}

// TestCheckpointCrossBackendRestore: a checkpoint taken under the VM
// restores under the interpreter (and vice versa) — the image holds only
// semantic state. The resumed interpreter run must match an uninterrupted
// interpreter run bit for bit.
func TestCheckpointCrossBackendRestore(t *testing.T) {
	const iters, k = 6, 2
	build := func() *ir.Program { return apps.FMRadio(4, 16) }

	ref := buildEngine(t, build(), BackendInterp)
	if err := ref.Run(iters); err != nil {
		t.Fatal(err)
	}
	want := checkpointBytes(t, ref, iters)

	vm := buildEngine(t, build(), BackendVM)
	if err := vm.RunInit(); err != nil {
		t.Fatal(err)
	}
	if err := vm.RunSteady(k); err != nil {
		t.Fatal(err)
	}
	img := checkpointBytes(t, vm, k)

	interp := buildEngine(t, build(), BackendInterp)
	if err := interp.RunFromCheckpoint(img, iters); err != nil {
		t.Fatal(err)
	}
	if got := checkpointBytes(t, interp, iters); !bytes.Equal(want, got) {
		t.Fatal("cross-backend resume diverged from uninterrupted interpreter run")
	}
}

// TestCheckpointOutputIdentical: the observable output stream after a
// resume matches the uninterrupted run (not just internal state).
func TestCheckpointOutputIdentical(t *testing.T) {
	const iters, k = 8, 4
	build := func() (*ir.Program, *[]float64) {
		prog := apps.FMRadio(4, 16)
		pipe := prog.Top.(*ir.Pipeline)
		snk, got := SliceSink("cap")
		pipe.Children[len(pipe.Children)-1] = snk
		return prog, got
	}

	refProg, refGot := build()
	ref := buildEngine(t, refProg, BackendVM)
	if err := ref.Run(iters); err != nil {
		t.Fatal(err)
	}

	firstProg, firstGot := build()
	first := buildEngine(t, firstProg, BackendVM)
	if err := first.RunInit(); err != nil {
		t.Fatal(err)
	}
	if err := first.RunSteady(k); err != nil {
		t.Fatal(err)
	}
	img := checkpointBytes(t, first, k)

	resProg, resGot := build()
	resumed := buildEngine(t, resProg, BackendVM)
	if err := resumed.RunFromCheckpoint(img, iters); err != nil {
		t.Fatal(err)
	}
	combined := append(append([]float64(nil), *firstGot...), *resGot...)
	if len(combined) != len(*refGot) {
		t.Fatalf("resumed run produced %d items, reference %d", len(combined), len(*refGot))
	}
	for i := range combined {
		if combined[i] != (*refGot)[i] {
			t.Fatalf("output %d differs after resume: %v vs %v", i, combined[i], (*refGot)[i])
		}
	}
}

// TestCheckpointFingerprintMismatch: restoring against a different program
// is rejected with a clear error, not silent corruption.
func TestCheckpointFingerprintMismatch(t *testing.T) {
	src := buildEngine(t, apps.FMRadio(4, 16), BackendVM)
	if err := src.Run(2); err != nil {
		t.Fatal(err)
	}
	img := checkpointBytes(t, src, 2)
	other := buildEngine(t, apps.BitonicSort(8), BackendVM)
	if _, err := other.RestoreCheckpoint(img); err == nil {
		t.Fatal("expected a fingerprint mismatch error")
	}
}

// TestCheckpointTruncatedRejected: every truncation of a valid image
// produces an error, never a panic.
func TestCheckpointTruncatedRejected(t *testing.T) {
	src := buildEngine(t, apps.FMRadio(4, 16), BackendVM)
	if err := src.Run(2); err != nil {
		t.Fatal(err)
	}
	img := checkpointBytes(t, src, 2)
	for cut := 0; cut < len(img); cut += 7 {
		e := buildEngine(t, apps.FMRadio(4, 16), BackendVM)
		if _, err := e.RestoreCheckpoint(img[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes restored without error", cut)
		}
	}
}

// TestCheckpointMessagingProgram: pending teleport messages and firing
// counters survive a checkpoint (the messaging engine path).
func TestCheckpointMessagingProgram(t *testing.T) {
	// Snapshot-based messaging programs live in snapshot_test.go; here we
	// reuse a plain engine and just assert pending-message round-tripping
	// through the encoder at the struct level via a synthetic message.
	e := buildEngine(t, apps.FMRadio(4, 16), BackendVM)
	if err := e.Run(1); err != nil {
		t.Fatal(err)
	}
	e.pending[0] = append(e.pending[0], &message{
		handler: "setGain", args: []float64{1.5, -2}, target: 42, upstream: true,
	})
	img := checkpointBytes(t, e, 1)
	fresh := buildEngine(t, apps.FMRadio(4, 16), BackendVM)
	if _, err := fresh.RestoreCheckpoint(img); err != nil {
		t.Fatal(err)
	}
	if len(fresh.pending[0]) != 1 {
		t.Fatalf("pending messages not restored: %v", fresh.pending[0])
	}
	m := fresh.pending[0][0]
	if m.handler != "setGain" || m.target != 42 || !m.upstream || len(m.args) != 2 || m.args[1] != -2 {
		t.Fatalf("message corrupted in round trip: %+v", m)
	}
}

// hostileMessageImage is a well-formed header, one stateless node and no
// edges, then a pending-message count followed by 0xff bytes up to size: the
// first message's handler length is 2^32-1, so decoding faults inside the
// message loop.
func hostileMessageImage(fp uint64, count uint32, size int) []byte {
	w := append(wire.Writer(nil), checkpointMagic...)
	w.U32(checkpointVersion)
	w.U64(fp)
	w.I64(0) // iteration
	w.I64(0) // firings
	w.Count(1)
	w.I64(0)      // fired
	w.Bool(false) // stateless
	w.Count(0)    // edges
	w.U32(count)
	for len(w) < size {
		w.U8(0xff)
	}
	return w
}

// TestCheckpointHostileMessageCount: a message count is checked against the
// bytes that remain, and a fault inside the message loop stops it — a large
// image claiming millions of messages is rejected without allocating for
// them. (The message list grows by append, so unlike the make-then-fill
// lists the loop itself has to stop.)
func TestCheckpointHostileMessageCount(t *testing.T) {
	const fp, size = 0x1234, 4 << 20
	for _, count := range []uint32{
		4 << 20,     // more messages than the bytes could hold: Count rejects it
		size/18 - 8, // fits the check; the first message is garbage
	} {
		data := hostileMessageImage(fp, count, size)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readImage(new(ckptImage), data, fp, 1, func(int) (string, *wfunc.State, bool) { return "n", nil, false })
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("count %d: got %v, want a truncation error", count, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
			t.Errorf("count %d: rejecting the image allocated %d bytes", count, got)
		}
	}
}
