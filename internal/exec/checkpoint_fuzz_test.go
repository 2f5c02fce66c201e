package exec

import (
	"bytes"
	"testing"

	"streamit/internal/apps"
)

// FuzzCheckpointRestore: RestoreCheckpoint must reject arbitrary,
// corrupted, or truncated bytes with an error — never panic and never
// allocate unboundedly. Seeds include a valid image and targeted
// corruptions of it so the fuzzer starts deep in the format.
func FuzzCheckpointRestore(f *testing.F) {
	src := buildEngine(f, apps.FMRadio(2, 8), BackendVM)
	if err := src.Run(2); err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := src.WriteCheckpoint(&buf, 2); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte("STRMCKPT"))
	f.Add(valid[:len(valid)/2])
	f.Add(hostileMessageImage(src.fp, 1<<10, 32<<10))
	// The same state at every ring offset: some restores decode items across
	// the end of a ring's storage.
	most := 0
	for _, ch := range buildEngine(f, apps.FMRadio(2, 8), BackendVM).chans {
		most = max(most, slots(ch))
	}
	for _, img := range shiftedImages(f, src, 2, most+1) {
		f.Add(img)
	}
	for _, off := range []int{8, 12, 20, 28, 36, len(valid) - 9} {
		if off >= 0 && off < len(valid) {
			mut := append([]byte(nil), valid...)
			mut[off] ^= 0xff
			f.Add(mut)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		e := buildEngine(t, apps.FMRadio(2, 8), BackendVM)
		it, err := e.RestoreCheckpoint(data)
		if err != nil {
			return // rejected cleanly: the only acceptable failure mode
		}
		// An accepted image must be internally consistent enough to run.
		if it < 0 {
			t.Fatalf("accepted image with negative iteration %d", it)
		}
		if rerr := e.RunSteady(1); rerr != nil {
			// A structured error is fine (e.g. restored tape underflow
			// turned into an ExecError); a panic would have failed already.
			t.Logf("resumed run errored (acceptably): %v", rerr)
		}
	})
}
