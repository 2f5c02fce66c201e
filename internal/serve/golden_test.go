package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"streamit/internal/apps"
	"streamit/internal/faults"
)

// goldenFeed is the deterministic input of the golden session.
func goldenFeed(n int) []float64 {
	feed := make([]float64, n)
	for i := range feed {
		feed[i] = float64(i%17)*0.375 - 2
	}
	return feed
}

// goldenSessionServer loads the golden session's program.
func goldenSessionServer(t *testing.T) *Server {
	t.Helper()
	srv := newTestServer(t, Config{Workers: 1})
	if _, err := srv.LoadProgram("radio", apps.FMRadio(2, 8)); err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	return srv
}

// finishGolden feeds the rest of the input, runs three more iterations and
// returns everything the session has buffered.
func finishGolden(t *testing.T, s *Session, rest []float64) []float64 {
	t.Helper()
	if _, err := s.Feed(rest); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if err := s.Run(3); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.WaitDone(8, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	return s.Drain(0)
}

// TestSessionEnvelopeGolden pins the STRMSESS envelope: an FMRadio session
// with fed input still queued, output left undrained and per-filter
// recovery policies, cut after five iterations, must match the committed
// envelope byte for byte, and the committed envelope must restore on a
// fresh server and finish bit-identical to the session that never stopped.
// Regenerate (only on an intentional format change) with
// STREAMIT_UPDATE_GOLDEN=1 go test ./internal/serve -run SessionEnvelopeGolden.
func TestSessionEnvelopeGolden(t *testing.T) {
	srv := goldenSessionServer(t)
	onError, err := faults.ParsePolicies("lowpass=retry:2,default=skip")
	if err != nil {
		t.Fatalf("ParsePolicies: %v", err)
	}
	s, err := srv.NewSession(SessionOptions{Program: "radio", Source: "antenna", Tenant: "acme", OnError: onError})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	feed := goldenFeed(s.inPerInit + 8*s.inPerIter)
	cut := s.inPerInit + 5*s.inPerIter + 3 // 3 fed-but-unrun items ride in the envelope
	if _, err := s.Feed(feed[:cut]); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if err := s.Run(5); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.WaitDone(5, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	s.Drain(2)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}

	path := filepath.Join("testdata", "session_fmradio.ckpt")
	if os.Getenv("STREAMIT_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, buf.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden envelope (regenerate with STREAMIT_UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(want, buf.Bytes()) {
		t.Fatalf("session envelope drifted from the golden file (%d vs %d bytes); this breaks snapshots on disk", buf.Len(), len(want))
	}

	img, err := decodeSession(want)
	if err != nil {
		t.Fatalf("golden envelope does not decode: %v", err)
	}
	if img.id != s.ID || img.program != "radio" || img.source != "antenna" || img.tenant != "acme" ||
		img.onError != "default=skip,lowpass=retry:2" || img.profile || !img.inited ||
		img.goal != 5 || img.done != 5 || len(img.input) != 3 || len(img.output) == 0 {
		t.Fatalf("golden envelope decoded to %+v", img)
	}

	srv2 := goldenSessionServer(t)
	if err := srv2.restoreSession(want); err != nil {
		t.Fatalf("golden envelope does not restore: %v", err)
	}
	s2 := srv2.Session(img.id)
	if s2 == nil {
		t.Fatal("restored session not resolvable by its ID")
	}
	var again bytes.Buffer
	if err := s2.Checkpoint(&again); err != nil {
		t.Fatalf("Checkpoint after restore: %v", err)
	}
	if !bytes.Equal(want, again.Bytes()) {
		t.Fatal("restored session does not re-encode to the envelope it was restored from")
	}
	got, ref := finishGolden(t, s2, feed[cut:]), finishGolden(t, s, feed[cut:])
	if len(got) != len(ref) || len(got) == 0 {
		t.Fatalf("restored session produced %d items, uninterrupted %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("item %d: restored %v, uninterrupted %v", i, got[i], ref[i])
		}
	}
}
