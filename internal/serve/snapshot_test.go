package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"streamit/internal/apps"
	"streamit/internal/faults"
	"streamit/internal/ir"
	"streamit/internal/wire"
)

// restartCycle snapshots srv to dir, closes it (the "kill"), builds a new
// server with the same config, reloads via load, and restores. It returns
// the new server, already registered for cleanup.
func restartCycle(t *testing.T, srv *Server, cfg Config, dir string, load func(*Server)) *Server {
	t.Helper()
	sum, err := srv.Snapshot(dir)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if sum.Skipped != 0 {
		t.Fatalf("Snapshot skipped %d sessions", sum.Skipped)
	}
	srv.Close()
	srv2 := newTestServer(t, cfg)
	load(srv2)
	rs, err := srv2.Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if len(rs.Failed) > 0 {
		t.Fatalf("Restore failed sessions: %v", rs.Failed)
	}
	if rs.Restored != sum.Sessions {
		t.Fatalf("restored %d of %d snapshotted sessions", rs.Restored, sum.Sessions)
	}
	return srv2
}

// TestCheckpointRestoreBitIdentical is the core kill/restart proof for a
// fed session: run half the iterations, snapshot, kill the server, restore
// on a fresh one, run the rest — the concatenated output must be
// bit-identical to an uninterrupted standalone run over the same feed.
func TestCheckpointRestoreBitIdentical(t *testing.T) {
	const iters = 24
	feed := make([]float64, iters)
	for i := range feed {
		feed[i] = float64(i)*1.25 - 7
	}
	cfg := Config{Workers: 2}
	dir := t.TempDir()

	srv := New(cfg)
	loadTest(t, srv, "t", 3.0)
	s, err := srv.NewSession(SessionOptions{Program: "t", Source: "src", Tenant: "acme"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := s.Feed(feed[:iters/2+3]); err != nil { // 3 fed-but-unrun items must survive
		t.Fatalf("Feed: %v", err)
	}
	if err := s.Run(iters / 2); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.WaitDone(iters/2, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	firstHalf := s.Drain(4) // leave undrained output in the buffer too
	id := s.ID

	srv2 := restartCycle(t, srv, cfg, dir, func(sv *Server) { loadTest(t, sv, "t", 3.0) })
	s2 := srv2.Session(id)
	if s2 == nil {
		t.Fatal("restored session not resolvable by its old ID")
	}
	if s2.opt.Tenant != "acme" || s2.opt.Source != "src" {
		t.Fatalf("restored options lost: tenant=%q source=%q", s2.opt.Tenant, s2.opt.Source)
	}
	if _, err := s2.Feed(feed[iters/2+3:]); err != nil {
		t.Fatalf("Feed after restore: %v", err)
	}
	if err := s2.Run(iters - iters/2); err != nil {
		t.Fatalf("Run after restore: %v", err)
	}
	if err := s2.WaitDone(iters, 5*time.Second); err != nil {
		t.Fatalf("WaitDone after restore: %v", err)
	}
	got := append(firstHalf, s2.Drain(0)...)

	want := standaloneRun(t, testProgram(3.0), iters, feed)
	if len(got) != len(want) {
		t.Fatalf("got %d items, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("item %d: got %v, want %v (not bit-identical across restart)", i, got[i], want[i])
		}
	}
}

// TestKillRestartMatrix is the acceptance proof at suite scale: one
// session per benchmark app, snapshotted UNDER LOAD (iterations still
// queued, workers mid-flight), the server killed, a fresh server restoring
// all twelve — and every session's full output bit-identical to an
// uninterrupted sequential run.
func TestKillRestartMatrix(t *testing.T) {
	suite := apps.Suite()
	const iters = 12
	cfg := Config{Workers: 4, MaxBufferedOut: 1 << 20}
	dir := t.TempDir()

	load := func(sv *Server) {
		t.Helper()
		for _, a := range suite {
			if _, err := sv.LoadProgram(a.Name, a.Build()); err != nil {
				t.Fatalf("LoadProgram(%s): %v", a.Name, err)
			}
		}
	}
	srv := New(cfg)
	load(srv)

	ids := make(map[string]uint64, len(suite))
	for _, a := range suite {
		s, err := srv.NewSession(SessionOptions{Program: a.Name, Tenant: a.Name})
		if err != nil {
			t.Fatalf("NewSession(%s): %v", a.Name, err)
		}
		ids[a.Name] = s.ID
		// Request the FULL goal and snapshot while the pool is still
		// chewing: Checkpoint quiesces each session mid-flight.
		if err := s.Run(iters); err != nil {
			t.Fatalf("Run(%s): %v", a.Name, err)
		}
	}

	srv2 := restartCycle(t, srv, cfg, dir, load)
	if got := srv2.Stats().Sessions.Restored; got != int64(len(suite)) {
		t.Fatalf("Restored counter = %d, want %d", got, len(suite))
	}
	for _, a := range suite {
		s := srv2.Session(ids[a.Name])
		if s == nil {
			t.Fatalf("%s: session lost across restart", a.Name)
		}
		// The goal is part of the checkpoint: restored sessions resume on
		// their own, no new Run needed.
		if err := s.WaitDone(iters, 30*time.Second); err != nil {
			t.Fatalf("%s: WaitDone after restore: %v", a.Name, err)
		}
		got := s.Drain(0)
		want := standaloneRun(t, a.Build(), iters, nil)
		if len(got) != len(want) {
			t.Fatalf("%s: %d items, want %d", a.Name, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s item %d: got %v, want %v (not bit-identical)", a.Name, i, got[i], want[i])
			}
		}
	}
}

// TestRestoreFingerprintMismatch: a checkpoint only restores into a
// structurally identical program. A same-named program with a different
// graph must be rejected per-file, not corrupt the session.
func TestRestoreFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1}
	srv := New(cfg)
	loadTest(t, srv, "t", 2.0)
	s, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.Run(4); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.WaitDone(4, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	if _, err := srv.Snapshot(dir); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	srv.Close()

	// Same name, structurally different graph (extra gain stage). The
	// fingerprint ignores constants, so a changed gain VALUE would match —
	// a changed TOPOLOGY must not.
	srv2 := newTestServer(t, cfg)
	other := &ir.Program{Name: "T", Top: ir.Pipe("TP",
		apps.Source("src"), apps.Gain("g", 2.0), apps.Gain("g2", 1.0), apps.Sink("out", 1))}
	if _, err := srv2.LoadProgram("t", other); err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	rs, err := srv2.Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if rs.Restored != 0 || len(rs.Failed) != 1 {
		t.Fatalf("Restored=%d Failed=%v, want the mismatch rejected", rs.Restored, rs.Failed)
	}
	if !strings.Contains(rs.Failed[0], "fingerprint") {
		t.Fatalf("failure reason %q does not name the fingerprint", rs.Failed[0])
	}
}

// TestSnapshotSkipsQuarantined: a quarantined session has no coherent
// engine state to persist — Snapshot must skip it and say so, while
// healthy sessions in the same sweep are written.
func TestSnapshotSkipsQuarantined(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Config{Workers: 2})
	loadTest(t, srv, "t", 2.0)
	plan, err := faults.ParsePlan("panic:g@3")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	bad, err := srv.NewSession(SessionOptions{Program: "t", Faults: plan})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	good, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := bad.Run(8); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := good.Run(8); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := bad.WaitDone(8, 5*time.Second); err == nil {
		t.Fatal("faulty session completed")
	}
	if err := good.WaitDone(8, 5*time.Second); err != nil {
		t.Fatalf("healthy session: %v", err)
	}
	sum, err := srv.Snapshot(dir)
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if sum.Sessions != 1 || sum.Skipped != 1 {
		t.Fatalf("Sessions=%d Skipped=%d, want 1/1", sum.Sessions, sum.Skipped)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "session-*.ckpt"))
	if len(files) != 1 {
		t.Fatalf("%d checkpoint files on disk, want 1: %v", len(files), files)
	}
	if want := fmt.Sprintf("session-%d.ckpt", good.ID); filepath.Base(files[0]) != want {
		t.Fatalf("wrote %s, want %s", filepath.Base(files[0]), want)
	}
}

// TestDrain covers the graceful-shutdown primitive: it completes once the
// fleet is quiet, rejects new sessions while draining, and times out if a
// session can never finish.
func TestDrain(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	loadTest(t, srv, "t", 2.0)
	s, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.Run(64); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := srv.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if done, goal := s.Progress(); done != goal {
		t.Fatalf("Drain returned with %d/%d iterations done", done, goal)
	}
	if !srv.draining.Load() {
		t.Fatal("server not marked draining")
	}
	if _, err := srv.NewSession(SessionOptions{Program: "t"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("NewSession while draining: err = %v, want ErrDraining", err)
	}
	if !srv.Stats().Draining {
		t.Fatal("Stats.Draining = false")
	}
}

func TestDrainTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := newTestServer(t, Config{Workers: 2})
	// Registered after newTestServer: LIFO cleanup unwedges the kernel
	// before srv.Close joins its (not-lost, no watchdog) worker.
	t.Cleanup(func() { close(release) })
	if _, err := srv.LoadProgram("blocky", blockingProgram(release)); err != nil {
		t.Fatalf("LoadProgram: %v", err)
	}
	// A session wedged inside a kernel (no watchdog armed) never goes
	// quiet: Drain must give up at the deadline, not hang.
	s, err := srv.NewSession(SessionOptions{Program: "blocky"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.Run(10); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := srv.Drain(50 * time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("Drain = %v, want ErrTimeout", err)
	}
}

// TestSnapshotStaleFileRemoval: checkpoints for sessions that no longer
// exist are removed by the next sweep, so a restore never resurrects a
// closed session.
func TestSnapshotStaleFileRemoval(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, Config{Workers: 1})
	loadTest(t, srv, "t", 2.0)
	s1, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	s2, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := srv.Snapshot(dir); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	s1.Close()
	sum, err := srv.Snapshot(dir)
	if err != nil {
		t.Fatalf("second Snapshot: %v", err)
	}
	if sum.Sessions != 1 {
		t.Fatalf("Sessions = %d, want 1", sum.Sessions)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "session-*.ckpt"))
	if len(files) != 1 || filepath.Base(files[0]) != fmt.Sprintf("session-%d.ckpt", s2.ID) {
		t.Fatalf("stale checkpoint not removed: %v", files)
	}
}

// TestSnapshotInterrupted: a sweep cut short after k of n files — the k-th
// write dies with half its bytes in a temporary file, as a kill would leave
// it — must leave every session file the complete old or the complete new
// envelope, the old manifest in place, and all n sessions restorable.
func TestSnapshotInterrupted(t *testing.T) {
	const n = 5
	for k := 1; k <= n+1; k++ { // the n+1st write is the manifest
		t.Run(fmt.Sprintf("fail-write-%d", k), func(t *testing.T) {
			dir := t.TempDir()
			srv := newTestServer(t, Config{Workers: 2})
			loadTest(t, srv, "t", 2.0)
			var sessions []*Session
			advance := func(to int64) {
				t.Helper()
				for _, s := range sessions {
					done, _ := s.Progress()
					if err := s.Run(int(to - done)); err != nil {
						t.Fatalf("Run: %v", err)
					}
					if err := s.WaitDone(to, 5*time.Second); err != nil {
						t.Fatalf("WaitDone: %v", err)
					}
				}
			}
			for i := 0; i < n; i++ {
				s, err := srv.NewSession(SessionOptions{Program: "t"})
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				sessions = append(sessions, s)
			}
			advance(3)
			if _, err := srv.Snapshot(dir); err != nil {
				t.Fatalf("first Snapshot: %v", err)
			}
			oldManifest, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}

			advance(7)
			writes := 0
			srv.writeFile = func(path string, data []byte) error {
				if writes++; writes == k {
					tmp := filepath.Join(filepath.Dir(path), ".tmp-"+filepath.Base(path)+"-killed")
					if err := os.WriteFile(tmp, data[:len(data)/2], 0o644); err != nil {
						t.Errorf("writing the torn temporary: %v", err)
					}
					return errors.New("killed mid-write")
				}
				return wire.WriteFile(path, data)
			}
			if _, err := srv.Snapshot(dir); err == nil {
				t.Fatal("interrupted Snapshot reported success")
			}

			files, _ := filepath.Glob(filepath.Join(dir, "session-*.ckpt"))
			if len(files) != n {
				t.Fatalf("%d session files after the interrupted sweep, want %d: %v", len(files), n, files)
			}
			sort.Strings(files)
			for i, f := range files {
				data, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				img, err := decodeSession(data)
				if err != nil {
					t.Fatalf("%s is torn: %v", filepath.Base(f), err)
				}
				want := int64(3) // not reached by the sweep: the old cut
				if i < k-1 {
					want = 7
				}
				if img.done != want {
					t.Fatalf("%s holds iteration %d, want %d (file %d of a sweep cut at write %d)", filepath.Base(f), img.done, want, i+1, k)
				}
			}
			if man, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || !bytes.Equal(man, oldManifest) {
				t.Fatalf("manifest changed by an interrupted sweep (%v)", err)
			}

			srv2 := newTestServer(t, Config{Workers: 2})
			loadTest(t, srv2, "t", 2.0)
			rs, err := srv2.Restore(dir)
			if err != nil || rs.Restored != n || len(rs.Failed) != 0 {
				t.Fatalf("Restore after the interrupted sweep: restored %d, failed %v, err %v", rs.Restored, rs.Failed, err)
			}

			// The next complete sweep removes the killed one's temporary.
			srv.writeFile = wire.WriteFile
			if _, err := srv.Snapshot(dir); err != nil {
				t.Fatalf("Snapshot after the interrupted sweep: %v", err)
			}
			if left, _ := filepath.Glob(filepath.Join(dir, ".tmp-*")); len(left) != 0 {
				t.Fatalf("temporaries survive a complete sweep: %v", left)
			}
		})
	}
}

// TestDecodeSessionTruncation fuzzes the envelope decoder with every
// truncation prefix and a corrupted header: each must produce an error —
// never a panic, never a silently half-restored session.
func TestDecodeSessionTruncation(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	loadTest(t, srv, "t", 2.0)
	s, err := srv.NewSession(SessionOptions{Program: "t", Source: "src", Tenant: "x"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := s.Feed([]float64{1, 2, 3, 4}); err != nil {
		t.Fatalf("Feed: %v", err)
	}
	if err := s.Run(2); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.WaitDone(2, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	data := buf.Bytes()
	if _, err := decodeSession(data); err != nil {
		t.Fatalf("intact envelope rejected: %v", err)
	}
	for n := 0; n < len(data); n++ {
		if _, err := decodeSession(data[:n]); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", n, len(data))
		}
	}
	// Trailing garbage must be rejected too (a concatenated/corrupt file).
	if _, err := decodeSession(append(append([]byte{}, data...), 0xEE)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	bad := append([]byte{}, data...)
	bad[0] ^= 0xFF
	if _, err := decodeSession(bad); err == nil {
		t.Fatal("corrupted magic accepted")
	}
}

// FuzzDecodeSession drives the envelope decoder, and the restore path
// behind it, with arbitrary bytes: reject with an error or restore a
// session, never panic, and never size anything by a count the data does
// not back.
func FuzzDecodeSession(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "session_fmradio.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add([]byte{})
	f.Add([]byte(sessMagic))
	f.Add(golden[:len(golden)/2])
	for _, off := range []int{8, 12, 28, 33, 0x56, 0x58, 0x68, 0x84, 0xa2, len(golden) - 1} {
		mut := append([]byte(nil), golden...)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	srv := New(Config{Workers: 1})
	f.Cleanup(srv.Close)
	if _, err := srv.LoadProgram("radio", apps.FMRadio(2, 8)); err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := decodeSession(data)
		if err != nil {
			return
		}
		if 8*(len(img.input)+len(img.output))+len(img.eng) > len(data) {
			t.Fatalf("decoded %d+%d floats and a %d-byte image from %d bytes", len(img.input), len(img.output), len(img.eng), len(data))
		}
		if img.done < 0 || img.goal < img.done {
			t.Fatalf("accepted progress counters done %d, goal %d", img.done, img.goal)
		}
		if srv.restoreSession(data) == nil {
			srv.Session(img.id).Close()
		}
	})
}

// TestRestoreOnBootDir: Config.SnapshotDir is the implicit target for both
// Snapshot("") and the operator's restore-on-start flow.
func TestRestoreOnBootDir(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, SnapshotDir: dir}
	srv := New(cfg)
	loadTest(t, srv, "t", 2.0)
	s, err := srv.NewSession(SessionOptions{Program: "t"})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if err := s.Run(4); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := s.WaitDone(4, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}
	if _, err := srv.Snapshot(""); err != nil { // falls back to cfg.SnapshotDir
		t.Fatalf("Snapshot(\"\"): %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		t.Fatalf("manifest not written to cfg.SnapshotDir: %v", err)
	}
	srv.Close()

	srv2 := newTestServer(t, cfg)
	loadTest(t, srv2, "t", 2.0)
	rs, err := srv2.Restore(dir)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if rs.Restored != 1 {
		t.Fatalf("Restored = %d, want 1 (failed: %v)", rs.Restored, rs.Failed)
	}
	// No-dir server with no cfg fallback must refuse rather than guess.
	srv3 := newTestServer(t, Config{Workers: 1})
	if _, err := srv3.Snapshot(""); err == nil {
		t.Fatal("Snapshot with no directory configured succeeded")
	}
}

// TestSessionCheckpointAllocatesNothing: Checkpoint encodes the envelope,
// the queues read in place and the engine's image behind them, in one pass
// into a warmed buffer's spare room, recovery policies included.
func TestSessionCheckpointAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	srv := goldenSessionServer(t)
	onError, err := faults.ParsePolicies("lowpass=retry:2,default=skip")
	if err != nil {
		t.Fatalf("ParsePolicies: %v", err)
	}
	s, err := srv.NewSession(SessionOptions{Program: "radio", Source: "antenna", Tenant: "acme", OnError: onError})
	if err != nil {
		t.Fatalf("NewSession: %v", err)
	}
	if _, err := s.Feed(goldenFeed(s.inPerInit + 5*s.inPerIter + 3)); err != nil {
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
	n := testing.AllocsPerRun(10, func() {
		buf.Reset()
		if err := s.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Errorf("Checkpoint into a warmed buffer allocates %.0f times, want 0", n)
	}
	if _, err := decodeSession(buf.Bytes()); err != nil {
		t.Fatalf("the envelope does not decode: %v", err)
	}
}

// TestRestoreKeepsNoViewOfItsInput: Server.Restore reads every file into one
// reused buffer, so a restored session must keep nothing of the envelope it
// was decoded from — overwriting it afterwards leaves the session's own
// re-encoding the envelope it was restored from.
func TestRestoreKeepsNoViewOfItsInput(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "session_fmradio.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(golden)
	srv := goldenSessionServer(t)
	if err := srv.restoreSession(data); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for i := range data {
		data[i] = 0xa5
	}
	img, err := decodeSession(golden)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := srv.Session(img.id).Checkpoint(&again); err != nil {
		t.Fatalf("Checkpoint after restore: %v", err)
	}
	if !bytes.Equal(again.Bytes(), golden) {
		t.Fatal("overwriting the restored envelope changed the session it restored")
	}
}
