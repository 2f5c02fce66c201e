package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"streamit/internal/faults"
	"streamit/internal/wfunc"
	"streamit/internal/wire"
)

// Session checkpoint envelope: the engine's fingerprinted image (the
// exec/checkpoint.go format, byte-portable across backends) wrapped with
// everything else a session owns — identity, fed-input ring, undrained
// output, progress counters, and recovery policies — so a restored server
// resumes exactly where the snapshot cut, bit-identical to a run that never
// stopped. It is a list of internal/wire primitives, in sessImage's field
// order behind the magic and a u32 version: u64 fingerprint, u64 id, str
// program/source/tenant/policy spec, bool profile/inited, i64 goal/done,
// floats input/output, bytes engine image.
const (
	sessMagic    = "STRMSESS"
	sessVersion  = 1
	manifestName = "MANIFEST.json"
)

// checkpointQuiesce bounds how long Checkpoint waits for an in-flight
// batch to leave the session. Generous: a batch is Config.Batch steady
// iterations; only a genuinely wedged kernel exceeds this.
const checkpointQuiesce = 30 * time.Second

// Checkpoint quiesces the session (pausing dispatch and waiting out any
// in-flight batch) and writes its complete resumable state to w. The
// session resumes serving afterwards. Quarantined and closed sessions are
// not checkpointable: their state is terminal, not resumable.
func (s *Session) Checkpoint(w io.Writer) error {
	// Reject terminal sessions before quiescing: a stuck session's lost
	// worker never releases it, so waiting out the quiesce would stall the
	// whole snapshot sweep on state that can't be persisted anyway.
	if err := s.Err(); err != nil {
		return fmt.Errorf("serve: session %d is quarantined: %w", s.ID, err)
	}
	s.pause()
	defer s.resume()
	if err := s.waitUnscheduled(checkpointQuiesce); err != nil {
		return fmt.Errorf("serve: session %d did not quiesce for checkpoint: %w", s.ID, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.err != nil {
		return fmt.Errorf("serve: session %d is quarantined: %w", s.ID, s.err)
	}
	var eng bytes.Buffer
	if err := s.eng.WriteCheckpoint(&eng, s.done); err != nil {
		return err
	}
	e := append(wire.Writer(nil), sessMagic...)
	e.U32(sessVersion)
	e.U64(s.ver.fp)
	e.U64(s.ID)
	e.Str(s.ver.name)
	e.Str(s.opt.Source)
	e.Str(s.opt.Tenant)
	e.Str(policiesSpec(s.opt.OnError))
	e.Bool(s.opt.Profile)
	e.Bool(s.inited)
	e.I64(s.goal)
	e.I64(s.done)
	e.Floats(ringItems(&s.input))
	e.Floats(ringItems(&s.output))
	e.Bytes(eng.Bytes())
	_, err := w.Write(e)
	return err
}

// policiesSpec renders recovery policies back into the ParsePolicies spec
// form, so they survive a checkpoint round-trip. Fault-injection plans are
// deliberately not persisted: re-injecting the same faults after a restore
// would double-fault a session that already absorbed them.
func policiesSpec(ps faults.Policies) string {
	var parts []string
	if ps.Default != (faults.Policy{}) {
		parts = append(parts, "default="+ps.Default.String())
	}
	names := make([]string, 0, len(ps.PerFilter))
	for n := range ps.PerFilter {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		parts = append(parts, n+"="+ps.PerFilter[n].String())
	}
	return strings.Join(parts, ",")
}

// sessImage is a decoded session checkpoint envelope.
type sessImage struct {
	fp            uint64
	id            uint64
	program       string
	source        string
	tenant        string
	onError       string
	profile       bool
	inited        bool
	goal, done    int64
	input, output []float64
	eng           []byte
}

func decodeSession(data []byte) (*sessImage, error) {
	r := wire.NewReader("serve: session checkpoint", data)
	if magic := r.Raw(len(sessMagic)); string(magic) != sessMagic {
		r.Failf("has a bad magic (not a session checkpoint)")
	}
	if version := r.U32(); version != sessVersion {
		r.Failf("version %d not supported (want %d)", version, sessVersion)
	}
	img := &sessImage{
		fp: r.U64(), id: r.U64(),
		program: r.Str(), source: r.Str(), tenant: r.Str(), onError: r.Str(),
		profile: r.Bool(), inited: r.Bool(),
		goal: r.I64(), done: r.I64(),
		input: r.Floats(), output: r.Floats(),
	}
	img.eng = r.Raw(r.Count(1))
	if img.done < 0 || img.goal < img.done {
		r.Failf("progress counters out of range (done %d, goal %d)", img.done, img.goal)
	}
	if err := r.Done(); err != nil {
		return nil, err
	}
	return img, nil
}

// SnapshotSummary reports what Server.Snapshot persisted.
type SnapshotSummary struct {
	Dir      string `json:"dir"`
	Sessions int    `json:"sessions"`
	Skipped  int    `json:"skipped"` // quarantined/closed sessions: terminal, not resumable
	Bytes    int64  `json:"bytes"`
}

// snapshotManifest is the MANIFEST.json written next to the session files.
type snapshotManifest struct {
	Schema   string   `json:"schema"`
	Sessions int      `json:"sessions"`
	Skipped  int      `json:"skipped"`
	Files    []string `json:"files"`
}

// SnapshotSchema tags the snapshot manifest document.
const SnapshotSchema = "streamit-serve-snapshot/v1"

// Snapshot persists every resident session's checkpoint into dir (one
// session-<id>.ckpt per session plus a manifest), quiescing each session
// in turn — the server keeps serving throughout. Quarantined sessions are
// skipped and counted. Every file is written under a temporary name and
// renamed into place, the manifest last, so a sweep killed at any point
// leaves each session file the complete old or the complete new envelope
// and the directory restorable. Stale session files from an earlier
// snapshot, and temporaries a killed sweep left behind, are removed after
// the new cut lands, so dir always holds exactly one coherent restore set.
// Sweeps are serialized. An empty dir selects Config.SnapshotDir.
func (srv *Server) Snapshot(dir string) (SnapshotSummary, error) {
	if dir == "" {
		dir = srv.cfg.SnapshotDir
	}
	if dir == "" {
		return SnapshotSummary{}, fmt.Errorf("serve: no snapshot directory configured")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return SnapshotSummary{}, err
	}
	srv.snapMu.Lock()
	defer srv.snapMu.Unlock()
	stale := map[string]bool{}
	old, _ := os.ReadDir(dir)
	for _, f := range old {
		n := f.Name()
		if strings.HasPrefix(n, "session-") && strings.HasSuffix(n, ".ckpt") ||
			strings.HasPrefix(n, ".tmp-session-") || strings.HasPrefix(n, ".tmp-"+manifestName+"-") {
			stale[filepath.Join(dir, n)] = true
		}
	}

	srv.mu.Lock()
	sessions := make([]*Session, 0, len(srv.sessions))
	for _, s := range srv.sessions {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID < sessions[j].ID })

	sum := SnapshotSummary{Dir: dir}
	man := snapshotManifest{Schema: SnapshotSchema}
	for _, s := range sessions {
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			sum.Skipped++
			continue
		}
		name := fmt.Sprintf("session-%d.ckpt", s.ID)
		path := filepath.Join(dir, name)
		if err := srv.writeFile(path, buf.Bytes()); err != nil {
			return sum, err
		}
		delete(stale, path)
		sum.Sessions++
		sum.Bytes += int64(buf.Len())
		man.Files = append(man.Files, name)
	}
	for f := range stale {
		_ = os.Remove(f)
	}
	man.Sessions, man.Skipped = sum.Sessions, sum.Skipped
	mb, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return sum, err
	}
	if err := srv.writeFile(filepath.Join(dir, manifestName), mb); err != nil {
		return sum, err
	}
	srv.snapshotsTaken.Add(1)
	return sum, nil
}

// RestoreSummary reports what Server.Restore rebuilt.
type RestoreSummary struct {
	Dir      string   `json:"dir"`
	Restored int      `json:"restored"`
	Failed   []string `json:"failed,omitempty"` // per-file "name: reason"
}

// Restore rebuilds sessions from a Snapshot directory onto this server.
// Programs must already be loaded (the compile cache makes reloading the
// same source cheap and fingerprint-stable); each session is validated
// against the current version's structural fingerprint, stamped through
// the normal engine path, and resumes — with its original ID, fed input,
// undrained output, and remaining iteration goal — as if the process had
// never died. Individual session failures (unknown program, fingerprint
// mismatch, ID collision) are reported per file; the rest restore.
func (srv *Server) Restore(dir string) (RestoreSummary, error) {
	if dir == "" {
		dir = srv.cfg.SnapshotDir
	}
	if dir == "" {
		return RestoreSummary{}, fmt.Errorf("serve: no snapshot directory configured")
	}
	files, err := filepath.Glob(filepath.Join(dir, "session-*.ckpt"))
	if err != nil {
		return RestoreSummary{}, err
	}
	sort.Strings(files)
	sum := RestoreSummary{Dir: dir}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err == nil {
			err = srv.restoreSession(data)
		}
		if err != nil {
			sum.Failed = append(sum.Failed, fmt.Sprintf("%s: %v", filepath.Base(f), err))
			continue
		}
		sum.Restored++
	}
	return sum, nil
}

// restoreSession rebuilds one session from its checkpoint envelope.
func (srv *Server) restoreSession(data []byte) error {
	img, err := decodeSession(data)
	if err != nil {
		return err
	}
	var onError faults.Policies
	if img.onError != "" {
		if onError, err = faults.ParsePolicies(img.onError); err != nil {
			return err
		}
	}

	srv.mu.Lock()
	p := srv.programs[img.program]
	if p == nil {
		srv.mu.Unlock()
		return fmt.Errorf("serve: unknown program %q (load it before restoring)", img.program)
	}
	ver := p.versions[len(p.versions)-1]
	if ver.fp != img.fp {
		srv.mu.Unlock()
		return fmt.Errorf("serve: program %q fingerprint %016x does not match checkpoint %016x", img.program, ver.fp, img.fp)
	}
	if _, dup := srv.sessions[img.id]; dup {
		srv.mu.Unlock()
		return fmt.Errorf("serve: session id %d already open", img.id)
	}
	if len(srv.sessions) >= srv.cfg.MaxSessions {
		srv.mu.Unlock()
		srv.rejectedSessions.Add(1)
		return fmt.Errorf("%w (%d open)", ErrSessionLimit, srv.cfg.MaxSessions)
	}
	srv.mu.Unlock()

	s, err := srv.buildSession(ver, SessionOptions{
		Program: img.program,
		Source:  img.source,
		Tenant:  img.tenant,
		Profile: img.profile,
		OnError: onError,
	})
	if err != nil {
		return err
	}
	s.ID = img.id
	it, err := s.eng.RestoreCheckpoint(img.eng)
	if err != nil {
		return err
	}
	if it != img.done {
		return fmt.Errorf("serve: engine image iteration %d disagrees with session progress %d", it, img.done)
	}
	s.inited = img.inited
	s.goal, s.done = img.goal, img.done
	s.input.Append(img.input)
	s.output.Append(img.output)

	srv.mu.Lock()
	if _, dup := srv.sessions[s.ID]; dup {
		srv.mu.Unlock()
		return fmt.Errorf("serve: session id %d already open", s.ID)
	}
	if len(srv.sessions) >= srv.cfg.MaxSessions {
		srv.mu.Unlock()
		srv.rejectedSessions.Add(1)
		return fmt.Errorf("%w (%d open)", ErrSessionLimit, srv.cfg.MaxSessions)
	}
	srv.sessions[s.ID] = s
	if len(srv.sessions) > srv.peak {
		srv.peak = len(srv.sessions)
	}
	if s.ID > srv.nextSID {
		srv.nextSID = s.ID
	}
	ver.active.Add(1)
	srv.mu.Unlock()
	srv.restoredCount.Add(1)

	s.mu.Lock()
	s.kickLocked() // resume any iterations that were still owed
	s.mu.Unlock()
	return nil
}

// ringItems copies a ring's buffered items, in order, without consuming
// them.
func ringItems(r *wfunc.Ring) []float64 {
	a, b := r.Stretches()
	return append(append(make([]float64, 0, len(a)+len(b)), a...), b...)
}
