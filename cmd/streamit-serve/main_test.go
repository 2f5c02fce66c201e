package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestCLIEndToEnd builds the binary and drives it the way an operator does:
// preload a program, serve a session over HTTP, SIGTERM into a snapshot,
// and start again on the same directory. The observables are the exit
// status, the lifecycle lines on stdout, and the session's progress on both
// sides of the restart.
func TestCLIEndToEnd(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "streamit-serve")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	prog, err := filepath.Abs("../../examples/strprogs/fmradio.str")
	if err != nil {
		t.Fatal(err)
	}
	preload := "fm=" + prog + ":Main"

	for _, bad := range [][]string{
		{"fm:" + prog},
		{"fm=" + prog},
		{"-backend", "jit", preload},
	} {
		out, err := exec.Command(bin, bad...).CombinedOutput()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("streamit-serve %s: err = %v, want exit status 1\n%s", strings.Join(bad, " "), err, out)
		}
	}

	// A free loopback port: bind one, note it, release it to the server.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	snaps := filepath.Join(dir, "snapshots")

	// call answers one JSON request; the server binds after it prints its
	// banner, so a refused connection is retried until the deadline.
	call := func(t *testing.T, method, path, body string) map[string]any {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			req, err := http.NewRequest(method, "http://"+addr+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				if time.Now().After(deadline) {
					t.Fatalf("%s %s: %v", method, path, err)
				}
				time.Sleep(10 * time.Millisecond)
				continue
			}
			var out map[string]any
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil || resp.StatusCode >= 300 {
				t.Fatalf("%s %s: status %d, body %v (decode: %v)", method, path, resp.StatusCode, out, err)
			}
			return out
		}
	}
	// serve starts the server, hands it to drive, then SIGTERMs it, waits
	// for it to exit and returns everything it printed.
	serve := func(t *testing.T, drive func()) (printed string) {
		t.Helper()
		var out bytes.Buffer
		cmd := exec.Command(bin, "-addr", addr, "-snapshot-dir", snaps, preload)
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer func() {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			if err := cmd.Wait(); err != nil {
				t.Errorf("server exited with %v\n%s", err, out.String())
			}
			printed = out.String()
		}()
		drive()
		return
	}

	const iters = 50
	progress := func(t *testing.T) (done, goal float64) {
		st := call(t, "GET", "/v1/sessions/1", "")
		return st["done"].(float64), st["goal"].(float64)
	}
	first := serve(t, func() {
		if s := call(t, "POST", "/v1/sessions", `{"program":"fm"}`); s["id"] != float64(1) {
			t.Fatalf("opened session %v, want id 1", s)
		}
		call(t, "POST", "/v1/sessions/1/run", fmt.Sprintf(`{"iterations":%d}`, iters))
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if done, _ := progress(t); done == iters {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("session never finished its iterations")
			}
		}
	})
	for _, want := range []string{"loaded fm v1", "listening on " + addr, "snapshotted 1 session(s)"} {
		if !strings.Contains(first, want) {
			t.Fatalf("first run did not print %q:\n%s", want, first)
		}
	}
	second := serve(t, func() {
		if done, goal := progress(t); done != iters || goal != iters {
			t.Fatalf("restored session is at %v of %v iterations, want %d of %d", done, goal, iters, iters)
		}
	})
	if want := "restored 1 session(s)"; !strings.Contains(second, want) {
		t.Fatalf("second run did not print %q:\n%s", want, second)
	}
}
