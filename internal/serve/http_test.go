package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"
)

// httpJSON performs one API call and decodes the JSON response.
func httpJSON(t *testing.T, client *http.Client, method, url string, body any, wantCode int) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encode body: %v", err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatalf("new request: %v", err)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("%s %s: decode: %v", method, url, err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("%s %s: status %d, want %d (body %v)", method, url, resp.StatusCode, wantCode, out)
	}
	return out
}

func TestHTTPAPI(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2, MaxSessions: 2})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := ts.Client()

	src, err := os.ReadFile("../../examples/strprogs/fmradio.str")
	if err != nil {
		t.Fatalf("read fmradio.str: %v", err)
	}

	// Load a program from source over the wire.
	resp := httpJSON(t, cl, "POST", ts.URL+"/v1/programs",
		map[string]string{"name": "fm", "source": string(src), "top": "Main"}, http.StatusOK)
	if resp["version"].(float64) != 1 {
		t.Fatalf("load: version = %v, want 1", resp["version"])
	}

	// Listing shows it active.
	resp = httpJSON(t, cl, "GET", ts.URL+"/v1/programs", nil, http.StatusOK)
	progs := resp["programs"].([]any)
	if len(progs) != 1 || progs[0].(map[string]any)["name"] != "fm" {
		t.Fatalf("programs listing: %v", progs)
	}

	// Create a session, run it, wait via status polling, drain output.
	resp = httpJSON(t, cl, "POST", ts.URL+"/v1/sessions",
		map[string]any{"program": "fm", "tenant": "acme"}, http.StatusCreated)
	id := fmt.Sprintf("%.0f", resp["id"].(float64))
	sURL := ts.URL + "/v1/sessions/" + id

	httpJSON(t, cl, "POST", sURL+"/run", map[string]int{"iterations": 10}, http.StatusOK)
	for {
		resp = httpJSON(t, cl, "GET", sURL, nil, http.StatusOK)
		if resp["done"].(float64) >= 10 {
			break
		}
	}
	resp = httpJSON(t, cl, "GET", sURL+"/drain?max=5", nil, http.StatusOK)
	if n := len(resp["values"].([]any)); n != 5 {
		t.Fatalf("drain max=5 returned %d values", n)
	}

	// Admission: session limit answers 429.
	httpJSON(t, cl, "POST", ts.URL+"/v1/sessions",
		map[string]any{"program": "fm"}, http.StatusCreated)
	httpJSON(t, cl, "POST", ts.URL+"/v1/sessions",
		map[string]any{"program": "fm"}, http.StatusTooManyRequests)

	// Stats document is well-formed.
	resp = httpJSON(t, cl, "GET", ts.URL+"/v1/stats", nil, http.StatusOK)
	if resp["schema"] != StatsSchema {
		t.Fatalf("stats schema = %v", resp["schema"])
	}

	// Close; further use answers 404.
	httpJSON(t, cl, "DELETE", sURL, nil, http.StatusOK)
	httpJSON(t, cl, "GET", sURL, nil, http.StatusNotFound)
	httpJSON(t, cl, "GET", ts.URL+"/v1/sessions/99999", nil, http.StatusNotFound)

	// Unknown program and malformed body are 400s.
	httpJSON(t, cl, "POST", ts.URL+"/v1/sessions",
		map[string]any{"program": "nope"}, http.StatusBadRequest)
	httpJSON(t, cl, "POST", ts.URL+"/v1/programs",
		map[string]string{"name": "x"}, http.StatusBadRequest)
}

func TestHTTPHotReload(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := ts.Client()

	prog := func(gain float64) map[string]string {
		src := fmt.Sprintf(`
void->float filter Src() { float n; work push 1 { push(n); n = n + 1; } }
float->float filter Amp() { work pop 1 push 1 { push(pop() * %g); } }
float->void filter Out() { work pop 1 { pop(); } }
void->void pipeline Main() { add Src(); add Amp(); add Out(); }
`, gain)
		return map[string]string{"name": "amp", "source": src, "top": "Main"}
	}

	resp := httpJSON(t, cl, "POST", ts.URL+"/v1/programs", prog(2), http.StatusOK)
	if resp["version"].(float64) != 1 {
		t.Fatalf("first load: version %v", resp["version"])
	}
	// Same source text: cache returns the same compiled object, no new
	// version.
	resp = httpJSON(t, cl, "POST", ts.URL+"/v1/programs", prog(2), http.StatusOK)
	if resp["version"].(float64) != 1 {
		t.Fatalf("identical reload: version %v, want 1", resp["version"])
	}
	// Changed constant: hot reload to version 2.
	resp = httpJSON(t, cl, "POST", ts.URL+"/v1/programs", prog(3), http.StatusOK)
	if resp["version"].(float64) != 2 {
		t.Fatalf("changed reload: version %v, want 2", resp["version"])
	}
}

// TestHTTPQuarantineBody: every session endpoint answers a quarantined
// session with 500 and the same structured error body — the terminal
// error, its filter/op/firing attribution, and "quarantined":true — and
// drain still hands over the output buffered before the failure.
func TestHTTPQuarantineBody(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 2})
	loadTest(t, srv, "t", 2.0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := ts.Client()

	resp := httpJSON(t, cl, "POST", ts.URL+"/v1/sessions",
		map[string]any{"program": "t", "tenant": "acme", "faults": "panic:g@3"}, http.StatusCreated)
	id := fmt.Sprintf("%.0f", resp["id"].(float64))
	sURL := ts.URL + "/v1/sessions/" + id

	httpJSON(t, cl, "POST", sURL+"/run", map[string]any{"iterations": 8}, http.StatusOK)
	s := srv.Session(uint64(resp["id"].(float64)))
	if err := s.WaitDone(8, 5*time.Second); err == nil {
		t.Fatal("injected panic did not fail the session")
	}

	checkBody := func(body map[string]any, where string) {
		t.Helper()
		if body["quarantined"] != true {
			t.Fatalf("%s: body lacks quarantined=true: %v", where, body)
		}
		if f, _ := body["filter"].(string); !strings.Contains(f, "g") {
			t.Fatalf("%s: filter attribution = %v", where, body["filter"])
		}
		if body["error"] == nil || body["firing"] == nil {
			t.Fatalf("%s: incomplete error body: %v", where, body)
		}
	}
	// Status keeps 200 (the session exists; the error is part of its state).
	checkBody(httpJSON(t, cl, "GET", sURL, nil, http.StatusOK), "status")
	checkBody(httpJSON(t, cl, "POST", sURL+"/run",
		map[string]any{"iterations": 1}, http.StatusInternalServerError), "run")
	checkBody(httpJSON(t, cl, "POST", sURL+"/feed",
		map[string]any{"values": []float64{1}}, http.StatusInternalServerError), "feed")
	drained := httpJSON(t, cl, "GET", sURL+"/drain", nil, http.StatusInternalServerError)
	checkBody(drained, "drain")
	// Iterations before the failing firing produced output: still drainable.
	if vals, ok := drained["values"].([]any); !ok || len(vals) == 0 {
		t.Fatalf("drain returned no pre-failure output: %v", drained["values"])
	}
}

// TestHTTPSnapshotEndpoint drives a full checkpoint/restore cycle over the
// wire: POST /v1/snapshot persists the fleet, a second server restores it,
// and a draining server refuses new sessions with 503.
func TestHTTPSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 2, SnapshotDir: dir}
	srv := New(cfg)
	loadTest(t, srv, "t", 2.0)
	ts := httptest.NewServer(srv.Handler())
	cl := ts.Client()

	resp := httpJSON(t, cl, "POST", ts.URL+"/v1/sessions",
		map[string]any{"program": "t"}, http.StatusCreated)
	id := uint64(resp["id"].(float64))
	sURL := fmt.Sprintf("%s/v1/sessions/%d", ts.URL, id)
	httpJSON(t, cl, "POST", sURL+"/run", map[string]any{"iterations": 6}, http.StatusOK)
	if err := srv.Session(id).WaitDone(6, 5*time.Second); err != nil {
		t.Fatalf("WaitDone: %v", err)
	}

	// No body: snapshots to the configured directory.
	resp = httpJSON(t, cl, "POST", ts.URL+"/v1/snapshot", nil, http.StatusOK)
	if resp["sessions"].(float64) != 1 {
		t.Fatalf("snapshot = %v, want 1 session", resp)
	}
	// Stats reflect the sweep and drain state.
	st := httpJSON(t, cl, "GET", ts.URL+"/v1/stats", nil, http.StatusOK)
	if snaps := st["snapshots"].(map[string]any); snaps["taken"].(float64) != 1 {
		t.Fatalf("stats.snapshots = %v", snaps)
	}

	// Draining server: admission answers 503 with a structured error.
	if err := srv.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	resp = httpJSON(t, cl, "POST", ts.URL+"/v1/sessions",
		map[string]any{"program": "t"}, http.StatusServiceUnavailable)
	if resp["error"] == nil {
		t.Fatalf("503 without error body: %v", resp)
	}
	ts.Close()
	srv.Close()

	srv2 := newTestServer(t, cfg)
	loadTest(t, srv2, "t", 2.0)
	if _, err := srv2.Restore(dir); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()
	status := httpJSON(t, ts2.Client(), "GET",
		fmt.Sprintf("%s/v1/sessions/%d", ts2.URL, id), nil, http.StatusOK)
	if status["done"].(float64) != 6 {
		t.Fatalf("restored session status = %v, want done=6", status)
	}
}

// TestHTTPBadFaultSpecs: malformed fault/policy specs on session creation
// are a client error, not a server fault.
func TestHTTPBadFaultSpecs(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	loadTest(t, srv, "t", 2.0)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := ts.Client()
	httpJSON(t, cl, "POST", ts.URL+"/v1/sessions",
		map[string]any{"program": "t", "faults": "explode:g@nope"}, http.StatusBadRequest)
	httpJSON(t, cl, "POST", ts.URL+"/v1/sessions",
		map[string]any{"program": "t", "on_error": "g=fly-to-the-moon"}, http.StatusBadRequest)
}

// TestHTTPOversizedFeedRejected: request bodies are bounded. A feed larger
// than any legitimate one is refused with 413 in the usual JSON error
// shape before it is buffered, and the session goes on working.
func TestHTTPOversizedFeedRejected(t *testing.T) {
	srv := newTestServer(t, Config{Workers: 1})
	loadTest(t, srv, "t", 2)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cl := ts.Client()

	resp := httpJSON(t, cl, "POST", ts.URL+"/v1/sessions",
		map[string]any{"program": "t", "source": "src"}, http.StatusCreated)
	sURL := fmt.Sprintf("%s/v1/sessions/%.0f", ts.URL, resp["id"].(float64))

	huge := `{"values":[` + strings.Repeat("1.5,", maxBodyBytes/4) + `1.5]}`
	r, err := cl.Post(sURL+"/feed", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatalf("oversized feed: %v", err)
	}
	var body map[string]any
	err = json.NewDecoder(r.Body).Decode(&body)
	r.Body.Close()
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized feed: status %d, want 413", r.StatusCode)
	}
	if err != nil || body["error"] == nil {
		t.Fatalf("oversized feed: body %v (decode error %v), want a JSON error", body, err)
	}
	if in, _ := srv.Session(1).Buffered(); in != 0 {
		t.Fatalf("rejected feed buffered %d items", in)
	}

	resp = httpJSON(t, cl, "POST", sURL+"/feed",
		map[string]any{"values": []float64{1, 2, 3}}, http.StatusOK)
	if resp["accepted"].(float64) != 3 {
		t.Fatalf("feed after rejection accepted %v items, want 3", resp["accepted"])
	}
	httpJSON(t, cl, "POST", sURL+"/run", map[string]int{"iterations": 3}, http.StatusOK)
	for {
		if resp = httpJSON(t, cl, "GET", sURL, nil, http.StatusOK); resp["done"].(float64) >= 3 {
			break
		}
	}
	resp = httpJSON(t, cl, "GET", sURL+"/drain", nil, http.StatusOK)
	if got := fmt.Sprint(resp["values"]); got != "[2 4 6]" {
		t.Fatalf("drained %s after the rejected feed, want [2 4 6]", got)
	}
}
