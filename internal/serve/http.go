package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"

	"streamit/internal/exec"
	"streamit/internal/faults"
)

// Handler returns the server's HTTP API:
//
//	POST   /v1/programs            {"name","source","top"}     load / hot-reload
//	GET    /v1/programs                                        list versions
//	POST   /v1/sessions            {"program","source",...}    create session
//	GET    /v1/sessions/{id}                                   session status
//	POST   /v1/sessions/{id}/run   {"iterations":n}            request iterations
//	POST   /v1/sessions/{id}/feed  {"values":[...]}            feed source input
//	GET    /v1/sessions/{id}/drain?max=n                       take output
//	GET    /v1/sessions/{id}/profile                           per-session profile
//	DELETE /v1/sessions/{id}                                   close session
//	POST   /v1/snapshot            {"dir"?}                    checkpoint all sessions
//	GET    /v1/stats                                           streamit-serve/v1 stats
//
// Admission rejections answer 429, unknown IDs 404, closed sessions 409,
// a draining server 503. A quarantined session answers 500 with the same
// structured error body on run, feed, and drain alike: the terminal
// error, its filter/op/firing attribution (engine failures) or worker
// attribution (stuck verdicts), and "quarantined":true.
func (srv *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/programs", srv.handleLoad)
	mux.HandleFunc("GET /v1/programs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"programs": srv.Programs()})
	})
	mux.HandleFunc("POST /v1/sessions", srv.handleNewSession)
	mux.HandleFunc("GET /v1/sessions/{id}", srv.withSession(srv.handleStatus))
	mux.HandleFunc("POST /v1/sessions/{id}/run", srv.withSession(srv.handleRun))
	mux.HandleFunc("POST /v1/sessions/{id}/feed", srv.withSession(srv.handleFeed))
	mux.HandleFunc("GET /v1/sessions/{id}/drain", srv.withSession(srv.handleDrain))
	mux.HandleFunc("GET /v1/sessions/{id}/profile", srv.withSession(srv.handleProfile))
	mux.HandleFunc("DELETE /v1/sessions/{id}", srv.withSession(func(w http.ResponseWriter, r *http.Request, s *Session) {
		s.Close()
		writeJSON(w, http.StatusOK, map[string]any{"closed": true})
	}))
	mux.HandleFunc("POST /v1/snapshot", srv.handleSnapshot)
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, srv.Stats())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		code = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrSessionLimit), errors.Is(err, ErrIterBacklog):
		code = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		code = http.StatusConflict
	case errors.Is(err, ErrDraining):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// quarantineBody renders a session's terminal error as the structured body
// every endpoint returns for a quarantined session.
func quarantineBody(err error) map[string]any {
	body := map[string]any{"error": err.Error(), "quarantined": true}
	var ee *exec.ExecError
	if errors.As(err, &ee) {
		body["filter"] = ee.Filter
		body["op"] = ee.Op
		body["firing"] = ee.Iteration
	}
	var se *StuckError
	if errors.As(err, &se) {
		body["worker"] = se.Worker
		body["stuck_ms"] = se.Elapsed.Milliseconds()
	}
	return body
}

// failIfQuarantined answers 500 with the structured error body when the
// session is terminally failed, reporting whether it wrote a response.
func failIfQuarantined(w http.ResponseWriter, s *Session) bool {
	err := s.Err()
	if err == nil {
		return false
	}
	writeJSON(w, http.StatusInternalServerError, quarantineBody(err))
	return true
}

// maxBodyBytes bounds every request body. The largest legitimate one is a
// feed that fills a session's input buffer: the default MaxBufferedIn of
// 65536 items at float64's longest JSON spelling (24 bytes plus a comma)
// is 1.6 MB; program sources are far smaller.
const maxBodyBytes = 4 << 20

func decode(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// withSession resolves the {id} path segment before invoking h.
func (srv *Server) withSession(h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad session id"})
			return
		}
		s := srv.Session(id)
		if s == nil {
			writeJSON(w, http.StatusNotFound, map[string]string{"error": "no such session"})
			return
		}
		h(w, r, s)
	}
}

func (srv *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Name   string `json:"name"`
		Source string `json:"source"`
		Top    string `json:"top"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if req.Name == "" || req.Source == "" || req.Top == "" {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "name, source, and top are required"})
		return
	}
	ver, err := srv.LoadSource(req.Name, req.Source, req.Top)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": req.Name, "version": ver})
}

func (srv *Server) handleNewSession(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Program string `json:"program"`
		Source  string `json:"source"`
		Tenant  string `json:"tenant"`
		Profile bool   `json:"profile"`
		Faults  string `json:"faults"`
		OnError string `json:"on_error"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	opt := SessionOptions{
		Program: req.Program, Source: req.Source, Tenant: req.Tenant, Profile: req.Profile,
	}
	if req.Faults != "" {
		plan, err := faults.ParsePlan(req.Faults)
		if err != nil {
			writeErr(w, err)
			return
		}
		opt.Faults = plan
	}
	if req.OnError != "" {
		ps, err := faults.ParsePolicies(req.OnError)
		if err != nil {
			writeErr(w, err)
			return
		}
		opt.OnError = ps
	}
	s, err := srv.NewSession(opt)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"id": s.ID, "program": req.Program, "version": s.ver.num,
	})
}

func (srv *Server) handleStatus(w http.ResponseWriter, r *http.Request, s *Session) {
	done, goal := s.Progress()
	in, out := s.Buffered()
	resp := map[string]any{
		"id": s.ID, "program": s.ver.name, "version": s.ver.num,
		"tenant": s.opt.Tenant,
		"done":   done, "goal": goal,
		"buffered_in": in, "buffered_out": out,
	}
	if err := s.Err(); err != nil {
		for k, v := range quarantineBody(err) {
			resp[k] = v
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (srv *Server) handleRun(w http.ResponseWriter, r *http.Request, s *Session) {
	var req struct {
		Iterations int `json:"iterations"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if failIfQuarantined(w, s) {
		return
	}
	if err := s.Run(req.Iterations); err != nil {
		if s.Err() != nil {
			writeJSON(w, http.StatusInternalServerError, quarantineBody(err))
			return
		}
		writeErr(w, err)
		return
	}
	done, goal := s.Progress()
	writeJSON(w, http.StatusOK, map[string]any{"done": done, "goal": goal})
}

func (srv *Server) handleFeed(w http.ResponseWriter, r *http.Request, s *Session) {
	var req struct {
		Values []float64 `json:"values"`
	}
	if err := decode(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	if failIfQuarantined(w, s) {
		return
	}
	n, err := s.Feed(req.Values)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"accepted": n})
}

func (srv *Server) handleDrain(w http.ResponseWriter, r *http.Request, s *Session) {
	max := 0
	if q := r.URL.Query().Get("max"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil {
			writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad max"})
			return
		}
		max = v
	}
	vals := s.Drain(max)
	if vals == nil {
		vals = []float64{}
	}
	// A quarantined session's buffered output stays drainable, but the
	// terminal error rides along so a polling client cannot miss it.
	if err := s.Err(); err != nil {
		body := quarantineBody(err)
		body["values"] = vals
		writeJSON(w, http.StatusInternalServerError, body)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"values": vals})
}

func (srv *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Dir string `json:"dir"`
	}
	if r.ContentLength != 0 {
		if err := decode(w, r, &req); err != nil {
			writeErr(w, err)
			return
		}
	}
	sum, err := srv.Snapshot(req.Dir)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, sum)
}

func (srv *Server) handleProfile(w http.ResponseWriter, r *http.Request, s *Session) {
	p := s.Profile()
	if p == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "session was created without profile"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"filters": p.Snapshot()})
}
