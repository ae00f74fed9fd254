package tuneserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"aedbmls/internal/eval"
	"aedbmls/internal/study"
)

// Handler returns the HTTP API over the server:
//
//	POST /studies                create a study from a JSON StudySpec
//	GET  /studies                list study statuses
//	GET  /studies/{name}         one study's status
//	GET  /studies/{name}/front   stream the merged front as NDJSON
//	POST /studies/{name}/pause   hold trial dispatch
//	POST /studies/{name}/resume  reopen trial dispatch
//	POST /studies/{name}/stop    stop; body reports the merged boundary
//	GET  /healthz                evaluation health counters
//
// Errors are JSON {"error": "..."}: ErrSpec 400, ErrNotFound 404,
// ErrDuplicate and ErrBadState 409, anything else 500.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /studies", s.handleCreate)
	mux.HandleFunc("GET /studies", s.handleList)
	mux.HandleFunc("GET /studies/{name}", s.handleGet)
	mux.HandleFunc("GET /studies/{name}/front", s.handleFront)
	mux.HandleFunc("POST /studies/{name}/pause", s.handlePause)
	mux.HandleFunc("POST /studies/{name}/resume", s.handleResume)
	mux.HandleFunc("POST /studies/{name}/stop", s.handleStop)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func httpError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrSpec):
		code = http.StatusBadRequest
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrDuplicate), errors.Is(err, ErrBadState):
		code = http.StatusConflict
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	st, err := s.Create(r.Body)
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st.Status())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	studies := s.List()
	out := make([]StudyStatus, len(studies))
	for i, st := range studies {
		out[i] = st.Status()
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("name"))
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st.Status())
}

// handleFront streams the merged front, one study.Solution JSON object
// per line (hex-float coordinates: the stream round-trips bit-exactly).
func (s *Server) handleFront(w http.ResponseWriter, r *http.Request) {
	st, err := s.Get(r.PathValue("name"))
	if err != nil {
		httpError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	for _, sol := range st.Front() {
		if err := enc.Encode(study.EncodeSolution(sol)); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	s.studyAction(w, r, func(st *Study) error { return st.Pause() })
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	s.studyAction(w, r, func(st *Study) error { return st.Resume() })
}

func (s *Server) studyAction(w http.ResponseWriter, r *http.Request, f func(*Study) error) {
	st, err := s.Get(r.PathValue("name"))
	if err != nil {
		httpError(w, err)
		return
	}
	if err := f(st); err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st.Status())
}

func (s *Server) handleStop(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	merged, err := s.Stop(name)
	if err != nil {
		httpError(w, err)
		return
	}
	st, gerr := s.Get(name)
	if gerr != nil {
		httpError(w, gerr)
		return
	}
	status := st.Status()
	writeJSON(w, http.StatusOK, map[string]any{"merged": merged, "status": status})
}

// healthReply is the GET /healthz body.
type healthReply struct {
	Studies map[string]eval.Health `json:"studies"`
	Totals  eval.Health            `json:"totals"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	out := healthReply{Studies: make(map[string]eval.Health)}
	for _, st := range s.List() {
		h := st.problem.Health()
		out.Studies[st.Name()] = h
		out.Totals.Panics += h.Panics
		out.Totals.Errors += h.Errors
		out.Totals.Failures += h.Failures
		out.Totals.ScreenEvals += h.ScreenEvals
		out.Totals.Screened += h.Screened
		out.Totals.Promoted += h.Promoted
		out.Totals.FullEvals += h.FullEvals
	}
	writeJSON(w, http.StatusOK, out)
}

// The connection timeouts of Serve bound what one client can hold: a
// request's header must arrive within readHeaderTimeout and the whole
// request (specs are small JSON bodies) within readTimeout, and an idle
// keep-alive connection is closed after idleTimeout. A client polling a
// study's status on one connection resets the idle clock at every poll.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = time.Minute
	idleTimeout       = 2 * time.Minute
)

// connTimeouts are the timeouts Serve applies: the constants above, which
// this package's tests shorten.
var connTimeouts = struct{ header, read, idle time.Duration }{readHeaderTimeout, readTimeout, idleTimeout}

// Serve runs the tuning service on addr until stop closes, then shuts
// the listener down gracefully and halts every study (interrupted
// studies checkpoint their last merged boundary and resume on the next
// start). ready, when non-nil, is called with the bound address before
// serving — the hook -port-file publication hangs off.
func Serve(addr string, opts Options, stop <-chan struct{}, ready func(net.Addr)) error {
	srv, err := New(opts)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready(ln.Addr())
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: connTimeouts.header,
		ReadTimeout:       connTimeouts.read,
		IdleTimeout:       connTimeouts.idle,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-stop
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
	}()
	err = hs.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	<-done
	srv.Close()
	if err != nil {
		return fmt.Errorf("tuneserver: %v", err)
	}
	return nil
}
