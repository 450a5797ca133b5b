package service

import (
	"fmt"
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"
)

// requestIDs numbers requests process-wide so a 500 can be correlated with
// the server-side panic log line.
var requestIDs atomic.Int64

// statusRecorder remembers whether a handler already started its response,
// so the recovery middleware knows if a 500 can still be written.
type statusRecorder struct {
	http.ResponseWriter
	wrote bool
}

func (w *statusRecorder) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusRecorder) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// PanicRecovery wraps next so a panicking handler answers 500 (with the
// request id for correlation) instead of killing its connection. net/http
// would keep the daemon alive anyway, but it aborts the connection with no
// response and no accounting; this middleware turns a handler bug into an
// observable, countable error. onPanic (if non-nil) is called once per
// recovered panic, before the 500 is written.
func PanicRecovery(next http.Handler, onPanic func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := requestIDs.Add(1)
		rid := fmt.Sprintf("req-%08x", id)
		w.Header().Set("X-Request-Id", rid)
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			v := recover()
			if v == nil {
				return
			}
			if v == http.ErrAbortHandler {
				// The conventional "abort this request" sentinel: honor it.
				panic(v)
			}
			if onPanic != nil {
				onPanic()
			}
			log.Printf("service: panic serving %s %s %s: %v\n%s", rid, r.Method, r.URL.Path, v, debug.Stack())
			if !rec.wrote {
				writeError(rec, http.StatusInternalServerError, "internal error (request %s)", rid)
			}
		}()
		next.ServeHTTP(rec, r)
	})
}

// drainGate rejects mutating/compute endpoints with 503 while the server is
// draining, letting in-flight work finish and health checks keep answering.
func (s *Server) drainGate(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s.draining.Load() {
			switch r.URL.Path {
			case "/healthz", "/metrics":
				// Health and metrics stay readable during the drain.
			default:
				w.Header().Set("Retry-After", s.retryAfterSeconds())
				writeError(w, http.StatusServiceUnavailable, "server is draining")
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// BeginDrain flips the server into draining mode: /healthz reports
// "draining" and new work is rejected with 503 while in-flight requests run
// to completion. It is safe to call more than once.
func (s *Server) BeginDrain() { s.draining.Store(true) }
