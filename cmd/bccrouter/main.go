// Command bccrouter fronts a replicated bccd deployment: one primary plus N
// warm standbys (see bccd's -repl-listen / -repl-follow).
//
// Usage:
//
//	bccrouter -primary URL [-standby URL ...] [-addr :8713]
//	          [-hedge D] [-probe-interval D] [-retry-after D]
//
// Routing rules:
//
//   - Writes (uploads, opens, deletes, edge mutations) go to the primary.
//   - Idempotent reads (every GET, plus POST /v1/bcc — content-addressed
//     and side-effect free) go to the primary too, but past a latency
//     threshold (-hedge, or an adaptive p95 of recent reads when 0) the
//     same request is hedged to a fingerprint-hashed standby and the first
//     answer wins. The X-Bicc-Backend response header names the node that
//     answered.
//   - When the primary dies, reads fail over to standbys immediately. The
//     first failed write triggers promotion: the router picks the
//     reachable standby with the highest applied replication sequence
//     (from /healthz), POSTs /v1/admin/promote, installs it as the new
//     primary, and re-points every surviving standby at the promoted
//     node's replication listener (POST /v1/admin/follow); a survivor
//     that cannot be retargeted is dropped from the hedge pool. Idempotent
//     writes are then retried once transparently. A non-idempotent write
//     (edge mutation) that was already in flight when the primary died
//     answers 503 + Retry-After with the X-Bicc-Maybe-Applied header —
//     the mutation may have committed, so retry layers must not replay it
//     blindly; one that was never sent anywhere is simply forwarded to
//     the promoted node.
//   - 503 + Retry-After is returned only when no replica can serve the
//     request at all.
//
// GET /routerz on the same listener reports the router's own counters.
package main

import (
	"encoding/json"
	"flag"
	"log"
	"net/http"
	"strings"
	"time"

	"bicc/internal/repl"
)

type urlFlags []string

func (u *urlFlags) String() string { return strings.Join(*u, ",") }

func (u *urlFlags) Set(v string) error {
	*u = append(*u, v)
	return nil
}

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("bccrouter: ")

	addr := flag.String("addr", ":8713", "listen address")
	primary := flag.String("primary", "", "primary bccd base URL (required), e.g. http://127.0.0.1:8714")
	hedge := flag.Duration("hedge", 0, "read-hedging latency threshold (0 = adaptive p95 of recent reads)")
	probeInterval := flag.Duration("probe-interval", 0, "backend health-probe cadence (0 = 250ms)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on 503s (0 = 1s)")
	var standbys urlFlags
	flag.Var(&standbys, "standby", "standby bccd base URL (repeatable)")
	flag.Parse()

	if *primary == "" {
		log.Fatal("-primary is required")
	}
	rt, err := repl.NewRouter(repl.RouterConfig{
		Primary:       *primary,
		Standbys:      standbys,
		HedgeDelay:    *hedge,
		ProbeInterval: *probeInterval,
		RetryAfter:    *retryAfter,
		Logf:          log.Printf,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer rt.Close()

	mux := http.NewServeMux()
	mux.HandleFunc("GET /routerz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"primary":     rt.Primary(),
			"failovers":   rt.Failovers(),
			"hedged":      rt.Hedged(),
			"hedged_wins": rt.HedgedWins(),
			"refused":     rt.Refused(),
		})
	})
	mux.Handle("/", rt)

	srv := &http.Server{Addr: *addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	log.Printf("routing %s (+%d standbys) on %s", *primary, len(standbys), *addr)
	log.Fatal(srv.ListenAndServe())
}
