package coord

import (
	"encoding/json"
	"io"
	"net/http"

	"wantraffic/internal/monitor"
)

// HTTP surface. Mount adds the coordinator's routes to a monitor
// server's options (wancoord builds its own monitor.Options and
// calls it), so /metrics, /healthz and /events come for free and the
// server's token guards the mutating routes:
//
//	POST /v1/upload    worker state transfer (guarded)
//	GET  /v1/results   combined results JSON (open)
//	GET  /v1/state     merged sketch state bytes (open)
//	POST /v1/snapshot  force a snapshot write (guarded)

// maxUploadBytes bounds one upload body (a full serialized sketch is
// tens of KB; 16 MiB leaves two orders of magnitude of headroom).
const maxUploadBytes = 16 << 20

// Handlers returns the coordinator's route map. Mutating routes are
// wrapped with guard when one is supplied (Mount passes the monitor
// token check); pass nil to leave them open.
func (c *Coordinator) Handlers(guard func(http.Handler) http.Handler) map[string]http.Handler {
	if guard == nil {
		guard = func(h http.Handler) http.Handler { return h }
	}
	return map[string]http.Handler{
		"/v1/upload":   guard(http.HandlerFunc(c.handleUpload)),
		"/v1/results":  http.HandlerFunc(c.handleResults),
		"/v1/state":    http.HandlerFunc(c.handleState),
		"/v1/snapshot": guard(http.HandlerFunc(c.handleSnapshot)),
	}
}

// Mount attaches the coordinator to a monitor server's option set:
// routes land in opts.Handlers and mutating ones inherit opts.Token.
func (c *Coordinator) Mount(opts *monitor.Options) {
	guard := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if !monitor.CheckToken(r, opts.Token) {
				c.opts.Metrics.Counter("coord.auth.denied").Inc()
				http.Error(w, "missing or invalid serve token", http.StatusForbidden)
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	if opts.Handlers == nil {
		opts.Handlers = make(map[string]http.Handler)
	}
	for path, h := range c.Handlers(guard) {
		opts.Handlers[path] = h
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (c *Coordinator) handleUpload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxUploadBytes+1))
	if err != nil {
		// The client died mid-body; it will retry with the same digest
		// and land on the duplicate/accepted path idempotently.
		http.Error(w, "short body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(body) > maxUploadBytes {
		http.Error(w, "upload exceeds 16 MiB", http.StatusRequestEntityTooLarge)
		return
	}
	var u Upload
	if err := json.Unmarshal(body, &u); err != nil {
		writeJSON(w, http.StatusBadRequest, Reply{Error: "malformed upload: " + err.Error()})
		return
	}
	rep, err := c.Apply(u)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, Reply{Worker: u.Worker, Error: err.Error()})
		return
	}
	code := http.StatusOK
	if rep.Status == StatusStale {
		// 409 tells the client its state lost an ordering race — a
		// protocol-level outcome, not a transport failure to retry.
		code = http.StatusConflict
	}
	writeJSON(w, code, rep)
}

func (c *Coordinator) handleResults(w http.ResponseWriter, r *http.Request) {
	res, err := c.Results()
	if err != nil {
		http.Error(w, "merge failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (c *Coordinator) handleState(w http.ResponseWriter, r *http.Request) {
	state, digest, err := c.Merged()
	if err != nil {
		http.Error(w, "merge failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	if state == nil {
		http.Error(w, "no worker states yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Wantraffic-State-SHA256", digest)
	w.Write(state)
}

func (c *Coordinator) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if c.opts.Snapshot == "" {
		http.Error(w, "no snapshot path configured", http.StatusNotFound)
		return
	}
	if err := c.Snapshot(); err != nil {
		http.Error(w, "snapshot failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "written", "path": c.opts.Snapshot})
}
