package coord

import (
	"encoding/json"
	"io"
	"net/http"
)

// HTTP surface. wancoord mounts Handlers on its monitor server, so
// /metrics, /healthz and /events come for free and the server's token
// guard wraps the mutating routes:
//
//	POST /v1/upload    worker state transfer (guarded)
//	GET  /v1/results   combined results JSON (open)
//	GET  /v1/state     merged sketch state bytes (open)
//	POST /v1/snapshot  force a snapshot write (guarded)

// maxUploadBytes bounds one upload body (a full serialized sketch is
// tens of KB; 16 MiB leaves two orders of magnitude of headroom).
const maxUploadBytes = 16 << 20

// Handlers returns the coordinator's route map. Mutating routes are
// wrapped with guard when one is supplied (wancoord passes the monitor
// server's Guard); pass nil to leave them open.
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
