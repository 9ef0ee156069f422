package load

import (
	"encoding/json"
	"net/http"
)

// ControlHandler returns the runtime reshape endpoint, mounted on the
// monitor server (cmd/wanload mounts it at /load/reshape behind the
// server's token guard). POST a JSON Reshape body; the daemon applies
// it at the trace time its run loop has reached and publishes a
// load_reshape event on the bus.
func (d *Daemon) ControlHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var req Reshape
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			http.Error(w, "bad reshape body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if err := d.Reshape(req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]any{
			"ok":      true,
			"source":  req.Source,
			"scale":   req.Scale,
			"pattern": req.Pattern,
		})
	})
}
