package monitor

import (
	"net/http"
	"strings"
	"testing"

	"wantraffic/internal/obs"
)

// post issues a POST with optional token headers.
func post(t *testing.T, url string, hdr map[string]string) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

func TestQuitTokenGuard(t *testing.T) {
	reg := obs.NewRegistry()
	s := startTestServer(t, Options{Tool: "test", Registry: reg, Token: "s3cret"})

	// No token and a wrong token: 403, counted, quit NOT requested.
	if code := post(t, s.URL()+"/quitquitquit", nil); code != http.StatusForbidden {
		t.Fatalf("unauthenticated POST /quitquitquit = %d, want 403", code)
	}
	if code := post(t, s.URL()+"/quitquitquit", map[string]string{"X-Wantraffic-Token": "wrong"}); code != http.StatusForbidden {
		t.Fatalf("wrong-token POST /quitquitquit = %d, want 403", code)
	}
	if got := reg.Counter("monitor.auth.denied").Value(); got != 2 {
		t.Fatalf("monitor.auth.denied = %d, want 2", got)
	}
	select {
	case <-s.QuitRequested():
		t.Fatal("quit requested by unauthorized client")
	default:
	}

	// Read-only endpoints stay open without the token.
	if code, _, _ := get(t, s.URL()+"/metrics"); code != http.StatusOK {
		t.Fatalf("GET /metrics with token configured = %d, want 200", code)
	}

	// Both header forms authenticate.
	if code := post(t, s.URL()+"/quitquitquit", map[string]string{"Authorization": "Bearer s3cret"}); code != http.StatusOK {
		t.Fatalf("bearer-token POST /quitquitquit = %d, want 200", code)
	}
	select {
	case <-s.QuitRequested():
	default:
		t.Fatal("authorized quit not requested")
	}
}

func TestQuitNoTokenStaysOpen(t *testing.T) {
	s := startTestServer(t, Options{Tool: "test"})
	if code := post(t, s.URL()+"/quitquitquit", nil); code != http.StatusOK {
		t.Fatalf("POST /quitquitquit without configured token = %d, want 200", code)
	}
}

// TestExtraHandlers mounts a tool's routes on the running server: an
// open one, and a guarded one that shares /quitquitquit's token check
// and denial counter.
func TestExtraHandlers(t *testing.T) {
	reg := obs.NewRegistry()
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("extra ok"))
	})
	s := startTestServer(t, Options{Tool: "test", Registry: reg, Token: "s3cret"})
	s.Handle("/v1/hello", h)
	s.Handle("/v1/poke", s.Guard(h))
	code, body, _ := get(t, s.URL()+"/v1/hello")
	if code != http.StatusOK || !strings.Contains(body, "extra ok") {
		t.Fatalf("extra handler: code %d body %q", code, body)
	}
	// Monitor endpoints still served.
	if code, _, _ := get(t, s.URL()+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz alongside extra handlers = %d", code)
	}
	if code := post(t, s.URL()+"/v1/poke", nil); code != http.StatusForbidden {
		t.Fatalf("tokenless POST to a guarded route = %d, want 403", code)
	}
	if got := reg.Counter("monitor.auth.denied").Value(); got != 1 {
		t.Fatalf("monitor.auth.denied = %d, want 1", got)
	}
	if code := post(t, s.URL()+"/v1/poke", map[string]string{"X-Wantraffic-Token": "s3cret"}); code != http.StatusOK {
		t.Fatalf("POST to a guarded route with the token = %d, want 200", code)
	}
}
