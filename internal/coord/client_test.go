package coord

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"wantraffic/internal/fault"
	"wantraffic/internal/monitor"
	"wantraffic/internal/obs"
	"wantraffic/internal/stream"
)

// newCoordServer mounts a coordinator on a monitor server the way
// wancoord does: same route map, same token guard. It returns the
// server's base URL.
func newCoordServer(t *testing.T, c *Coordinator, reg *obs.Registry, token string) string {
	t.Helper()
	s, err := monitor.Start("127.0.0.1:0", monitor.Options{Registry: reg, Token: token})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	for path, h := range c.Handlers(s.Guard) {
		s.Handle(path, h)
	}
	return s.URL()
}

// noSleep collects backoff delays instead of sleeping.
func noSleep(delays *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *delays = append(*delays, d) }
}

func clientUpload(t *testing.T) Upload {
	t.Helper()
	tr := testTrace(50)
	sk := observeConns(t, tr.Conns, 0, stream.Config{Seed: 2})
	return uploadFor(t, sk, "w0", 0, 1, 1, true)
}

func TestClientRetries5xxThenSucceeds(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := newCoordServer(t, c, nil, "")
	var calls atomic.Int64
	reg := obs.NewRegistry()
	var delays []time.Duration
	cl := &Client{
		Base: base, Seed: 7, Metrics: reg, Sleep: noSleep(&delays),
		HTTPClient: &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			if calls.Add(1) <= 2 {
				return &http.Response{StatusCode: 503, Status: "503 Service Unavailable",
					Body: io.NopCloser(strings.NewReader("overloaded")), Request: req}, nil
			}
			return http.DefaultTransport.RoundTrip(req)
		})},
	}
	rep, err := cl.Upload(context.Background(), clientUpload(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusAccepted {
		t.Fatalf("reply %+v", rep)
	}
	if len(delays) != 2 {
		t.Fatalf("%d backoffs, want 2", len(delays))
	}
	if got := reg.Counter("coord.client.retries").Value(); got != 2 {
		t.Fatalf("retries counter = %d", got)
	}
	if got := reg.Counter("coord.client.recovered").Value(); got != 1 {
		t.Fatalf("recovered counter = %d", got)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(req *http.Request) (*http.Response, error) { return f(req) }

func TestClientRetriesConnectionFailures(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := newCoordServer(t, c, nil, "")
	var delays []time.Duration
	// Drop the first two requests client-side, then deliver.
	cl := &Client{
		Base: base, Seed: 7, Sleep: noSleep(&delays),
		HTTPClient: &http.Client{Transport: fault.NewRoundTripper(nil, fault.HTTPPlan{
			Seed: 11, DropRate: 0.9,
		})},
		Retries: 40,
	}
	rep, err := cl.Upload(context.Background(), clientUpload(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusAccepted {
		t.Fatalf("reply %+v", rep)
	}
	if len(delays) == 0 {
		t.Fatal("a 90% drop plan produced no retries")
	}
}

func TestClientRetriesLostResponseIdempotently(t *testing.T) {
	// The classic idempotence case: the server applies the upload but
	// the response is lost; the retry must land as a duplicate and the
	// client must treat that as success.
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := newCoordServer(t, c, nil, "")
	var delays []time.Duration
	n := 0
	cl := &Client{
		Base: base, Seed: 7, Sleep: noSleep(&delays),
		HTTPClient: &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			n++
			resp, err := http.DefaultTransport.RoundTrip(req)
			if err == nil && n == 1 {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				return nil, fault.ErrRequestDropped
			}
			return resp, err
		})},
	}
	rep, err := cl.Upload(context.Background(), clientUpload(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusDuplicate {
		t.Fatalf("retry after applied-but-lost should be duplicate, got %+v", rep)
	}
	res, err := c.Results()
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != 50 || res.Workers[0].Uploads != 1 {
		t.Fatalf("double-count after lost response: %+v", res.Workers[0])
	}
}

func TestClientDoesNotRetry4xx(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := newCoordServer(t, c, nil, "")
	var delays []time.Duration
	cl := &Client{Base: base, Seed: 7, Sleep: noSleep(&delays)}
	u := clientUpload(t)
	u.Proto = "bogus/v9"
	u.Digest = Digest(u.State) // keep the digest honest; the proto is the rejection
	_, err = cl.Upload(context.Background(), u)
	if err == nil {
		t.Fatal("deterministic rejection returned success")
	}
	if len(delays) != 0 {
		t.Fatalf("4xx was retried %d times", len(delays))
	}
}

func TestClientDoesNotRetryCancellation(t *testing.T) {
	var delays []time.Duration
	cl := &Client{
		Base: "http://127.0.0.1:0", Seed: 7, Sleep: noSleep(&delays),
		HTTPClient: &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			return nil, req.Context().Err()
		})},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := cl.Upload(ctx, clientUpload(t))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(delays) != 0 {
		t.Fatalf("cancellation was retried %d times", len(delays))
	}
}

func TestClientRetriesTruncatedReply(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := newCoordServer(t, c, nil, "")
	var delays []time.Duration
	n := 0
	cl := &Client{
		Base: base, Seed: 7, Sleep: noSleep(&delays),
		HTTPClient: &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			n++
			resp, err := http.DefaultTransport.RoundTrip(req)
			if err == nil && n == 1 {
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				resp.Body = io.NopCloser(strings.NewReader(string(body[:len(body)/2])))
			}
			return resp, err
		})},
	}
	rep, err := cl.Upload(context.Background(), clientUpload(t))
	if err != nil {
		t.Fatal(err)
	}
	// First attempt applied on the server but the verdict was torn;
	// the retry reads back a duplicate.
	if rep.Status != StatusDuplicate || len(delays) != 1 {
		t.Fatalf("reply %+v after %d retries", rep, len(delays))
	}
}

func TestClientExhaustsRetries(t *testing.T) {
	reg := obs.NewRegistry()
	var delays []time.Duration
	cl := &Client{
		Base: "http://127.0.0.1:0", Seed: 7, Retries: 3, Metrics: reg, Sleep: noSleep(&delays),
		HTTPClient: &http.Client{Transport: roundTripFunc(func(req *http.Request) (*http.Response, error) {
			return nil, fault.ErrRequestDropped
		})},
	}
	_, err := cl.Upload(context.Background(), clientUpload(t))
	if err == nil || !strings.Contains(err.Error(), "after 4 attempts") {
		t.Fatalf("err = %v", err)
	}
	if len(delays) != 3 {
		t.Fatalf("%d backoffs, want 3", len(delays))
	}
	if got := reg.Counter("coord.client.exhausted").Value(); got != 1 {
		t.Fatalf("exhausted counter = %d", got)
	}
}

func TestClientBackoffDeterministicAndCapped(t *testing.T) {
	mk := func(seed uint64) []time.Duration {
		cl := &Client{Backoff: 100 * time.Millisecond, MaxBackoff: time.Second, Seed: seed}
		var out []time.Duration
		for i := 0; i < 8; i++ {
			out = append(out, cl.delay(i))
		}
		return out
	}
	a, b := mk(7), mk(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, delay %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < 50*time.Millisecond || a[i] > time.Second {
			t.Fatalf("delay %d = %v outside [0.5*base, max]", i, a[i])
		}
	}
	// The capped tail still jitters but never exceeds MaxBackoff.
	if a[7] > time.Second {
		t.Fatalf("capped delay %v > max", a[7])
	}
	c := mk(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestUploadEndpointTokenGuard(t *testing.T) {
	reg := obs.NewRegistry()
	c, err := New(Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	base := newCoordServer(t, c, reg, "sekrit")

	// No token: mutating routes 403; read routes stay open.
	cl := &Client{Base: base, Seed: 1, Sleep: func(time.Duration) {}}
	if _, err := cl.Upload(context.Background(), clientUpload(t)); err == nil ||
		!strings.Contains(err.Error(), "403") {
		t.Fatalf("tokenless upload: %v", err)
	}
	if got := reg.Counter("monitor.auth.denied").Value(); got != 1 {
		t.Fatalf("denied counter = %d", got)
	}
	resp, err := http.Get(base + "/v1/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/results with no token: %s", resp.Status)
	}

	// With the token the upload lands.
	cl.Token = "sekrit"
	rep, err := cl.Upload(context.Background(), clientUpload(t))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != StatusAccepted {
		t.Fatalf("reply %+v", rep)
	}

	// /v1/state serves the merged bytes with the digest header.
	resp, err = http.Get(base + "/v1/state")
	if err != nil {
		t.Fatal(err)
	}
	state, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/v1/state: %s", resp.Status)
	}
	if got := resp.Header.Get("X-Wantraffic-State-SHA256"); got != Digest(state) {
		t.Fatalf("state digest header %s, body hashes to %s", got, Digest(state))
	}
	if _, err := stream.RestoreSketch(state); err != nil {
		t.Fatalf("served state does not restore: %v", err)
	}
}

func TestUploadEndpointStale409(t *testing.T) {
	c, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	base := newCoordServer(t, c, nil, "")
	cl := &Client{Base: base, Seed: 1, Sleep: func(time.Duration) {}}
	tr := testTrace(80)
	newer := uploadFor(t, observeConns(t, tr.Conns, 0, stream.Config{Seed: 2}), "w0", 0, 2, 5, false)
	older := uploadFor(t, observeConns(t, tr.Conns[:40], 0, stream.Config{Seed: 2}), "w0", 0, 1, 1, false)
	if _, err := cl.Upload(context.Background(), newer); err != nil {
		t.Fatal(err)
	}
	rep, err := cl.Upload(context.Background(), older)
	if err != nil {
		t.Fatalf("stale must be a verdict, not an error: %v", err)
	}
	if rep.Status != StatusStale || rep.Epoch != 2 || rep.Seq != 5 {
		t.Fatalf("stale reply %+v", rep)
	}
}
