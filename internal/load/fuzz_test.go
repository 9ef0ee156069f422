package load

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"wantraffic/internal/datasets"
	"wantraffic/internal/monitor"
	"wantraffic/internal/obs"
)

// serveControl mounts d's reshape endpoint the way cmd/wanload does:
// at /load/reshape on a monitor server, behind its token guard. It
// returns the endpoint's URL.
func serveControl(tb testing.TB, d *Daemon, reg *obs.Registry, token string) string {
	tb.Helper()
	s, err := monitor.Start("127.0.0.1:0", monitor.Options{Tool: "wanload", Registry: reg, Token: token})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { s.Close() })
	s.Handle("/load/reshape", s.Guard(d.ControlHandler()))
	return s.URL() + "/load/reshape"
}

// FuzzReshapeBody POSTs arbitrary bodies, with the token, to the
// reshape endpoint of a daemon that is never run. Nothing panics, the
// status is 200 or 400, and an accepted reshape survives a JSON round
// trip unchanged.
func FuzzReshapeBody(f *testing.F) {
	d, err := New(twoRegime(f), Options{Seed: 1})
	if err != nil {
		f.Fatal(err)
	}
	url := serveControl(f, d, nil, "s3")
	for _, body := range []string{
		`{"scale": 1.1}`, `{"scale": 3, "pattern": "bursty"}`,
		`{"source": "tel", "rate": 12}`, `{"pattern": "ftpburst"}`,
		`{}`, `{"scale": 2, "bogus": 1}`, `not json`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Wantraffic-Token", "s3")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		queued := d.drainQueued()
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusBadRequest:
			if len(queued) != 0 {
				t.Fatalf("rejected body queued %d reshape(s)", len(queued))
			}
			return
		default:
			t.Fatalf("status %d", resp.StatusCode)
		}
		if len(queued) != 1 {
			t.Fatalf("accepted body queued %d reshape(s)", len(queued))
		}
		r := queued[0].r
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		var back Reshape
		if err := json.Unmarshal(raw, &back); err != nil || back != r {
			t.Fatalf("reshape %+v re-marshals to %s, which decodes to %+v (err %v)", r, raw, back, err)
		}
	})
}

// FuzzScenario parses arbitrary scenario specs. Nothing panics, and
// an accepted scenario marshals to JSON that parses again and
// re-marshals to the same bytes.
func FuzzScenario(f *testing.F) {
	f.Add([]byte(twoRegimeJSON))
	for _, spec := range datasets.TableI() {
		sc, err := Preset(spec.Name, 4)
		if err != nil {
			continue
		}
		raw, err := json.Marshal(sc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"kind": "conn", "horizon": 9, "sources": []}`))
	f.Fuzz(func(t *testing.T, spec []byte) {
		sc, err := ParseScenario(bytes.NewReader(spec))
		if err != nil {
			return
		}
		raw, err := json.Marshal(sc)
		if err != nil {
			t.Fatalf("accepted scenario does not marshal: %v", err)
		}
		back, err := ParseScenario(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("marshaled scenario rejected: %v\n%s", err, raw)
		}
		again, err := json.Marshal(back)
		if err != nil || !bytes.Equal(raw, again) {
			t.Fatalf("scenario re-marshals differently (err %v):\n%s\n%s", err, raw, again)
		}
	})
}
