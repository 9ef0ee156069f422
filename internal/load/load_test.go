package load

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"wantraffic/internal/model"
	"wantraffic/internal/obs"
	"wantraffic/internal/trace"
)

func baseScenario() *Scenario {
	return &Scenario{
		Name:    "test",
		Kind:    KindConn,
		Horizon: 600,
		Sources: []SourceSpec{
			{Name: "telnet", Proto: "TELNET", Pattern: PatternPoisson, Users: 8, Rate: 5},
			{Name: "ftp", Proto: "FTP", Pattern: PatternUniform, Users: 4, Rate: 2},
		},
	}
}

func runScenario(t *testing.T, sc *Scenario, opts Options) ([]byte, Report) {
	t.Helper()
	d, err := New(sc, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rep, err := d.Run(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), rep
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// pinnedDigest is the SHA-256 of the baseScenario output at seed 42.
// It pins the determinism contract across refactors: if an
// intentional generator change moves it, re-pin with the value from
// the failure message — but any *unintentional* drift is a broken
// byte-identity guarantee.
const pinnedDigest = "20a018f797c6ece930da5bd4431b31f024309accdf6cedaab6e1ab8e47b148d0"

func TestPinnedDigest(t *testing.T) {
	out, rep := runScenario(t, baseScenario(), Options{Seed: 42})
	if rep.Records == 0 {
		t.Fatal("no records generated")
	}
	if got := digest(out); got != pinnedDigest {
		t.Fatalf("output digest drifted:\n got %s\nwant %s\n(records=%d)", got, pinnedDigest, rep.Records)
	}
}

// fakeClock makes dilated runs instantaneous and measurable: Sleep
// advances Now.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

// twoRegimeJSON is steady Poisson for 600 trace seconds, then a
// scheduled reshape to a 2x-rate bursty pattern: the scenario the
// observatory's regime-change test replays (cmd/wanstream).
const twoRegimeJSON = `{
	"name": "two-regime",
	"kind": "conn",
	"horizon": 1200,
	"sources": [
		{"name": "tel", "proto": "TELNET", "pattern": "poisson", "users": 64, "rate": 30}
	],
	"phases": [
		{"at": 600, "pattern": "bursty", "scale": 2}
	]
}`

// twoRegime parses twoRegimeJSON.
func twoRegime(tb testing.TB) *Scenario {
	tb.Helper()
	sc, err := ParseScenario(strings.NewReader(twoRegimeJSON))
	if err != nil {
		tb.Fatal(err)
	}
	return sc
}

// determinismScenarios are the inputs of the byte-identity tests: one
// without phases, and one whose scheduled reshape must land on the
// same record at any dilation.
var determinismScenarios = []struct {
	name string
	mk   func(testing.TB) *Scenario
}{
	{"base", func(testing.TB) *Scenario { return baseScenario() }},
	{"two-regime", twoRegime},
}

// Byte-identity across dilation factors: pacing must never touch
// record contents.
func TestDilationInvariance(t *testing.T) {
	for _, sc := range determinismScenarios {
		ref, _ := runScenario(t, sc.mk(t), Options{Seed: 42})
		for _, dilate := range []float64{10, 100, 1000} {
			clk := &fakeClock{t: time.Unix(1000, 0)}
			out, _ := runScenario(t, sc.mk(t), Options{
				Seed: 42, Dilate: dilate, Sleep: clk.Sleep, Now: clk.Now,
			})
			if !bytes.Equal(ref, out) {
				t.Fatalf("%s, dilate %g: output differs from full-speed run", sc.name, dilate)
			}
		}
	}
}

// Byte-identity across two identical runs (fresh daemons).
func TestRunRepeatability(t *testing.T) {
	for _, sc := range determinismScenarios {
		a, _ := runScenario(t, sc.mk(t), Options{Seed: 42})
		b, _ := runScenario(t, sc.mk(t), Options{Seed: 42})
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two runs with the same seed differ", sc.name)
		}
		c, _ := runScenario(t, sc.mk(t), Options{Seed: 43})
		if bytes.Equal(a, c) {
			t.Fatalf("%s: different seeds produced identical output", sc.name)
		}
	}
}

// Byte-identity under user fan-out order: per-user seeds derive from
// (source, user) indices, so instantiating users in any order must
// yield the same stream.
func TestFanOutOrderInvariance(t *testing.T) {
	ref, _ := runScenario(t, baseScenario(), Options{Seed: 42})

	d, err := New(baseScenario(), Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	// Re-init every user in a shuffled order (shuffle RNG unrelated
	// to the seed), then rebuild the heap, as a hostile fan-out would.
	type uref struct {
		si, j   int
		perUser float64
	}
	var order []uref
	for si, s := range d.sources {
		for j := 0; j < s.n; j++ {
			order = append(order, uref{si, j, s.rate / float64(s.n)})
		}
	}
	rand.New(rand.NewSource(99)).Shuffle(len(order), func(i, j int) {
		order[i], order[j] = order[j], order[i]
	})
	for _, o := range order {
		d.initUser(o.si, o.j, o.perUser)
	}
	d.rebuildHeap()
	var buf bytes.Buffer
	if _, err := d.Run(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ref, buf.Bytes()) {
		t.Fatal("shuffled user fan-out changed the output stream")
	}
}

// Achieved wall rate at dilation factors {10, 100, 1000}: the
// measured emit rate (records per wall second on the injected clock)
// must stay within ±10% of the configured rate times the dilation.
func TestAchievedRateAccuracy(t *testing.T) {
	for _, dilate := range []float64{10, 100, 1000} {
		sc := &Scenario{
			Name: "rate", Kind: KindConn, Horizon: 2000,
			Sources: []SourceSpec{
				{Name: "s", Proto: "TELNET", Pattern: PatternPoisson, Users: 10, Rate: 20},
			},
		}
		clk := &fakeClock{t: time.Unix(1000, 0)}
		_, rep := runScenario(t, sc, Options{Seed: 7, Dilate: dilate, Sleep: clk.Sleep, Now: clk.Now})
		want := 20 * dilate
		if rep.RateWall < 0.9*want || rep.RateWall > 1.1*want {
			t.Errorf("dilate %g: wall rate %.1f, want %.1f ±10%%", dilate, rep.RateWall, want)
		}
		// The trace-time rate must match the configured rate too.
		if rep.RateTrace < 0.9*20 || rep.RateTrace > 1.1*20 {
			t.Errorf("dilate %g: trace rate %.2f, want 20 ±10%%", dilate, rep.RateTrace)
		}
	}
}

// Uniform pattern at dilation: deterministic spacing makes the bound
// tight.
func TestAchievedRateUniform(t *testing.T) {
	sc := &Scenario{
		Name: "rate", Kind: KindConn, Horizon: 1000,
		Sources: []SourceSpec{
			{Name: "s", Proto: "WWW", Pattern: PatternUniform, Users: 4, Rate: 50},
		},
	}
	clk := &fakeClock{t: time.Unix(1000, 0)}
	_, rep := runScenario(t, sc, Options{Seed: 1, Dilate: 100, Sleep: clk.Sleep, Now: clk.Now})
	if rep.RateWall < 0.9*5000 || rep.RateWall > 1.1*5000 {
		t.Errorf("wall rate %.1f, want 5000 ±10%%", rep.RateWall)
	}
}

// The diurnal pattern's hourly shape must match its profile: compare
// the peak-hours/trough-hours record ratio against the profile's.
func TestDiurnalShape(t *testing.T) {
	sc := &Scenario{
		Name: "diurnal", Kind: KindConn, Horizon: 86400,
		Sources: []SourceSpec{
			{Name: "s", Proto: "TELNET", Pattern: PatternDiurnal, Users: 20, Rate: 2, Profile: "telnet"},
		},
	}
	out, _ := runScenario(t, sc, Options{Seed: 11})
	tr, err := trace.ReadConnTrace(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	var hourly [24]float64
	for _, c := range tr.Conns {
		hourly[int(c.Start/3600)%24]++
	}
	norm := model.TelnetProfile().Normalize()
	// Top-6 vs bottom-6 hours by profile weight.
	idx := make([]int, 24)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < 24; i++ { // selection sort by descending weight
		for j := i + 1; j < 24; j++ {
			if norm[idx[j]] > norm[idx[i]] {
				idx[i], idx[j] = idx[j], idx[i]
			}
		}
	}
	var obsPeak, obsTrough, expPeak, expTrough float64
	for _, h := range idx[:6] {
		obsPeak += hourly[h]
		expPeak += norm[h]
	}
	for _, h := range idx[18:] {
		obsTrough += hourly[h]
		expTrough += norm[h]
	}
	if obsTrough == 0 || expTrough == 0 {
		t.Fatalf("empty trough bins (obs %.0f, exp %.3f)", obsTrough, expTrough)
	}
	gotRatio, wantRatio := obsPeak/obsTrough, expPeak/expTrough
	if gotRatio < 0.75*wantRatio || gotRatio > 1.25*wantRatio {
		t.Errorf("peak/trough ratio %.2f, want %.2f ±25%%", gotRatio, wantRatio)
	}
}

// A scheduled rate-scale phase must change the emission density at
// its event time, deterministically.
func TestScheduledPhaseScale(t *testing.T) {
	sc := &Scenario{
		Name: "phase", Kind: KindConn, Horizon: 1000,
		Sources: []SourceSpec{
			{Name: "s", Proto: "SMTP", Pattern: PatternPoisson, Users: 8, Rate: 10},
		},
		Phases: []PhaseSpec{{At: 500, Scale: 4}},
	}
	out, rep := runScenario(t, sc, Options{Seed: 3})
	if rep.Reshapes != 1 {
		t.Fatalf("reshapes = %d, want 1", rep.Reshapes)
	}
	tr, err := trace.ReadConnTrace(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	var before, after float64
	for _, c := range tr.Conns {
		if c.Start < 500 {
			before++
		} else {
			after++
		}
	}
	ratio := after / before
	if ratio < 3 || ratio > 5 {
		t.Errorf("post-phase/pre-phase record ratio %.2f, want ~4", ratio)
	}
	// Phases are part of the byte-identity guarantee.
	out2, _ := runScenario(t, sc, Options{Seed: 3})
	if !bytes.Equal(out, out2) {
		t.Fatal("scheduled phase broke run repeatability")
	}
}

// A scheduled pattern swap must land and keep emitting.
func TestScheduledPhaseSwap(t *testing.T) {
	sc := &Scenario{
		Name: "swap", Kind: KindConn, Horizon: 1200,
		Sources: []SourceSpec{
			{Name: "s", Proto: "NNTP", Pattern: PatternPoisson, Users: 4, Rate: 8},
		},
		Phases: []PhaseSpec{{At: 600, Pattern: PatternBursty}},
	}
	out, rep := runScenario(t, sc, Options{Seed: 5})
	if rep.Reshapes != 1 {
		t.Fatalf("reshapes = %d, want 1", rep.Reshapes)
	}
	tr, err := trace.ReadConnTrace(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	var after int
	for _, c := range tr.Conns {
		if c.Start >= 600 {
			after++
		}
	}
	if after == 0 {
		t.Fatal("no records after the pattern swap")
	}
}

// Structured generators: the FTP hierarchy emits control + FTPDATA
// conns with shared session IDs; FULL-TEL emits Tcplib-spaced packets.
func TestStructuredPatterns(t *testing.T) {
	ftp := &Scenario{
		Name: "ftp", Kind: KindConn, Horizon: 4000,
		Sources: []SourceSpec{
			{Name: "s", Proto: "FTP", Pattern: PatternFTPBurst, Users: 6, Rate: 0.05},
		},
	}
	out, rep := runScenario(t, ftp, Options{Seed: 9})
	tr, err := trace.ReadConnTrace(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	var ctl, data int
	sessions := map[int64]bool{}
	for _, c := range tr.Conns {
		switch c.Proto {
		case trace.FTP:
			ctl++
			sessions[c.SessionID] = true
		case trace.FTPData:
			data++
		default:
			t.Fatalf("unexpected proto %v", c.Proto)
		}
	}
	if ctl == 0 || data == 0 {
		t.Fatalf("ftpburst emitted ctl=%d data=%d, want both > 0", ctl, data)
	}
	if rep.PerProto["FTP"] != int64(ctl) || rep.PerProto["FTPDATA"] != int64(data) {
		t.Fatalf("per-proto report %v disagrees with trace (ctl=%d data=%d)", rep.PerProto, ctl, data)
	}

	tel := &Scenario{
		Name: "fulltel", Kind: KindPacket, Horizon: 2000,
		Sources: []SourceSpec{
			{Name: "s", Proto: "TELNET", Pattern: PatternFullTel, Users: 5, Rate: 0.1},
		},
	}
	out, _ = runScenario(t, tel, Options{Seed: 9})
	pt, err := trace.ReadPacketTrace(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(pt.Packets) == 0 {
		t.Fatal("fulltel emitted no packets")
	}
	last := -1.0
	conns := map[int64]bool{}
	for _, p := range pt.Packets {
		if p.Time < last {
			t.Fatal("fulltel packet stream not sorted")
		}
		last = p.Time
		conns[p.ConnID] = true
	}
	if len(conns) < 2 {
		t.Fatalf("fulltel produced %d connections, want several", len(conns))
	}
}

// Pareto-renewal counts must be burstier than Poisson at the same
// rate: index of dispersion of per-second counts well above 1.
func TestParetoDispersion(t *testing.T) {
	mk := func(pattern string) *Scenario {
		return &Scenario{
			Name: pattern, Kind: KindPacket, Horizon: 2000,
			Sources: []SourceSpec{
				{Name: "s", Proto: "OTHER", Pattern: pattern, Users: 5, Rate: 20, ParetoShape: 1.2},
			},
		}
	}
	iod := func(out []byte) float64 {
		pt, err := trace.ReadPacketTrace(bytes.NewReader(out))
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]float64, 2000)
		for _, p := range pt.Packets {
			if i := int(p.Time); i >= 0 && i < len(counts) {
				counts[i]++
			}
		}
		var mean, varsum float64
		for _, c := range counts {
			mean += c
		}
		mean /= float64(len(counts))
		for _, c := range counts {
			varsum += (c - mean) * (c - mean)
		}
		return varsum / float64(len(counts)-1) / mean
	}
	poisson, _ := runScenario(t, mk(PatternPoisson), Options{Seed: 21})
	pareto, _ := runScenario(t, mk(PatternPareto), Options{Seed: 21})
	iodPoisson, iodPareto := iod(poisson), iod(pareto)
	if iodPoisson > 2 {
		t.Errorf("poisson dispersion %.2f, want ~1", iodPoisson)
	}
	if iodPareto < 2*iodPoisson {
		t.Errorf("pareto dispersion %.2f not clearly above poisson %.2f", iodPareto, iodPoisson)
	}
}

// Live reshape over the control endpoint, mounted as cmd/wanload
// mounts it: the monitor's token guard, validation, and application
// by a running daemon.
func TestControlEndpoint(t *testing.T) {
	sc := &Scenario{
		Name: "ctl", Kind: KindConn, Horizon: 1e9,
		Sources: []SourceSpec{
			{Name: "s", Proto: "TELNET", Pattern: PatternPoisson, Users: 4, Rate: 100},
		},
	}
	bus := obs.NewBus()
	events, unsub := bus.Subscribe(16)
	defer unsub()

	d, err := New(sc, Options{Seed: 1, Bus: bus})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	url := serveControl(t, d, reg, "sekrit")

	post := func(body, token string) int {
		req, _ := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		if token != "" {
			req.Header.Set("X-Wantraffic-Token", token)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post(`{"scale": 2}`, ""); code != http.StatusForbidden {
		t.Fatalf("unauthenticated reshape: status %d, want 403", code)
	}
	if code := post(`{"scale": 2}`, "wrong"); code != http.StatusForbidden {
		t.Fatalf("bad-token reshape: status %d, want 403", code)
	}
	if got := reg.Counter("monitor.auth.denied").Value(); got != 2 {
		t.Fatalf("monitor.auth.denied = %d, want 2", got)
	}
	if code := post(`{"pattern": "ftpburst"}`, "sekrit"); code != http.StatusBadRequest {
		t.Fatalf("structured swap: status %d, want 400", code)
	}
	if code := post(`{"source": "nope", "scale": 2}`, "sekrit"); code != http.StatusBadRequest {
		t.Fatalf("unknown source: status %d, want 400", code)
	}
	if code := post(`{}`, "sekrit"); code != http.StatusBadRequest {
		t.Fatalf("empty reshape: status %d, want 400", code)
	}
	if code := post(`{"scale": 3, "pattern": "bursty"}`, "sekrit"); code != http.StatusOK {
		t.Fatalf("valid reshape: status %d, want 200", code)
	}

	// Run the daemon until the queued reshape lands, then cancel.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan Report, 1)
	go func() {
		rep, _ := d.Run(ctx, &countingWriter{limit: 1 << 20, cancel: cancel})
		done <- rep
	}()
	rep := <-done
	if rep.Reshapes != 1 {
		t.Fatalf("reshapes = %d, want 1", rep.Reshapes)
	}
	deadline := time.After(2 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.Kind == obs.EventLoadReshape {
				if ev.Attrs["origin"] != "control" || ev.Attrs["scale"] != "3" || ev.Attrs["pattern"] != "bursty" {
					t.Fatalf("load_reshape attrs = %v", ev.Attrs)
				}
				return
			}
		case <-deadline:
			t.Fatal("no load_reshape event on the bus")
		}
	}
}

// countingWriter cancels the run's context after limit bytes — a way
// to stop an unbounded-horizon daemon from a test.
type countingWriter struct {
	n      int
	limit  int
	cancel context.CancelFunc
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	if w.n >= w.limit {
		w.cancel()
	}
	return len(p), nil
}

// Metrics gauges reflect the run.
func TestMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	sc := baseScenario()
	d, err := New(sc, Options{Seed: 42, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("load.users").Value(); got != 12 {
		t.Fatalf("load.users = %g, want 12", got)
	}
	if got := reg.Gauge("load.rate.target").Value(); math.Abs(got-7) > 1e-9 {
		t.Fatalf("load.rate.target = %g, want 7", got)
	}
	var buf bytes.Buffer
	rep, err := d.Run(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("load.records").Value(); got != rep.Records {
		t.Fatalf("load.records = %d, report says %d", got, rep.Records)
	}
	if got := reg.Counter("load.proto.TELNET").Value(); got != rep.PerProto["TELNET"] {
		t.Fatalf("load.proto.TELNET = %d, report says %d", got, rep.PerProto["TELNET"])
	}
	if got := reg.Gauge("load.trace_seconds").Value(); got <= 0 || got >= sc.Horizon {
		t.Fatalf("load.trace_seconds = %g, want in (0, %g)", got, sc.Horizon)
	}
}

// UserScale multiplies the population without changing per-source
// aggregate rates.
func TestUserScale(t *testing.T) {
	d, err := New(baseScenario(), Options{Seed: 42, UserScale: 3})
	if err != nil {
		t.Fatal(err)
	}
	if d.Users() != 36 {
		t.Fatalf("users = %d, want 36", d.Users())
	}
	var buf bytes.Buffer
	rep, err := d.Run(context.Background(), &buf)
	if err != nil {
		t.Fatal(err)
	}
	// Rate stays the same aggregate: 7/s over 600 s ≈ 4200 records.
	if rep.Records < 3500 || rep.Records > 4900 {
		t.Fatalf("records = %d, want ≈4200", rep.Records)
	}
}

// Binary output decodes through the streamed binary scanner to the
// same records as the text output.
func TestBinaryTextParity(t *testing.T) {
	text, _ := runScenario(t, baseScenario(), Options{Seed: 42})
	bin, _ := runScenario(t, baseScenario(), Options{Seed: 42, Binary: true})
	tt, err := trace.ReadConnTrace(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	bt, err := trace.ReadConnTraceBinary(bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	if len(tt.Conns) != len(bt.Conns) {
		t.Fatalf("text %d records, binary %d", len(tt.Conns), len(bt.Conns))
	}
	for i := range tt.Conns {
		// Text loses no precision for these fields (%g shortest form
		// round-trips float64 exactly).
		if tt.Conns[i] != bt.Conns[i] {
			t.Fatalf("record %d: text %+v != binary %+v", i, tt.Conns[i], bt.Conns[i])
		}
	}
}

// Scenario validation error paths.
func TestScenarioValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no sources", func(s *Scenario) { s.Sources = nil }, "no sources"},
		{"bad kind", func(s *Scenario) { s.Kind = "flows" }, "kind"},
		{"bad proto", func(s *Scenario) { s.Sources[0].Proto = "GOPHER" }, "unknown proto"},
		{"bad pattern", func(s *Scenario) { s.Sources[0].Pattern = "chaotic" }, "pattern"},
		{"conn-kind fulltel", func(s *Scenario) { s.Sources[0].Pattern = PatternFullTel }, "not valid for kind"},
		{"zero users", func(s *Scenario) { s.Sources[0].Users = 0 }, "users"},
		{"zero rate", func(s *Scenario) { s.Sources[0].Rate = 0 }, "rate"},
		{"dup names", func(s *Scenario) { s.Sources[1].Name = s.Sources[0].Name }, "duplicate"},
		{"bad profile", func(s *Scenario) { s.Sources[0].Profile = "lunar" }, "profile"},
		{"bad pareto", func(s *Scenario) { s.Sources[0].ParetoShape = 3 }, "pareto_shape"},
		{"phase no-op", func(s *Scenario) { s.Phases = []PhaseSpec{{At: 10}} }, "needs a scale or a pattern"},
		{"phase order", func(s *Scenario) {
			s.Phases = []PhaseSpec{{At: 20, Scale: 2}, {At: 10, Scale: 2}}
		}, "increasing time order"},
		{"phase source", func(s *Scenario) { s.Phases = []PhaseSpec{{At: 10, Scale: 2, Source: "nope"}} }, "unknown source"},
		{"phase structured swap", func(s *Scenario) {
			s.Phases = []PhaseSpec{{At: 10, Pattern: PatternFTPBurst}}
		}, "structured"},
	}
	for _, tc := range cases {
		sc := baseScenario()
		tc.mut(sc)
		err := sc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// JSON round-trip with defaults filled, plus unknown-field rejection.
func TestParseScenario(t *testing.T) {
	js := `{
		"name": "two-regime",
		"kind": "conn",
		"horizon": 1800,
		"sources": [
			{"name": "tel", "proto": "TELNET", "pattern": "poisson", "users": 32, "rate": 40}
		],
		"phases": [
			{"at": 900, "pattern": "bursty"}
		]
	}`
	sc, err := ParseScenario(strings.NewReader(js))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Sources[0].BurstFactor != 5 || sc.Sources[0].BurstEvery != 300 || sc.Sources[0].BurstLen != 30 {
		t.Fatalf("burst defaults not filled: %+v", sc.Sources[0])
	}
	if _, err := ParseScenario(strings.NewReader(`{"kind": "conn", "bogus": 1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// Presets map Table I specs onto diurnal sources.
func TestPreset(t *testing.T) {
	sc, err := Preset("LBL-3", 8)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Kind != KindConn || sc.Horizon != 10*86400 {
		t.Fatalf("preset shape: kind=%s horizon=%g", sc.Kind, sc.Horizon)
	}
	if len(sc.Sources) != 6 { // telnet, rlogin, ftp, smtp, nntp, www
		t.Fatalf("LBL-3 preset has %d sources, want 6", len(sc.Sources))
	}
	for _, s := range sc.Sources {
		if s.Users != 8 || s.Pattern != PatternDiurnal {
			t.Fatalf("preset source %+v", s)
		}
	}
	if _, err := Preset("ATLANTIS", 8); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

// The output trace is globally sorted by event time — the heap
// contract.
func TestOutputSorted(t *testing.T) {
	sc := &Scenario{
		Name: "sorted", Kind: KindConn, Horizon: 2000,
		Sources: []SourceSpec{
			{Name: "a", Proto: "TELNET", Pattern: PatternPoisson, Users: 8, Rate: 5},
			{Name: "b", Proto: "FTP", Pattern: PatternFTPBurst, Users: 4, Rate: 0.05},
			{Name: "c", Proto: "WWW", Pattern: PatternBursty, Users: 8, Rate: 5},
			{Name: "d", Proto: "NNTP", Pattern: PatternPareto, Users: 8, Rate: 5},
		},
	}
	out, _ := runScenario(t, sc, Options{Seed: 13})
	tr, err := trace.ReadConnTrace(bytes.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Conns) == 0 {
		t.Fatal("no records")
	}
	last := -1.0
	for i, c := range tr.Conns {
		if c.Start < last {
			t.Fatalf("record %d: start %g < previous %g", i, c.Start, last)
		}
		if c.Start >= sc.Horizon {
			t.Fatalf("record %d: start %g past horizon", i, c.Start)
		}
		last = c.Start
	}
}

// Context cancellation stops an unbounded run promptly with ctx.Err.
func TestCancellation(t *testing.T) {
	sc := &Scenario{
		Name: "cancel", Kind: KindConn, Horizon: 1e12,
		Sources: []SourceSpec{
			{Name: "s", Proto: "TELNET", Pattern: PatternPoisson, Users: 4, Rate: 1000},
		},
	}
	d, err := New(sc, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var buf bytes.Buffer
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, runErr := d.Run(ctx, &buf)
	if runErr != context.Canceled {
		t.Fatalf("run err = %v, want context.Canceled", runErr)
	}
	if buf.Len() == 0 {
		t.Fatal("nothing flushed before cancellation")
	}
}

func TestPinnedDigestHelp(t *testing.T) {
	// Print the digest on -v runs so re-pinning after an intentional
	// generator change is a copy-paste.
	out, _ := runScenario(t, baseScenario(), Options{Seed: 42})
	t.Logf("baseScenario seed-42 digest: %s", digest(out))
	_ = fmt.Sprintf // keep fmt imported alongside future debugging
}
