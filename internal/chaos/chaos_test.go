package chaos

import (
	"strings"
	"testing"

	"wantraffic/internal/obs"
)

// TestChaosSuite is the chaos acceptance gate: every fault-injected
// decode and pipeline scenario must hold its invariants. CI runs this
// under -race, so it also proves the faulted paths are race-free. The
// registry is the one `paperfig -chaos -metrics-out` exports: it must
// count no failures and the faults actually injected.
func TestChaosSuite(t *testing.T) {
	cases := 20
	if testing.Short() {
		cases = 3
	}
	reg := obs.NewRegistry()
	rep := RunWith(1, cases, reg)
	if !rep.OK() {
		t.Fatalf("chaos suite failed:\n%s", rep)
	}
	if rep.Cases == 0 || rep.Decodes == 0 {
		t.Fatalf("suite ran nothing: %+v", rep)
	}
	if got := reg.Counter("chaos.failures").Value(); got != 0 {
		t.Errorf("chaos.failures = %d, want 0", got)
	}
	if got := reg.Counter("chaos.cases").Value(); got != int64(rep.Cases) {
		t.Errorf("chaos.cases = %d, report says %d", got, rep.Cases)
	}
	if got := reg.Counter("fault.bitflips").Value(); got <= 0 {
		t.Errorf("fault.bitflips = %d, want > 0", got)
	}
}

// TestChaosDeterministic pins that a chaos run is a pure function of
// its seed: same seed, same scenario counts and outcomes.
func TestChaosDeterministic(t *testing.T) {
	a, b := Run(42, 5), Run(42, 5)
	if a.String() != b.String() {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
	if a.Cases != b.Cases || a.Decodes != b.Decodes {
		t.Fatalf("case counts diverged: %+v vs %+v", a, b)
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{Cases: 3, Decodes: 6}
	if !rep.OK() || !strings.Contains(rep.String(), "0 failures") {
		t.Errorf("clean report: %q", rep.String())
	}
	rep.failf("boom %d", 7)
	if rep.OK() || !strings.Contains(rep.String(), "FAIL: boom 7") {
		t.Errorf("failing report: %q", rep.String())
	}
}
