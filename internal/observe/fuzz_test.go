package observe

import (
	"bytes"
	"encoding/json"
	"math"
	"regexp"
	"testing"
	"time"
)

// FuzzObservatoryRestore: no bytes panic Restore; bytes it accepts
// re-serialize canonically (Restore → State → Restore → State is
// byte-identical); and a restored observatory continues through a
// few hundred records and a Flush. The continuation runs under a
// timer, so a hang fails the input instead of stalling the fuzzer.
func FuzzObservatoryRestore(f *testing.F) {
	conns := regimeSwapConns(43, 150, 400)
	cut := len(conns) / 2
	tail := conns[cut : cut+300]

	// Seed with a real mid-stream state and corruptions of it that
	// once hung or crashed the continuation.
	o := New(testOptions(new([]Event)))
	for _, c := range conns[:cut] {
		o.ObserveConn(c)
	}
	mid, err := o.State()
	if err != nil {
		f.Fatal(err)
	}
	var st obsState
	if err := json.Unmarshal(mid, &st); err != nil {
		f.Fatal(err)
	}
	mutate := func(edit func(*obsState)) []byte {
		c := st
		edit(&c)
		raw, err := json.Marshal(c)
		if err != nil {
			f.Fatal(err)
		}
		return raw
	}
	arrivalsField := func(name, value string) func(*obsState) {
		re := regexp.MustCompile(`"` + name + `":[0-9]+`)
		if !re.Match(st.Arrivals) {
			f.Fatalf("arrivals state has no %q field: %s", name, st.Arrivals)
		}
		return func(s *obsState) { s.Arrivals = re.ReplaceAll(s.Arrivals, []byte(`"`+name+`":`+value)) }
	}
	f.Add(mid)
	// A cursor at −2⁶³ overflowed the close loop's gap test, which then
	// walked ~2⁶³ windows.
	f.Add(mutate(func(s *obsState) { s.Cur = math.MinInt64 }))
	// A rolling counter based at −2⁶³ indexed its ring out of bounds on
	// the next record.
	f.Add(mutate(arrivalsField("base", "-9223372036854775808")))
	// A horizon far beyond the options' let the ring grow without bound.
	f.Add(mutate(arrivalsField("keep", "1099511627776")))
	f.Add([]byte(`{"v":1,"window":5}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, data []byte) {
		o := New(testOptions(new([]Event)))
		if o.Restore(data) != nil {
			return // rejected, as long as it didn't panic
		}
		s1, err := o.State()
		if err != nil {
			t.Fatalf("restored state does not re-serialize: %v", err)
		}
		back := New(testOptions(new([]Event)))
		if err := back.Restore(s1); err != nil {
			t.Fatalf("canonical state rejected: %v", err)
		}
		s2, err := back.State()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s1, s2) {
			t.Fatalf("state round-trip not byte-identical:\n%s\n%s", s1, s2)
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, c := range tail {
				o.ObserveConn(c)
			}
			o.Flush()
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("continuation after Restore did not return within 5s")
		}
	})
}
