package stream

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// fuzzKinds enumerates every accumulator kind for table-driven fuzzing.
var fuzzKinds = []string{momentsKind, gkKind, reservoirKind, log2Kind, windowKind, aggVarKind}

// seedStates builds one valid serialized state per kind for the fuzz
// corpus: a populated sketch including non-finite observations.
func seedStates(t interface{ Fatal(...any) }) [][]byte {
	var out [][]byte
	for _, kind := range fuzzKinds {
		acc, err := New(kind)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 500; i++ {
			acc.Observe(rng.Float64() * 50)
		}
		acc.Observe(math.Inf(1))
		acc.Observe(math.NaN())
		state, err := acc.State()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, state)
	}
	return out
}

// FuzzRestore: arbitrary bytes must never panic any Restore, and any
// bytes a Restore accepts must re-serialize canonically — Restore
// followed by State, then Restore of THAT state, must reproduce the
// state byte-for-byte.
func FuzzRestore(f *testing.F) {
	for _, s := range seedStates(f) {
		f.Add(s)
	}
	f.Add([]byte(`{"kind":"moments","state":{"n":-1}}`))
	f.Add([]byte(`{"kind":"gk","state":{"eps":2,"n":0,"tuples":null}}`))
	f.Add([]byte(`{"kind":"window","state":{"width":0}}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var env envelope
		if json.Unmarshal(data, &env) != nil {
			env.Kind = "" // still exercise every kind's error path below
		}
		for _, kind := range fuzzKinds {
			acc, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			if acc.Restore(data) != nil {
				continue // rejected, as long as it didn't panic
			}
			if env.Kind != kind {
				t.Fatalf("%s accepted state tagged %q", kind, env.Kind)
			}
			s1, err := acc.State()
			if err != nil {
				t.Fatalf("%s: restored state does not re-serialize: %v", kind, err)
			}
			back, _ := New(kind)
			if err := back.Restore(s1); err != nil {
				t.Fatalf("%s: canonical state rejected: %v", kind, err)
			}
			s2, err := back.State()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s1, s2) {
				t.Fatalf("%s: state round-trip not byte-identical:\n%s\n%s", kind, s1, s2)
			}
			if back.Count() != acc.Count() {
				t.Fatalf("%s: count %d after round-trip, want %d", kind, back.Count(), acc.Count())
			}
		}
	})
}

// seedSketches builds conn and packet sketch states of 0 and 20
// observations for the composite corpus. They stay small on purpose:
// states of a few hundred records (tens of KB) stall the fuzzer's
// minimizer for up to a minute at a time.
func seedSketches(t interface{ Fatal(...any) }) [][]byte {
	var out [][]byte
	for _, kind := range []string{ConnSketch, PacketSketch} {
		for _, n := range []int{0, 20} {
			sk, err := NewSketch(kind, 1, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				sk.Observe(Obs{Time: float64(i) * 0.7, Value: float64(40 + 37*i%500),
					Duration: float64(i % 5), Gap: 0.7, HasGap: i > 0})
			}
			state, err := sk.State()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, state)
		}
	}
	return out
}

// FuzzRestoreSketch fuzzes the composite sketch parser that every
// /v1/upload body, coordinator snapshot entry and worker checkpoint
// goes through. Arbitrary bytes must never panic RestoreSketch; bytes
// it accepts must re-serialize canonically (RestoreSketch, State,
// RestoreSketch, State reproduces the first State byte-for-byte); and
// Summarize and MergeSketches must not panic on what it accepted.
func FuzzRestoreSketch(f *testing.F) {
	for _, s := range seedSketches(f) {
		f.Add(s)
	}
	f.Add([]byte(`{"trace_kind":"conn","shard":0,"records":-1}`))
	f.Add([]byte(`{"trace_kind":"packet","records":3,"dims":{}}`))
	f.Add([]byte(`{"trace_kind":"radio"}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, data []byte) {
		sk, err := RestoreSketch(data)
		if err != nil {
			return // rejected, as long as it didn't panic
		}
		s1, err := sk.State()
		if err != nil {
			t.Fatalf("restored sketch does not re-serialize: %v", err)
		}
		back, err := RestoreSketch(s1)
		if err != nil {
			t.Fatalf("canonical state rejected: %v", err)
		}
		s2, err := back.State()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(s1, s2) {
			t.Fatalf("sketch state round-trip not byte-identical:\n%s\n%s", s1, s2)
		}
		sk.Summarize()
		back.Summarize()
		// A merge may refuse what the restore accepted; it must not panic.
		if merged, err := MergeSketches([]*Sketch{sk, back}); err == nil {
			merged.Summarize()
		}
	})
}

// fuzzFill folds n deterministic observations into acc. Values stay
// non-negative so every kind (window counters reject nothing, but
// their "early" bucket semantics differ) exercises its main path, with
// a sprinkling of negatives and zeros for the drop/non-positive paths.
func fuzzFill(acc Accumulator, seed int64, n int) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		x := rng.Float64() * 100
		switch i % 17 {
		case 3:
			x = 0
		case 11:
			x = -x
		}
		acc.Observe(x)
	}
}

// FuzzMerge: for every kind, merging empty is a byte-level no-op,
// merging disjoint streams adds counts, self-merge doubles the count,
// and the merged sketch still round-trips byte-identically.
func FuzzMerge(f *testing.F) {
	f.Add(int64(1), uint16(100), uint16(200))
	f.Add(int64(42), uint16(0), uint16(1))
	f.Add(int64(-7), uint16(2000), uint16(0))
	f.Add(int64(977), uint16(1), uint16(1))
	f.Fuzz(func(t *testing.T, seed int64, rawA, rawB uint16) {
		nA, nB := int(rawA)%2048, int(rawB)%2048
		for _, kind := range fuzzKinds {
			a, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			b, _ := New(kind)
			empty, _ := New(kind)
			fuzzFill(a, seed, nA)
			fuzzFill(b, seed+1, nB)

			before, err := a.State()
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Merge(empty); err != nil {
				t.Fatalf("%s: merge empty: %v", kind, err)
			}
			after, _ := a.State()
			if !bytes.Equal(before, after) {
				t.Fatalf("%s: merging an empty sketch changed state", kind)
			}

			if err := a.Merge(b); err != nil {
				t.Fatalf("%s: merge disjoint: %v", kind, err)
			}
			if got, want := a.Count(), int64(nA+nB); got != want {
				t.Fatalf("%s: merged count %d, want %d", kind, got, want)
			}
			if b.Count() != int64(nB) {
				t.Fatalf("%s: merge mutated its argument", kind)
			}

			if err := a.Merge(a); err != nil {
				t.Fatalf("%s: self-merge: %v", kind, err)
			}
			if got, want := a.Count(), int64(2*(nA+nB)); got != want {
				t.Fatalf("%s: self-merged count %d, want %d", kind, got, want)
			}

			s1, err := a.State()
			if err != nil {
				t.Fatalf("%s: merged state does not serialize: %v", kind, err)
			}
			back, _ := New(kind)
			if err := back.Restore(s1); err != nil {
				t.Fatalf("%s: merged state rejected on restore: %v", kind, err)
			}
			s2, _ := back.State()
			if !bytes.Equal(s1, s2) {
				t.Fatalf("%s: merged state round-trip not byte-identical", kind)
			}
		}
	})
}
