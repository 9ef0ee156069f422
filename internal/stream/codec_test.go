package stream

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"
)

// stater is what every state-carrying value has.
type stater interface {
	State() ([]byte, error)
	Restore(data []byte) error
}

// codecKinds builds each kind fresh: the six base accumulators at
// their New defaults and the windowed kinds at the shapes the table
// tests use.
var codecKinds = []struct {
	name  string
	fresh func() stater
}{
	{momentsKind, func() stater { return NewMoments() }},
	{gkKind, func() stater { return NewGK(DefaultEpsilon) }},
	{log2Kind, func() stater { return NewLog2Hist() }},
	{reservoirKind, func() stater { return NewReservoir(DefaultReservoirSize, 1) }},
	{windowKind, func() stater { return NewWindowCounter(1) }},
	{aggVarKind, func() stater { return NewAggVar(1, 0) }},
	{rollingKind, func() stater { return NewRollingCounter(0.5, 32) }},
	{tumblingKind, func() stater { return NewTumbling(2, 0.01) }},
	{decayedKind, func() stater { return NewDecayed(1, 30) }},
}

// edgeValues are the floats whose text form encoding/json special-
// cases: non-finite, signed zero, subnormal, and both sides of the
// 'e'-format cutoffs at 1e-6 and 1e21.
var edgeValues = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	5e-324, 2.2250738585072014e-308, 1e-7, -1e-7, 1e-6, 9.99999e-7,
	1e21, -1e21, 999999999999999900000, 1.5e300, math.MaxFloat64, 0.1, 1,
}

// codecCorpus builds states of every kind, Dim and Sketch: empty,
// under capacity, large, merged, restored, fed edge values, and a GK
// with a non-empty buffer.
func codecCorpus(t *testing.T) map[string]any {
	t.Helper()
	out := map[string]any{}
	rng := rand.New(rand.NewSource(5))
	for _, kind := range fuzzKinds {
		fresh := func() Accumulator {
			acc, err := New(kind)
			if err != nil {
				t.Fatal(err)
			}
			return acc
		}
		out[kind+"/empty"] = fresh()
		small := fresh()
		for i := 0; i < 7; i++ {
			small.Observe(float64(i) * 1.25)
		}
		out[kind+"/small"] = small
		large := fresh()
		for i := 0; i < 5000; i++ {
			large.Observe(math.Exp(rng.NormFloat64()*2) + float64(i)*0.01)
		}
		out[kind+"/large"] = large
		merged := fresh()
		fuzzFill(merged, 3, 1500)
		if err := merged.Merge(large); err != nil {
			t.Fatal(err)
		}
		out[kind+"/merged"] = merged
		edges := fresh()
		for _, v := range edgeValues {
			edges.Observe(v)
			edges.Observe(-v)
		}
		out[kind+"/edges"] = edges
		state, err := large.State()
		if err != nil {
			t.Fatal(err)
		}
		restored := fresh()
		if err := restored.Restore(state); err != nil {
			t.Fatal(err)
		}
		out[kind+"/restored"] = restored
	}
	buffered := NewGK(0.01)
	for _, v := range edgeValues {
		buffered.Observe(v)
	}
	out["gk/buffered"] = buffered
	emptyTuples := NewGK(DefaultEpsilon)
	if err := emptyTuples.Restore([]byte(`{"kind":"gk","state":{"eps":0.005,"n":0,"tuples":[]}}`)); err != nil {
		t.Fatal(err)
	}
	out["gk/empty-tuples"] = emptyTuples
	emptyCounts := NewWindowCounter(1)
	if err := emptyCounts.Restore([]byte(`{"kind":"window","state":{"width":1,"counts":[]}}`)); err != nil {
		t.Fatal(err)
	}
	out["window/empty-counts"] = emptyCounts
	fine := NewAggVar(2.5e-7, 0)
	for i := 0; i < 40; i++ {
		fine.Observe(float64(i) * 2.4e-7)
	}
	out["aggvar/fine"] = fine
	out["aggvar/horizon"] = NewAggVar(0.5, 12.25)
	for _, k := range codecKinds[6:] {
		tm := k.fresh().(timed)
		out[k.name+"/empty"] = tm
		fed := k.fresh().(timed)
		ts, xs := timedObs(2000, 9)
		for i := range ts {
			fed.ObserveAt(ts[i], xs[i])
		}
		out[k.name+"/fed"] = fed
		edge := k.fresh().(timed)
		for i, v := range edgeValues {
			edge.ObserveAt(float64(i), v)
		}
		out[k.name+"/edges"] = edge
	}
	for _, kind := range []string{ConnSketch, PacketSketch} {
		for _, n := range []int{0, 30, 3000} {
			sk := sketchOf(t, kind, 2, n, 1)
			out[fmt.Sprintf("sketch/%s/%d", kind, n)] = sk
			for name, d := range sk.dims {
				out[fmt.Sprintf("dim/%s/%d/%s", kind, n, name)] = d
			}
		}
		merged, err := MergeSketches([]*Sketch{sketchOf(t, kind, 0, 2000, 2), sketchOf(t, kind, 1, 1500, 3)})
		if err != nil {
			t.Fatal(err)
		}
		out["sketch/"+kind+"/merged"] = merged
	}
	return out
}

// sketchOf feeds n observations (every tenth an edge value) into a
// fresh sketch.
func sketchOf(t testing.TB, kind string, shard, n int, seed int64) *Sketch {
	t.Helper()
	sk, err := NewSketch(kind, shard, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	tm := 0.0
	for i := 0; i < n; i++ {
		gap := rng.ExpFloat64() * 0.4
		tm += gap
		o := Obs{Time: tm, Value: math.Floor(math.Exp(rng.NormFloat64() * 3)), Duration: rng.ExpFloat64() * 20, Gap: gap, HasGap: i > 0}
		if i%10 == 9 {
			o.Value = edgeValues[(i/10)%len(edgeValues)]
		}
		sk.Observe(o)
	}
	return sk
}

// stateOf serializes any corpus value through the codec under test.
func stateOf(v any) ([]byte, error) {
	if d, ok := v.(*Dim); ok {
		return encode(d.write)
	}
	return v.(interface{ State() ([]byte, error) }).State()
}

func TestStateBytesMatchReference(t *testing.T) {
	for name, v := range codecCorpus(t) {
		got, err := stateOf(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := refState(v)
		if err != nil {
			t.Fatalf("%s: reference: %v", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: state bytes differ from the reference\n got %.300s\nwant %.300s", name, got, want)
		}
	}
}

// TestStateRejectsNonFiniteConfig: a plain number field holding ±Inf
// or NaN fails State, as it failed encoding/json.
func TestStateRejectsNonFiniteConfig(t *testing.T) {
	for _, v := range []stater{
		NewWindowCounter(math.Inf(1)),
		NewAggVar(1, math.NaN()),
		NewRollingCounter(math.Inf(1), 4),
		NewTumbling(math.Inf(1), 0.01),
		NewDecayed(1, math.Inf(1)),
	} {
		if _, err := v.State(); err == nil {
			t.Errorf("%T: non-finite config serialized", v)
		}
		if _, err := refState(v); err == nil {
			t.Errorf("%T: the reference serialized a non-finite config", v)
		}
	}
}

// TestRestoreAgreesWithReference restores every corpus state through
// both decoders, then also an edited form with the keys reordered
// and whitespace added, which both must read alike.
func TestRestoreAgreesWithReference(t *testing.T) {
	for name, v := range codecCorpus(t) {
		if _, ok := v.(*Dim); ok {
			continue
		}
		state, err := stateOf(v)
		if err != nil {
			t.Fatal(err)
		}
		spaced := bytes.ReplaceAll(state, []byte(","), []byte(" ,\n\t"))
		spaced = bytes.ReplaceAll(spaced, []byte(":"), []byte("\r: "))
		for _, data := range [][]byte{state, spaced} {
			if err := agree(data); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
	swapped := []byte(`{"state":{"max":"-Inf","min":"+Inf","n":0,"m2":0,"mean":0},"kind":"moments"}`)
	if err := agree(swapped); err != nil {
		t.Error(err)
	}
}

// TestRestoreRejects lists inputs encoding/json read but the codec
// refuses, and inputs both refuse.
func TestRestoreRejects(t *testing.T) {
	for _, data := range []string{
		`{"kind":"moments","state":{"n":1,"n":2}}`,
		`{"kind":"moments","state":{"n":1,"x":2}}`,
		`{"kind":"moments","state":{"N":1}}`,
		`{"kind":"moments","state":null}`,
		`{"kind":"moments","state":{"n":null}}`,
		`{"kind":"moments","state":{"mean":"5"}}`,
		`{"kind":"moments","state":{"n":1.0}}`,
		`{"kind":"moments","state":{"n":1e2}}`,
		`{"kind":"moments","state":{"n":01}}`,
		`{"kind":"moments","state":{"n":+1}}`,
		`{"kind":"moments","state":{"mean":.5}}`,
		`{"kind":"moments","state":{"mean":1e400}}`,
		`{"kind":"moments","state":{}} x`,
		`{"kind":"moments","state":{},}`,
		`{"kind":"moments"}`,
		`{"kind":"gk","state":{"eps":"NaN","n":0}}`,
		`{"kind":"gk","state":{"eps":0.1,"n":0,"tuples":[null]}}`,
		`{"kind":"reservoir","state":{"k":1,"n":0,"sample":[1,]}}`,
		`{"kind":"rollwin","state":{"width":0.5,"keep":32,"started":1}}`,
	} {
		for _, k := range codecKinds {
			if err := k.fresh().Restore([]byte(data)); err == nil {
				t.Errorf("%s accepted %s", k.name, data)
			}
		}
	}
}

// agree restores data through both decoders for every kind and the
// sketch: whatever the codec accepts, the reference must accept too,
// both must re-serialize to the same bytes, and the codec must accept
// those bytes again.
func agree(data []byte) error {
	for _, k := range codecKinds {
		a := k.fresh()
		if a.Restore(data) != nil {
			continue
		}
		b := k.fresh()
		if err := refRestore(b, data); err != nil {
			return fmt.Errorf("%s: the codec accepted what the reference rejects (%v):\n%.300s", k.name, err, data)
		}
		if err := sameState(a, b, a.Restore); err != nil {
			return fmt.Errorf("%s: %w", k.name, err)
		}
	}
	a, err := RestoreSketch(data)
	if err != nil {
		return nil
	}
	b, err := refRestoreSketch(data)
	if err != nil {
		return fmt.Errorf("sketch: the codec accepted what the reference rejects (%v):\n%.300s", err, data)
	}
	return sameState(a, b, func(data []byte) error {
		_, err := RestoreSketch(data)
		return err
	})
}

// sameState checks that a, restored by the codec, and b, restored by
// the reference, serialize alike, and that reread accepts the bytes.
func sameState(a, b any, reread func([]byte) error) error {
	sa, err := stateOf(a)
	if err != nil {
		return fmt.Errorf("restored state does not serialize: %v", err)
	}
	sb, err := refState(b)
	if err != nil {
		return fmt.Errorf("reference-restored state does not serialize: %v", err)
	}
	if !bytes.Equal(sa, sb) {
		return fmt.Errorf("restored values serialize apart:\n%.300s\n%.300s", sa, sb)
	}
	if err := reread(sa); err != nil {
		return fmt.Errorf("the codec rejects its own output: %v", err)
	}
	return nil
}

// FuzzStateCodec checks the codec against the reference on arbitrary
// bytes: anything the codec accepts, for any kind or as a sketch, the
// reference accepts with the same meaning.
func FuzzStateCodec(f *testing.F) {
	// Small seeds: states of hundreds of observations stall the
	// fuzzer's minimizer.
	for _, k := range codecKinds {
		v := k.fresh()
		for i, x := range edgeValues {
			switch a := v.(type) {
			case Accumulator:
				a.Observe(x)
			case timed:
				a.ObserveAt(float64(i)*0.7, x)
			}
		}
		state, err := v.State()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(state)
	}
	for _, s := range seedSketches(f) {
		f.Add(s)
	}
	f.Add([]byte(`{"state":{"max":"-Inf","min":"+Inf","n":0,"m2":0,"mean":0},"kind":"moments"}`))
	f.Add([]byte(`{"kind":"gk","state":{"eps":1e-2,"n":2,"tuples":[{"v":-0,"g":1,"d":0}],"buf":[5e-324]}}`))
	f.Add([]byte(` {"kind" : "window" , "state" : {"width":1E0,"counts":[]}} `))
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := agree(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCloneMatchesRestore: a clone serializes like its source, is
// independent of it, and continues exactly as RestoreSketch of the
// source's state does — reservoir draws included.
func TestCloneMatchesRestore(t *testing.T) {
	more := sketchOf(t, ConnSketch, 0, 2500, 8)
	morePkt := sketchOf(t, PacketSketch, 0, 2500, 8)
	for name, v := range codecCorpus(t) {
		s, ok := v.(*Sketch)
		if !ok {
			continue
		}
		want, err := s.State()
		if err != nil {
			t.Fatal(err)
		}
		c, err := s.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := c.State(); !bytes.Equal(got, want) {
			t.Fatalf("%s: clone serializes apart from its source", name)
		}
		tail := more
		if s.traceKind == PacketSketch {
			tail = morePkt
		}
		restored, err := RestoreSketch(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []*Sketch{c, restored} {
			if err := k.Merge(tail); err != nil {
				t.Fatal(err)
			}
			k.ObserveBatch(obsTail(3000))
		}
		if got, _ := s.State(); !bytes.Equal(got, want) {
			t.Fatalf("%s: merging and observing into the clone changed the source", name)
		}
		gotC, _ := c.State()
		gotR, _ := restored.State()
		if !bytes.Equal(gotC, gotR) {
			t.Fatalf("%s: continuing the clone diverges from continuing RestoreSketch(State())", name)
		}
		// Unmerged continuation exercises the reservoirs' lazy replay.
		c, _ = s.Clone()
		restored, _ = RestoreSketch(want)
		c.ObserveBatch(obsTail(4000))
		restored.ObserveBatch(obsTail(4000))
		gotC, _ = c.State()
		gotR, _ = restored.State()
		if !bytes.Equal(gotC, gotR) {
			t.Fatalf("%s: observing into the clone diverges from RestoreSketch(State())", name)
		}
	}
}

// obsTail is a deterministic batch of n observations.
func obsTail(n int) []Obs {
	rng := rand.New(rand.NewSource(int64(n)))
	obs := make([]Obs, n)
	tm := 100.0
	for i := range obs {
		gap := rng.ExpFloat64()
		tm += gap
		obs[i] = Obs{Time: tm, Value: rng.ExpFloat64() * 1e4, Duration: rng.Float64(), Gap: gap, HasGap: true}
	}
	return obs
}

// forgedState is an honest conn sketch state edited so that each of
// its three reservoirs claims n = k + maxReplayDraws observations: the
// largest claim Restore once replayed in full, about 2 s of draws each.
func forgedState(t testing.TB) []byte {
	sk := sketchOf(t, ConnSketch, 0, 3000, 4)
	for _, d := range sk.dims {
		d.Sample.n = int64(d.Sample.k) + maxReplayDraws
	}
	state, err := sk.State()
	if err != nil {
		t.Fatal(err)
	}
	return state
}

// TestForgedReservoirStateIsCheap: the coordinator's path — restore,
// clone, merge, serialize — never replays a reservoir's draws, so a
// forged count cannot buy CPU time.
func TestForgedReservoirStateIsCheap(t *testing.T) {
	forged := forgedState(t)
	start := time.Now()
	sk, err := RestoreSketch(forged)
	if err != nil {
		t.Fatal(err)
	}
	c, err := sk.Clone()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeSketches([]*Sketch{sk, c})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Sketch{sk, c, merged} {
		if _, err := s.State(); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("restore, clone, merge and state of a forged state took %v", took)
	}
	for _, s := range []*Sketch{sk, c} {
		for name, d := range s.dims {
			if d.Sample.rng != nil {
				t.Errorf("dimension %q: the reservoir's RNG was built", name)
			}
		}
	}
}
