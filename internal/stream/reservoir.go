package stream

import (
	"fmt"
	"math/rand"
	"slices"
)

const reservoirKind = "reservoir"

// DefaultReservoirSize is the default sample capacity.
const DefaultReservoirSize = 1024

// Reservoir keeps a uniform random sample of up to k observations
// from an unbounded stream (Vitter's Algorithm R), seeded so a given
// (seed, observation sequence) pair always yields the same sample.
//
// Merge draws the combined sample from the two parents in proportion
// to their stream sizes, without replacement within each parent. The
// merge RNG is seeded deterministically from both parents' seeds and
// counts, so Merge is a pure function of the two states; like every
// cross-shard reduction it is canonicalized by MergeSketches rather
// than being order-independent itself.
type Reservoir struct {
	k      int
	seed   int64
	n      int64
	sample []float64
	// rng stays nil until a draw needs it; source then builds it at
	// the position observation replay+1 expects (see replayRNG).
	rng    *rand.Rand
	replay int64
}

// NewReservoir returns an empty reservoir holding up to k samples
// (k < 1 selects DefaultReservoirSize).
func NewReservoir(k int, seed int64) *Reservoir {
	if k < 1 {
		k = DefaultReservoirSize
	}
	return &Reservoir{k: k, seed: seed}
}

// Kind implements Accumulator.
func (r *Reservoir) Kind() string { return reservoirKind }

// Count returns the number of observations seen (not kept).
func (r *Reservoir) Count() int64 { return r.n }

// Cap returns the sample capacity k.
func (r *Reservoir) Cap() int { return r.k }

// Sample returns the current sample in reservoir order. The returned
// slice aliases internal state; callers must not modify it.
func (r *Reservoir) Sample() []float64 { return r.sample }

// Observe folds one observation in (Algorithm R).
func (r *Reservoir) Observe(x float64) {
	r.n++
	if len(r.sample) < r.k {
		r.sample = append(r.sample, x)
		return
	}
	if j := r.source().Int63n(r.n); j < int64(r.k) {
		r.sample[j] = x
	}
}

// ObserveMany folds a batch in, consuming exactly the RNG draws an
// Observe loop would, so the resulting sample is byte-identical.
func (r *Reservoir) ObserveMany(xs []float64) {
	i := 0
	for ; i < len(xs) && len(r.sample) < r.k; i++ {
		r.n++
		r.sample = append(r.sample, xs[i])
	}
	if i == len(xs) {
		return
	}
	rng := r.source()
	for ; i < len(xs); i++ {
		r.n++
		if j := rng.Int63n(r.n); j < int64(r.k) {
			r.sample[j] = xs[i]
		}
	}
}

// source returns the draw RNG, building it on the first draw after
// NewReservoir, Restore or clone.
func (r *Reservoir) source() *rand.Rand {
	if r.rng == nil {
		r.rng = replayRNG(r.seed, r.k, r.replay)
	}
	return r.rng
}

// replayRNG rebuilds the RNG of an unmerged reservoir after n
// observations. math/rand exposes no RNG state, but the draw sequence
// is fully determined by (seed, n): Algorithm R consumes exactly one
// Int63n(m) per observation m = k+1..n. Replaying that sequence
// against a fresh seed-keyed source reconstructs the exact position,
// so a sketch checkpointed mid-stream and restored continues
// byte-identically to the uninterrupted original (the crash-recovery
// invariant the distributed workers rely on). Post-merge reservoirs
// follow a merge-seeded trajectory instead; they are only ever
// serialized as final results, never resumed into.
func replayRNG(seed int64, k int, n int64) *rand.Rand {
	if n-int64(k) > maxReplayDraws {
		// A forged or astronomically large state would make the replay
		// unbounded; fall back to a deterministic reseed. Real shard
		// streams sit far below the cap.
		return rand.New(rand.NewSource(mergeSeed(seed, n, seed, n)))
	}
	rng := rand.New(rand.NewSource(seed))
	for m := int64(k) + 1; m <= n; m++ {
		rng.Int63n(m)
	}
	return rng
}

// maxReplayDraws bounds replayRNG (about 2 s of draws on a 2-CPU
// host); states past it — none produced by real ingest — lose
// continuation exactness but stay deterministic.
const maxReplayDraws = 1 << 27

// checkMerge is Merge's precondition: equal capacities.
func (r *Reservoir) checkMerge(o *Reservoir) error {
	if o.k != r.k {
		return fmt.Errorf("stream: merging reservoirs with different capacities (%d vs %d)", o.k, r.k)
	}
	return nil
}

// Merge combines another reservoir of the same capacity: each slot of
// the merged sample is drawn from parent A with probability nA/(nA+nB)
// (without replacement within each parent), preserving uniformity
// when both parents are uniform samples of disjoint streams.
func (r *Reservoir) Merge(other Accumulator) error {
	o, ok := other.(*Reservoir)
	if !ok {
		return kindError(reservoirKind, other)
	}
	if err := r.checkMerge(o); err != nil {
		return err
	}
	if o.n == 0 {
		return nil
	}
	if r.n == 0 {
		r.n = o.n
		r.sample = append(r.sample[:0], o.sample...)
		// Reseed so the continuation differs from the parent's but
		// stays a pure function of both states.
		r.rng = rand.New(rand.NewSource(mergeSeed(r.seed, r.n, o.seed, o.n)))
		return nil
	}
	a := append([]float64(nil), r.sample...)
	b := append([]float64(nil), o.sample...)
	rng := rand.New(rand.NewSource(mergeSeed(r.seed, r.n, o.seed, o.n)))
	merged := make([]float64, 0, r.k)
	nA, nB := r.n, o.n
	for len(merged) < r.k && (len(a) > 0 || len(b) > 0) {
		takeA := len(b) == 0
		if len(a) > 0 && len(b) > 0 {
			takeA = rng.Int63n(nA+nB) < nA
		}
		if takeA {
			i := rng.Intn(len(a))
			merged = append(merged, a[i])
			a[i] = a[len(a)-1]
			a = a[:len(a)-1]
		} else {
			i := rng.Intn(len(b))
			merged = append(merged, b[i])
			b[i] = b[len(b)-1]
			b = b[:len(b)-1]
		}
	}
	r.n += o.n
	r.sample = merged
	r.rng = rng
	return nil
}

// mergeSeed derives the deterministic RNG seed of a merge from both
// parents' identities (an FNV-style mix).
func mergeSeed(seedA, nA, seedB, nB int64) int64 {
	h := uint64(1469598103934665603)
	for _, v := range []int64{seedA, nA, seedB, nB} {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return int64(h & (1<<62 - 1))
}

// clone copies the reservoir as Restore would rebuild it from its
// state: the RNG unbuilt, owing the draws of observations k+1..n.
func (r *Reservoir) clone() *Reservoir {
	return &Reservoir{k: r.k, seed: r.seed, n: r.n, sample: slices.Clone(r.sample), replay: r.n}
}

var reservoirKeys = []string{"k", "seed", "n", "sample"}

// write appends the state; the sample is an array even when empty.
func (r *Reservoir) write(w *stateWriter) {
	w.envelope(reservoirKind)
	w.int("k", int64(r.k))
	w.int("seed", r.seed)
	w.int("n", r.n)
	w.f64s("sample", r.sample)
	w.closeEnvelope()
}

// readReservoir reads a reservoir state. The RNG stays unbuilt: only
// a reservoir that draws again (a resumed worker) pays the replay,
// never a coordinator that merges and serializes.
func readReservoir(r *stateReader) *Reservoir {
	var st Reservoir
	r.envelope(reservoirKind, reservoirKeys, func(key string) {
		switch key {
		case "k":
			st.k = r.intn()
		case "seed":
			st.seed = r.int()
		case "n":
			st.n = r.int()
		case "sample":
			st.sample = r.f64s()
		}
	})
	if r.err != nil {
		return nil
	}
	if st.k < 1 || st.n < 0 || len(st.sample) > st.k {
		r.failf("stream: reservoir state k=%d n=%d holds %d samples", st.k, st.n, len(st.sample))
		return nil
	}
	st.replay = st.n
	return &st
}

// State implements Accumulator.
func (r *Reservoir) State() ([]byte, error) { return encode(r.write) }

// Restore implements Accumulator.
func (r *Reservoir) Restore(data []byte) error { return restoreInto(r, data, readReservoir) }
