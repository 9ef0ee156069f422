// Package stream is the one-pass, bounded-memory analytics layer: a
// library of deterministic, mergeable accumulators (exact moments,
// ε-approximate quantiles, seedable reservoir samples, log₂
// histograms, windowed rate counts, aggregated-variance state for the
// Section VII self-similarity pipeline) plus a sharded ingestion
// pipeline that feeds them from a trace scanner (internal/trace)
// without ever materializing the record slice.
//
// Every analysis in the paper is, at heart, a statistic of an event
// stream; the batch implementations in internal/stats load the whole
// trace first, which caps them at available memory. The accumulators
// here ingest an unbounded stream in O(1) (or O(windows)) memory and
// merge across shards, the shape Alasmar et al. use to fit volume
// distributions over multi-terabyte captures and the scale Clegg et
// al. demand of trustworthy Hurst estimation (PAPERS.md).
//
// # The Accumulator contract
//
// Observe folds one observation into the sketch. Merge folds another
// sketch of the same kind into the receiver. State/Restore serialize
// the full sketch deterministically as JSON: two sketches with equal
// state produce byte-identical State output, and Restore(State()) is
// an exact round-trip.
//
// # Determinism rules (DESIGN.md §10)
//
//   - Within one accumulator, results are a pure function of the
//     observation sequence (and the seed, for Reservoir).
//   - Merge(a, b) is a pure function of both states, but — like any
//     floating-point reduction — not bitwise associative. Cross-shard
//     reductions therefore canonicalize: MergeSketches folds shards
//     in ascending shard index regardless of arrival order, so any
//     permutation of the same shard states yields byte-identical
//     merged state.
//   - Integer statistics (counts, histogram buckets, window counts,
//     reservoir contents) are exact and merge exactly; floating
//     moments match the batch internal/stats results to documented
//     tolerance, and quantiles carry an explicit rank-error bound ε.
package stream

import "fmt"

// Accumulator is one mergeable streaming statistic.
type Accumulator interface {
	// Kind names the sketch type ("moments", "gk", ...), the tag
	// State embeds and Merge checks.
	Kind() string
	// Count returns the number of observations folded in, including
	// those inherited through Merge.
	Count() int64
	// Observe folds one observation into the sketch.
	Observe(x float64)
	// ObserveMany folds a batch of observations in. The final state is
	// byte-identical to calling Observe on each element in order — the
	// batch form exists purely to amortize per-record dispatch on the
	// ingest hot path (and, for GK, to insert the batch through one
	// sorted merge pass).
	ObserveMany(xs []float64)
	// Merge folds another accumulator of the same kind into the
	// receiver, which afterwards summarizes both observation streams.
	// Merging an accumulator with itself is allowed (the receiver
	// then counts its stream twice); merging mismatched kinds or
	// incompatible configurations errors.
	Merge(other Accumulator) error
	// State serializes the sketch deterministically as JSON.
	State() ([]byte, error)
	// Restore replaces the sketch's state from State output.
	Restore(data []byte) error
}

// kindError reports a Merge between mismatched sketch kinds.
func kindError(want string, got Accumulator) error {
	return fmt.Errorf("stream: cannot merge %q into %q", got.Kind(), want)
}

// New constructs a zero-value accumulator of the given kind with
// default configuration, the factory Restore paths use when
// deserializing a heterogeneous sketch set.
func New(kind string) (Accumulator, error) {
	switch kind {
	case momentsKind:
		return NewMoments(), nil
	case gkKind:
		return NewGK(DefaultEpsilon), nil
	case reservoirKind:
		return NewReservoir(DefaultReservoirSize, 1), nil
	case log2Kind:
		return NewLog2Hist(), nil
	case windowKind:
		return NewWindowCounter(1), nil
	case aggVarKind:
		return NewAggVar(1, 0), nil
	}
	return nil, fmt.Errorf("stream: unknown sketch kind %q", kind)
}
