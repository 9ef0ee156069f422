// Package bench defines the normalized benchmark-record schema that
// cmd/wanbench writes and reads back for its comparisons: flat,
// named records so two runs are machine-comparable:
//
//	{
//	  "schema": "wantraffic-bench/v1",
//	  "suite": "wanbench",
//	  "date": "2026-10-16",
//	  "environment": {"goos": "linux", "nproc": "2"},
//	  "notes": "free text",
//	  "records": [
//	    {"name": "live_sketch.latency_ms", "unit": "ms", "value": 51.2,
//	     "better": "lower", "note": "..."}
//	  ]
//	}
//
// "better" declares the improvement direction: "lower" (the default —
// latencies, bytes, overhead percentages), "higher" (throughput), or
// "none" for informational records a comparison must never gate on
// (span counts, configuration echoes).
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Schema is the version tag every normalized benchmark file carries.
const Schema = "wantraffic-bench/v1"

// Improvement directions for Record.Better.
const (
	BetterLower  = "lower"
	BetterHigher = "higher"
	BetterNone   = "none"
)

// Record is one benchmark measurement.
type Record struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Value  float64 `json:"value"`
	Better string  `json:"better,omitempty"` // default: lower
	Note   string  `json:"note,omitempty"`
}

// File is one normalized benchmark snapshot.
type File struct {
	Schema      string            `json:"schema"`
	Suite       string            `json:"suite"`
	Date        string            `json:"date"`
	Environment map[string]string `json:"environment,omitempty"`
	Notes       string            `json:"notes,omitempty"`
	Records     []Record          `json:"records"`
}

// Parse decodes and validates a normalized benchmark file.
func Parse(data []byte) (*File, error) {
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("bench: schema %q, want %q (normalize the file first)", f.Schema, Schema)
	}
	seen := make(map[string]bool, len(f.Records))
	for i, r := range f.Records {
		if r.Name == "" {
			return nil, fmt.Errorf("bench: record %d has no name", i)
		}
		if seen[r.Name] {
			return nil, fmt.Errorf("bench: duplicate record %q", r.Name)
		}
		seen[r.Name] = true
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			return nil, fmt.Errorf("bench: record %q has non-finite value", r.Name)
		}
		switch r.Better {
		case "", BetterLower, BetterHigher, BetterNone:
		default:
			return nil, fmt.Errorf("bench: record %q: better must be lower|higher|none, got %q", r.Name, r.Better)
		}
	}
	return &f, nil
}

// Load reads and parses a normalized benchmark file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}
