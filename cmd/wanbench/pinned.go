package main

import (
	_ "embed"
	"encoding/json"
)

// pinned.json holds the output digests of the live workloads at their
// full size for a few seeds: live_sketch's merged state_sha256,
// live_observe's events_sha256 and live_fleet's merged_sha256. Other
// seeds are still checked for agreement between passes and phases.
//
//go:embed pinned.json
var pinnedJSON []byte

type pin struct {
	Seed    int64   `json:"seed"`
	Horizon float64 `json:"horizon"`
	SHA256  string  `json:"sha256"`
}

// checkPinned compares a digest with the one pinned for the workload
// at this seed and horizon, if any.
func checkPinned(r *result, workload string, seed int64, horizon float64, digest string) {
	var pins map[string][]pin
	if err := json.Unmarshal(pinnedJSON, &pins); err != nil {
		r.check(false, "pinned.json: %v", err)
		return
	}
	for _, p := range pins[workload] {
		if p.Seed == seed && p.Horizon == horizon {
			r.check(p.SHA256 == digest, "%s: digest %s, pinned for seed %d: %s", workload, digest, seed, p.SHA256)
		}
	}
}
