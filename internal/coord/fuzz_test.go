package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"testing"

	"wantraffic/internal/stream"
)

// fleetSeeds runs a small two-worker fleet against a coordinator that
// records every upload body, and returns those bodies, the workers'
// last checkpoints and the coordinator's snapshot: the bytes the
// envelope parsers see in production.
func fleetSeeds(tb testing.TB) (bodies, checkpoints [][]byte, snapshot []byte) {
	dir := tb.TempDir()
	snap := filepath.Join(dir, "coord.json")
	c, err := New(Options{ExpectedWorkers: 2, Snapshot: snap})
	if err != nil {
		tb.Fatal(err)
	}
	var mu sync.Mutex
	mux := http.NewServeMux()
	for path, h := range c.Handlers(nil) {
		if path == "/v1/upload" {
			next := h
			h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				body, err := io.ReadAll(r.Body)
				if err != nil {
					http.Error(w, err.Error(), http.StatusBadRequest)
					return
				}
				mu.Lock()
				bodies = append(bodies, body)
				mu.Unlock()
				r.Body = io.NopCloser(bytes.NewReader(body))
				next.ServeHTTP(w, r)
			})
		}
		mux.Handle(path, h)
	}
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for i, sh := range splitTrace(testTrace(8), 2) {
		path := filepath.Join(dir, fmt.Sprintf("shard%d.trace", i))
		if err := os.WriteFile(path, encodeTrace(tb, sh), 0o644); err != nil {
			tb.Fatal(err)
		}
		ckpt := filepath.Join(dir, fmt.Sprintf("ckpt%d.json", i))
		if _, err := RunWorker(context.Background(), WorkerOptions{
			ID: wname(i), Shard: i, TracePath: path, Config: stream.Config{Seed: 1},
			UploadEvery: 2, Checkpoint: ckpt,
			Client: &Client{Base: srv.URL, Seed: uint64(i + 1)},
		}); err != nil {
			tb.Fatal(err)
		}
		raw, err := os.ReadFile(ckpt)
		if err != nil {
			tb.Fatal(err)
		}
		checkpoints = append(checkpoints, raw)
	}
	if snapshot, err = os.ReadFile(snap); err != nil {
		tb.Fatal(err)
	}
	return bodies, checkpoints, snapshot
}

var reservoirCount = regexp.MustCompile(`("kind":"reservoir","state":\{"k":(\d+),"seed":-?\d+,"n":)\d+`)

// forge edits an upload so that each of its reservoirs claims 2²⁷
// draws past capacity, about 2 s of replay each if a restore paid
// it, and checks that a coordinator accepts the result.
func forge(tb testing.TB, body []byte) []byte {
	var u Upload
	if err := json.Unmarshal(body, &u); err != nil {
		tb.Fatal(err)
	}
	state := reservoirCount.ReplaceAllFunc(u.State, func(m []byte) []byte {
		sub := reservoirCount.FindSubmatch(m)
		k, _ := strconv.ParseInt(string(sub[2]), 10, 64)
		return strconv.AppendInt(sub[1], k+1<<27, 10)
	})
	if bytes.Equal(state, u.State) {
		tb.Fatal("forge: no reservoir count to edit")
	}
	u.State, u.Digest = state, Digest(state)
	forged, err := json.Marshal(u)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := New(Options{})
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Apply(u); err != nil {
		tb.Fatalf("forge: forged upload rejected: %v", err)
	}
	return forged
}

// FuzzUploadBody posts arbitrary bodies to a fresh coordinator's
// /v1/upload handler. Nothing panics, the status is one the protocol
// defines, and the merged state stays computable and deterministic.
func FuzzUploadBody(f *testing.F) {
	bodies, _, _ := fleetSeeds(f)
	for _, b := range bodies {
		f.Add(b)
	}
	f.Add(forge(f, bodies[len(bodies)-1]))
	f.Add([]byte(`{"proto":"wantraffic-coord/v1","worker":"w0","shard":0,"epoch":1,"seq":1,"digest":"","state":null}`))
	f.Add([]byte(`not json at all`))
	f.Fuzz(func(t *testing.T, body []byte) {
		c, err := New(Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		c.Handlers(nil)["/v1/upload"].ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/upload", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		s1, d1, err := c.Merged()
		if err != nil {
			t.Fatalf("merge after upload: %v", err)
		}
		s2, d2, err := c.Merged()
		if err != nil || d1 != d2 || !bytes.Equal(s1, s2) {
			t.Fatalf("merged state not deterministic (err %v): %s vs %s", err, d1, d2)
		}
	})
}

// FuzzCheckpoint feeds arbitrary bytes to the worker's checkpoint
// decoder and, as a snapshot file, to a starting coordinator. Nothing
// panics; an accepted checkpoint's sketch re-serializes canonically;
// and any snapshot a coordinator cannot use degrades to a fresh start.
func FuzzCheckpoint(f *testing.F) {
	_, checkpoints, snapshot := fleetSeeds(f)
	for _, c := range checkpoints {
		f.Add(c)
	}
	f.Add(snapshot)
	f.Add(forge(f, checkpoints[0]))
	f.Add([]byte(`{"proto":"wantraffic-coord/v1","workers":[{}]}`))
	path := filepath.Join(f.TempDir(), "coord.json")
	f.Fuzz(func(t *testing.T, raw []byte) {
		if _, sk, err := decodeCheckpoint(raw); err == nil {
			s1, err := sk.State()
			if err != nil {
				t.Fatalf("accepted checkpoint does not re-serialize: %v", err)
			}
			back, err := stream.RestoreSketch(s1)
			if err != nil {
				t.Fatalf("canonical state rejected: %v", err)
			}
			if s2, err := back.State(); err != nil || !bytes.Equal(s1, s2) {
				t.Fatalf("checkpoint sketch round trip not byte-identical (err %v)", err)
			}
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := New(Options{Snapshot: path})
		if err != nil {
			t.Fatalf("snapshot did not degrade to a fresh start: %v", err)
		}
		// A snapshot may pair workers a live coordinator would not
		// (two trace kinds); the merge may refuse them but not panic.
		c.Results()
	})
}
