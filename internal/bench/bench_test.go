package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func mk(records ...Record) *File {
	return &File{Schema: Schema, Suite: "test", Date: "2026-08-06", Records: records}
}

func TestParseValid(t *testing.T) {
	f := mk(
		Record{Name: "a.ns", Unit: "ns/op", Value: 7.97},
		Record{Name: "b.throughput", Unit: "rec/s", Value: 1e6, Better: BetterHigher},
		Record{Name: "c.spans", Unit: "count", Value: 39, Better: BetterNone},
	)
	raw, _ := json.Marshal(f)
	got, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 3 || got.Suite != "test" {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []struct {
		name, json string
	}{
		{"not json", `{`},
		{"wrong schema", `{"schema":"v0","records":[]}`},
		{"missing schema", `{"records":[{"name":"a","value":1}]}`},
		{"unnamed record", `{"schema":"wantraffic-bench/v1","records":[{"value":1}]}`},
		{"duplicate name", `{"schema":"wantraffic-bench/v1","records":[{"name":"a","value":1},{"name":"a","value":2}]}`},
		{"bad better", `{"schema":"wantraffic-bench/v1","records":[{"name":"a","value":1,"better":"sideways"}]}`},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.json)); err == nil {
			t.Errorf("%s: expected parse error", c.name)
		}
	}
}

func TestLoad(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "b.json")
	raw, _ := json.Marshal(mk(Record{Name: "a", Unit: "ns/op", Value: 1}))
	os.WriteFile(path, raw, 0o644)
	if _, err := Load(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("expected error for missing file")
	}
}
