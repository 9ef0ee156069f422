package load

import (
	"context"
	"io"
	"testing"
)

func benchScenario(kind string, pattern string, proto string) *Scenario {
	return &Scenario{
		Name: "bench", Kind: kind, Horizon: 1e12,
		Sources: []SourceSpec{
			{Name: "s", Proto: proto, Pattern: pattern, Users: 1000, Rate: 1000},
		},
	}
}

// benchRun measures full-speed generation throughput: one daemon run
// into io.Discard, with the horizon set so that the scenario's rate
// emits at least b.N records. It reports the records emitted per
// second of the run.
func benchRun(b *testing.B, sc *Scenario, binary bool) {
	b.Helper()
	sc.Horizon = float64(b.N)/sc.Sources[0].Rate + 100
	d, err := New(sc, Options{Seed: 1, Binary: binary})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	rep, err := d.Run(context.Background(), io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if rep.Records == 0 {
		b.Fatal("no records")
	}
	b.ReportMetric(float64(rep.Records)/b.Elapsed().Seconds(), "records/s")
}

func BenchmarkConnPoissonText(b *testing.B) {
	benchRun(b, benchScenario(KindConn, PatternPoisson, "TELNET"), false)
}

func BenchmarkConnPoissonBinary(b *testing.B) {
	benchRun(b, benchScenario(KindConn, PatternPoisson, "TELNET"), true)
}

func BenchmarkConnFTPBurst(b *testing.B) {
	sc := benchScenario(KindConn, PatternFTPBurst, "FTP")
	sc.Sources[0].Rate = 100 // sessions/s; each session emits several conns
	benchRun(b, sc, false)
}

func BenchmarkPacketFullTelBinary(b *testing.B) {
	benchRun(b, benchScenario(KindPacket, PatternFullTel, "TELNET"), true)
}

func BenchmarkPacketParetoBinary(b *testing.B) {
	benchRun(b, benchScenario(KindPacket, PatternPareto, "OTHER"), true)
}
