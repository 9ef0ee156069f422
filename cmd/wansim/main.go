// Command wansim simulates a wide-area gateway link end to end — the
// "simulation environment" the paper's models exist to drive (Section
// VIII: simulations "investigating changes to either TCP, the gateway
// scheduling algorithms, or the network's packet-dropping algorithms"
// need per-source models).
//
// It multiplexes the paper's source models onto one link:
//
//   - FULL-TEL TELNET originator traffic (+ optional responder);
//   - FTP sessions whose FTPDATA transfers run through the TCP Reno
//     substrate over a shared bottleneck;
//   - SMTP/NNTP background, packetized from connection records;
//
// then reports link statistics, the Appendix A / Section VII verdicts
// on the aggregate, and optionally writes the packet trace.
//
// Usage:
//
//	wansim -hours 1 -telnet 137 -ftp 40 -o link.pkt
//	wansim -hours 1 -priority          # TELNET prioritized over bulk
//	wansim -hours 4 -serve :8077       # watch a long simulation live
//
// The shared observability flags apply (-serve, -log, -metrics-out,
// -trace-out, -progress; see internal/cli). Exit codes follow the
// internal/cli contract: 0 success, 1 hard failure, 2 usage error
// (invalid flag values).
package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"

	"wantraffic/internal/cli"
	"wantraffic/internal/core"
	"wantraffic/internal/model"
	"wantraffic/internal/obs"
	"wantraffic/internal/sim"
	"wantraffic/internal/stats"
	"wantraffic/internal/tcp"
	"wantraffic/internal/trace"
)

func main() {
	os.Exit(cli.Main("wansim", run))
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("wansim", stderr)
	hours := fs.Float64("hours", 1, "simulated duration")
	telnet := fs.Float64("telnet", 137, "TELNET connections per hour (0 disables)")
	responder := fs.Bool("responder", false, "include the TELNET responder stream")
	ftp := fs.Float64("ftp", 40, "FTP sessions per hour (0 disables)")
	mailnews := fs.Float64("mailnews", 150, "SMTP+NNTP connections per hour (0 disables)")
	rate := fs.Float64("rate", 192000, "bottleneck bandwidth for FTPDATA TCP transfers (bytes/s)")
	priority := fs.Bool("priority", false, "strict-priority link: TELNET over bulk")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("o", "", "write the aggregate packet trace to this file (binary format)")
	obsFlags := cli.RegisterObs(fs)
	if err := cli.ParseFlags(fs, args); err != nil {
		return err
	}
	if err := cli.FirstErr(
		cli.Positive("hours", *hours),
		cli.NonNegative("telnet", *telnet),
		cli.NonNegative("ftp", *ftp),
		cli.NonNegative("mailnews", *mailnews),
		cli.Positive("rate", *rate),
	); err != nil {
		return err
	}
	sess, err := obsFlags.Start(stderr)
	if err != nil {
		return err
	}
	defer sess.Close()
	ctx := obs.WithTracer(context.Background(), sess.Tracer)
	pkts := sess.Metrics.Counter("wansim.packets")
	rng := rand.New(rand.NewSource(*seed))
	horizon := *hours * 3600
	agg := &trace.PacketTrace{Name: "wansim", Horizon: horizon}

	if *telnet > 0 {
		_, sp := obs.StartSpan(ctx, "source:telnet")
		var tel *trace.PacketTrace
		if *responder {
			tel = model.FullTelnetBidirectional(rng, "telnet", *telnet, horizon, model.DefaultResponderConfig())
		} else {
			tel = model.FullTelnet(rng, "telnet", *telnet, horizon)
		}
		sp.SetAttrInt("packets", int64(len(tel.Packets)))
		sp.End()
		pkts.Add(int64(len(tel.Packets)))
		agg.Packets = append(agg.Packets, tel.Packets...)
		fmt.Fprintf(stdout, "TELNET:   %8d packets\n", len(tel.Packets))
	}

	if *ftp > 0 {
		_, sp := obs.StartSpan(ctx, "source:ftpdata")
		n := ftpOverTCP(rng, agg, *ftp, *rate, horizon)
		sp.SetAttrInt("packets", int64(n))
		sp.End()
		pkts.Add(int64(n))
		fmt.Fprintf(stdout, "FTPDATA:  %8d packets (TCP Reno over %.0f kB/s bottleneck)\n", n, *rate/1000)
	}

	if *mailnews > 0 {
		_, sp := obs.StartSpan(ctx, "source:mailnews")
		days := int(*hours/24) + 1
		smtp := model.GenerateSMTP(rng, model.DefaultSMTPConfig(*mailnews*12, days))
		nntp := model.GenerateNNTP(rng, model.DefaultNNTPConfig(*mailnews*12, days))
		p1 := model.Packetize(rng, "smtp", smtp, 512, horizon)
		p2 := model.Packetize(rng, "nntp", nntp, 512, horizon)
		sp.SetAttrInt("packets", int64(len(p1.Packets)+len(p2.Packets)))
		sp.End()
		pkts.Add(int64(len(p1.Packets) + len(p2.Packets)))
		agg.Packets = append(agg.Packets, p1.Packets...)
		agg.Packets = append(agg.Packets, p2.Packets...)
		fmt.Fprintf(stdout, "SMTP/NNTP:%8d packets\n", len(p1.Packets)+len(p2.Packets))
	}

	agg.SortByTime()
	fmt.Fprintf(stdout, "aggregate:%8d packets over %.1f h\n\n", len(agg.Packets), *hours)
	if len(agg.Packets) == 0 {
		return cli.Usagef("no traffic sources enabled (all rates are 0)")
	}

	// Section VII verdict on the aggregate.
	_, aspan := obs.StartSpan(ctx, "analyze")
	counts := stats.CountProcess(agg.AllTimes(), 0.01, horizon)
	ss := core.AssessSelfSimilarity(counts, 1000)
	fmt.Fprintf(stdout, "aggregate VT slope %.2f (H_vt %.2f); Whittle H %.2f; fGn-consistent: %v\n",
		ss.VTSlope, ss.HFromVT, ss.Whittle.H, ss.ConsistentWithFGN)

	if *priority {
		priorityReport(stdout, agg)
	}
	aspan.End()

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.WritePacketTrace(f, agg, true); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s\n", *out)
	}
	return sess.Close()
}

// ftpOverTCP generates FTP sessions and runs every FTPDATA transfer
// through its own TCP bottleneck path (a gateway trace observes many
// distinct wide-area paths, not one shared choke point), appending the
// wire departures to the aggregate.
func ftpOverTCP(rng *rand.Rand, agg *trace.PacketTrace, sessionsPerHour, rate, horizon float64) int {
	days := int(horizon/86400) + 1
	cfg := model.DefaultFTPConfig(sessionsPerHour*24, days)
	cfg.BurstBytes.Max = 1e8
	conns := model.GenerateFTP(rng, cfg)
	total := 0
	var id int64 = 1000000
	for _, c := range conns {
		if c.Proto != trace.FTPData || c.Start >= horizon {
			continue
		}
		path := tcp.DefaultPath()
		// Per-path heterogeneity: bandwidth and RTT vary per client.
		path.Rate = rate * (0.3 + 1.4*rng.Float64())
		path.RTT = 0.02 + rng.Float64()*0.3
		deps, _ := tcp.Transfer(path, c.Bytes(), horizon-c.Start)
		id++
		for _, d := range deps {
			agg.Packets = append(agg.Packets, trace.Packet{
				Time: c.Start + d.Time, Size: d.Size, Proto: trace.FTPData, ConnID: id,
			})
		}
		total += len(deps)
	}
	return total
}

// priorityReport replays the aggregate through a strict-priority link
// with TELNET prioritized over everything else.
func priorityReport(stdout io.Writer, agg *trace.PacketTrace) {
	var high, low []float64
	for _, p := range agg.Packets {
		if p.Proto == trace.Telnet {
			high = append(high, p.Time)
		} else {
			low = append(low, p.Time)
		}
	}
	if len(high) == 0 || len(low) == 0 {
		fmt.Fprintln(stdout, "priority report needs both TELNET and bulk traffic")
		return
	}
	sort.Float64s(high)
	sort.Float64s(low)
	// Service time for ~85% utilization.
	rate := float64(len(high)+len(low)) / agg.Horizon
	q := sim.NewPriorityQueue(0.85/rate).RunClasses(high, low)
	fmt.Fprintf(stdout, "priority link: TELNET mean wait %.4fs (max %.2fs); bulk mean wait %.4fs (max %.2fs)\n",
		q.MeanHighWait(), q.HighMaxWait, q.MeanLowWait(), q.LowMaxWait)
}
