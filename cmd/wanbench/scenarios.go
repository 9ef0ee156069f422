package main

import "wantraffic/internal/load"

// The live workloads run two load mixes. Both are bursty and
// heavy-tailed on purpose: the paper's finding is that Poisson models
// understate burstiness at every time scale, so smooth input would
// flatter exactly the stages whose cost follows arrival structure
// (window close, GK inserts, upload cadence).

// connScenario is bench-conn: 1024 users in four sources — diurnal
// TELNET, FTP session bursts, Poisson SMTP and Pareto-renewal WWW —
// about 1400 connection records per trace second.
func connScenario(horizon float64) *load.Scenario {
	return &load.Scenario{
		Name: "bench-conn", Kind: load.KindConn, Horizon: horizon,
		Sources: []load.SourceSpec{
			{Name: "telnet", Proto: "TELNET", Pattern: load.PatternDiurnal, Profile: "telnet", Users: 256, Rate: 400},
			{Name: "ftp", Proto: "FTP", Pattern: load.PatternFTPBurst, Users: 256, Rate: 40},
			{Name: "smtp", Proto: "SMTP", Pattern: load.PatternPoisson, Users: 256, Rate: 600},
			{Name: "www", Proto: "WWW", Pattern: load.PatternPareto, Users: 256, Rate: 600},
		},
	}
}

// pktScenario is bench-pkt: 512 FULL-TEL users (Tcplib interarrivals
// inside each connection) plus 512 Pareto-renewal users, about 710
// packet records per trace second.
func pktScenario(horizon float64) *load.Scenario {
	return &load.Scenario{
		Name: "bench-pkt", Kind: load.KindPacket, Horizon: horizon,
		Sources: []load.SourceSpec{
			{Name: "telnet", Proto: "TELNET", Pattern: load.PatternFullTel, Users: 512, Rate: 1.5},
			{Name: "www", Proto: "WWW", Pattern: load.PatternPareto, Users: 512, Rate: 430},
		},
	}
}
