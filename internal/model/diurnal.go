// Package model implements the paper's traffic source models and the
// contrasting null models:
//
//   - user-session arrival processes that are Poisson with fixed hourly
//     rates following per-protocol diurnal profiles (Section III, Fig. 1);
//   - the FULL-TEL TELNET originator model — Poisson connection
//     arrivals, log₂-normal sizes in packets, Tcplib packet
//     interarrivals — plus the EXP and VAR-EXP exponential null schemes
//     (Sections IV–V);
//   - the FTP hierarchy of sessions → FTPDATA bursts → FTPDATA
//     connections with Pareto burst sizes (Section VI);
//   - machine-driven generators for NNTP (timers + flooding), SMTP
//     (timers + mailing-list explosions) and WWW (within-session click
//     bursts), whose connection arrivals are deliberately not Poisson.
package model

// DiurnalProfile gives the relative connection arrival rate for each
// hour of the day; Fig. 1 plots exactly these shapes ("fraction of an
// entire day's connections of that protocol occurring during that
// hour"). Profiles need not be normalized; Normalize scales them to
// sum to 1.
type DiurnalProfile [24]float64

// Normalize returns the profile scaled to sum to 1.
func (p DiurnalProfile) Normalize() DiurnalProfile {
	sum := 0.0
	for _, v := range p {
		sum += v
	}
	if sum == 0 {
		return p
	}
	var out DiurnalProfile
	for i, v := range p {
		out[i] = v / sum
	}
	return out
}

// Flat is a constant profile (every hour equal).
func Flat() DiurnalProfile {
	var p DiurnalProfile
	for i := range p {
		p[i] = 1
	}
	return p
}

// TelnetProfile peaks during office hours with a lunch-related dip at
// noon, the shape Fig. 1 reports for TELNET (and which RLOGIN shares).
func TelnetProfile() DiurnalProfile {
	return DiurnalProfile{
		0: 0.8, 1: 0.5, 2: 0.4, 3: 0.3, 4: 0.3, 5: 0.4,
		6: 0.8, 7: 1.8, 8: 3.5, 9: 5.5, 10: 6.5, 11: 6.3,
		12: 5.0, // lunch dip
		13: 6.2, 14: 6.8, 15: 6.9, 16: 6.4, 17: 5.0,
		18: 3.2, 19: 2.4, 20: 2.2, 21: 2.0, 22: 1.6, 23: 1.1,
	}.Normalize()
}

// FTPProfile resembles TELNET during the day but shows the substantial
// evening renewal Fig. 1 notes, "when presumably users take advantage
// of lower networking delays".
func FTPProfile() DiurnalProfile {
	return DiurnalProfile{
		0: 1.8, 1: 1.2, 2: 0.9, 3: 0.7, 4: 0.6, 5: 0.7,
		6: 1.0, 7: 1.8, 8: 3.0, 9: 4.5, 10: 5.5, 11: 5.4,
		12: 4.6,
		13: 5.3, 14: 5.8, 15: 5.9, 16: 5.5, 17: 4.6,
		18: 3.8, 19: 3.9, 20: 4.2, 21: 4.0, 22: 3.3, 23: 2.5,
	}.Normalize()
}

// NNTPProfile is nearly constant all day, dipping somewhat in the
// early morning hours.
func NNTPProfile() DiurnalProfile {
	return DiurnalProfile{
		0: 4.2, 1: 4.0, 2: 3.6, 3: 3.2, 4: 3.0, 5: 3.1,
		6: 3.4, 7: 3.8, 8: 4.2, 9: 4.4, 10: 4.5, 11: 4.5,
		12: 4.4,
		13: 4.5, 14: 4.6, 15: 4.6, 16: 4.5, 17: 4.4,
		18: 4.3, 19: 4.3, 20: 4.4, 21: 4.4, 22: 4.4, 23: 4.3,
	}.Normalize()
}

// SMTPProfileWest shows the morning bias of the west-coast LBL site
// ("perhaps ... cross-country mail arriving relatively earlier in the
// Pacific time zone").
func SMTPProfileWest() DiurnalProfile {
	return DiurnalProfile{
		0: 1.5, 1: 1.2, 2: 1.0, 3: 0.9, 4: 1.0, 5: 1.4,
		6: 2.5, 7: 4.5, 8: 6.5, 9: 7.2, 10: 7.0, 11: 6.5,
		12: 5.8,
		13: 6.0, 14: 5.8, 15: 5.5, 16: 5.0, 17: 4.2,
		18: 3.2, 19: 2.8, 20: 2.6, 21: 2.4, 22: 2.1, 23: 1.8,
	}.Normalize()
}

// SMTPProfileEast mirrors SMTPProfileWest toward the afternoon, the
// shift Fig. 1 observes at the east-coast Bellcore site.
func SMTPProfileEast() DiurnalProfile {
	w := SMTPProfileWest()
	var out DiurnalProfile
	for i := range out {
		out[i] = w[(i+21)%24] // shift the peak ~3 hours later
	}
	return out.Normalize()
}

// WWWProfile follows office hours like TELNET; WWW was young in the
// traces ("use of this protocol is rapidly growing").
func WWWProfile() DiurnalProfile { return TelnetProfile() }
