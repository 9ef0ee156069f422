package load

import (
	"math"
	"math/rand"

	"wantraffic/internal/dist"
	"wantraffic/internal/model"
	"wantraffic/internal/tcplib"
	"wantraffic/internal/trace"
)

// Per-user generation. Every simulated user owns a splittable RNG
// stream and one pending event time; the daemon's heap merges pending
// times across all users. A user materializes exactly one record per
// heap pop and then advances, so the merged stream is globally sorted
// and the interleaving is a pure function of the event times — never
// of goroutine scheduling or construction order.

// splitmix64 is the SplitMix64 finalizer, used both as the per-user
// rand.Source64 and as the seed-splitting mix. An 8-byte source
// matters here: math/rand's default source costs ~5 KB per Rand,
// which at a million users would be 5 GB of RNG state alone.
func splitmix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

const golden = 0x9e3779b97f4a7c15

// sm64 is a SplitMix64 rand.Source64.
type sm64 uint64

func (s *sm64) Uint64() uint64 {
	*s += golden
	return splitmix64(uint64(*s))
}

func (s *sm64) Int63() int64    { return int64(s.Uint64() >> 1) }
func (s *sm64) Seed(seed int64) { *s = sm64(seed) }

// userSeed splits the scenario seed into an independent stream per
// (source, user) index pair. The mix depends only on the indices, not
// on instantiation order, which is what makes the output byte stream
// invariant under any user fan-out order.
func userSeed(seed int64, src, user int) uint64 {
	x := splitmix64(uint64(seed) + golden*uint64(src+1))
	return splitmix64(x + golden*uint64(user+1))
}

func newUserRNG(seed int64, src, user int) *rand.Rand {
	s := sm64(userSeed(seed, src, user))
	return rand.New(&s)
}

// arrivals is a point process drawn one absolute arrival time at a
// time. Implementations own their RNG (the user's stream) and their
// current position on the trace clock.
type arrivals interface {
	// next draws the next arrival time, strictly after the previous.
	next() float64
	// reshape scales the rate by ratio (1 keeps it) for all future
	// draws and rebases the process at time now — used after the
	// daemon residually rescales the user's pending event.
	reshape(now, ratio float64)
}

// uniformArr spaces arrivals exactly 1/rate apart, with a random
// initial phase so users do not emit in lockstep.
type uniformArr struct {
	period float64
	t      float64
}

func newUniformArr(rng *rand.Rand, rate, start float64) *uniformArr {
	p := 1 / rate
	return &uniformArr{period: p, t: start + rng.Float64()*p - p}
}

func (a *uniformArr) next() float64 {
	a.t += a.period
	return a.t
}

func (a *uniformArr) reshape(now, ratio float64) {
	a.period /= ratio
	a.t = now
}

// poissonArr draws homogeneous Poisson arrivals.
type poissonArr struct {
	rng  *rand.Rand
	rate float64
	t    float64
}

func newPoissonArr(rng *rand.Rand, rate, start float64) *poissonArr {
	return &poissonArr{rng: rng, rate: rate, t: start}
}

func (a *poissonArr) next() float64 {
	a.t += a.rng.ExpFloat64() / a.rate
	return a.t
}

func (a *poissonArr) reshape(now, ratio float64) {
	a.rate *= ratio
	a.t = now
}

// diurnalArr is the paper's hourly-Poisson session process, drawn
// incrementally. rate is the mean arrivals/second over a day (the
// profile redistributes it across hours).
type diurnalArr struct {
	rng     *rand.Rand
	profile model.DiurnalProfile
	rate    float64
	s       *model.HourlyPoissonSampler
}

func newDiurnalArr(rng *rand.Rand, profile model.DiurnalProfile, rate, start float64) *diurnalArr {
	return &diurnalArr{
		rng: rng, profile: profile, rate: rate,
		s: model.NewHourlyPoissonSampler(rng, profile, rate*86400, start),
	}
}

func (a *diurnalArr) next() float64 { return a.s.Next() }

func (a *diurnalArr) reshape(now, ratio float64) {
	// Rebuilding at now is exact: the hourly-Poisson process is
	// memoryless within each hour.
	a.rate *= ratio
	a.s = model.NewHourlyPoissonSampler(a.rng, a.profile, a.rate*86400, now)
}

// burstyArr is a Poisson process whose rate steps up by factor inside
// periodic bursts: [k*every, k*every+length). The base rate is the
// configured rate, so the long-run mean is rate*(1+(factor-1)*length/every).
// Memoryless stepping at segment boundaries keeps the draw exact.
type burstyArr struct {
	rng           *rand.Rand
	rate          float64
	factor        float64
	every, length float64
	t             float64
}

func newBurstyArr(rng *rand.Rand, rate, factor, every, length, start float64) *burstyArr {
	return &burstyArr{rng: rng, rate: rate, factor: factor, every: every, length: length, t: start}
}

func (a *burstyArr) next() float64 {
	for {
		phase := math.Mod(a.t, a.every)
		r := a.rate
		boundary := a.t - phase + a.length
		if phase < a.length {
			r *= a.factor
		} else {
			boundary = a.t - phase + a.every
		}
		t := a.t + a.rng.ExpFloat64()/r
		if t >= boundary {
			a.t = boundary
			continue
		}
		a.t = t
		return t
	}
}

func (a *burstyArr) reshape(now, ratio float64) {
	a.rate *= ratio
	a.t = now
}

// paretoArr is a renewal process with Pareto interarrivals — infinite
// variance for shape <= 2, which makes the superposed count process
// pseudo-self-similar over the timescales the observatory measures
// (the Section VII construction).
type paretoArr struct {
	rng   *rand.Rand
	shape float64
	rate  float64
	p     dist.Pareto
	t     float64
}

func newParetoArr(rng *rand.Rand, rate, shape, start float64) *paretoArr {
	a := &paretoArr{rng: rng, shape: shape, rate: rate, t: start}
	a.calibrate()
	return a
}

// calibrate sets the Pareto scale so the mean interarrival is 1/rate:
// mean = a*β/(β-1).
func (a *paretoArr) calibrate() {
	scale := (a.shape - 1) / (a.shape * a.rate)
	a.p = dist.NewPareto(scale, a.shape)
}

func (a *paretoArr) next() float64 {
	a.t += a.p.Rand(a.rng)
	return a.t
}

func (a *paretoArr) reshape(now, ratio float64) {
	a.rate *= ratio
	a.calibrate()
	a.t = now
}

// tcplibArr draws interarrivals from the Tcplib TELNET distribution,
// scaled so the mean matches 1/rate. This keeps the distribution's
// heavy upper tail (the property Section IV shows EXP loses) while
// hitting the configured rate.
type tcplibArr struct {
	rng   *rand.Rand
	iat   *dist.Empirical
	scale float64
	t     float64
}

func newTcplibArr(rng *rand.Rand, rate, start float64) *tcplibArr {
	iat := tcplib.TelnetInterarrivals()
	return &tcplibArr{rng: rng, iat: iat, scale: 1 / (rate * iat.Mean()), t: start}
}

func (a *tcplibArr) next() float64 {
	a.t += a.iat.Rand(a.rng) * a.scale
	return a.t
}

func (a *tcplibArr) reshape(now, ratio float64) {
	a.scale /= ratio
	a.t = now
}

// newArrivals constructs the arrival process for a source's pattern
// at the given per-user rate, starting at start. Structured patterns
// (fulltel, ftpburst) are handled by the user types directly and
// never reach here.
func newArrivals(rng *rand.Rand, s *SourceSpec, rate, start float64) arrivals {
	switch s.Pattern {
	case PatternUniform:
		return newUniformArr(rng, rate, start)
	case PatternPoisson:
		return newPoissonArr(rng, rate, start)
	case PatternDiurnal:
		prof, err := profileFor(s.Profile)
		if err != nil {
			panic(err) // Validate rejected unknown profiles
		}
		return newDiurnalArr(rng, prof, rate, start)
	case PatternBursty:
		return newBurstyArr(rng, rate, s.BurstFactor, s.BurstEvery, s.BurstLen, start)
	case PatternPareto:
		return newParetoArr(rng, rate, s.ParetoShape, start)
	case PatternTcplib:
		return newTcplibArr(rng, rate, start)
	}
	panic("load: no arrival process for pattern " + s.Pattern)
}

// payload holds the per-source record-payload distributions, shared
// by all the source's users (draws use each user's own RNG).
type payload struct {
	proto trace.Protocol

	// Connection payloads: TELNET/RLOGIN use the Section V fits
	// (Tcplib byte sizes, log-normal durations) exactly as
	// model.TelnetConnections does; other protocols get generic
	// log-normal laws — load-shape fidelity, not paper fidelity.
	telnetBytes dist.LogExtreme
	connDur     dist.LogNormal
	connBytes   dist.LogNormal

	// Packet payloads: interactive protocols send small keystroke/echo
	// packets, bulk protocols near-MSS segments.
	pktSize int
}

func newPayload(proto trace.Protocol) payload {
	p := payload{proto: proto}
	switch proto {
	case trace.Telnet, trace.Rlogin:
		p.telnetBytes = tcplib.TelnetConnectionSizeBytes()
		p.connDur = dist.NewLogNormal(5.5, 1.4) // median ~4.1 min sessions
		p.pktSize = 64
	default:
		p.connDur = dist.NewLogNormal(1.0, 1.5)   // median ~2.7 s transfers
		p.connBytes = dist.NewLogNormal(8.0, 2.0) // median ~3 KB
		p.pktSize = 512
	}
	return p
}

// drawConn materializes one connection record at time t.
func (p *payload) drawConn(rng *rand.Rand, t float64, id int64) trace.Conn {
	c := trace.Conn{Start: t, Proto: p.proto, SessionID: id}
	switch p.proto {
	case trace.Telnet, trace.Rlogin:
		b := int64(p.telnetBytes.Rand(rng))
		if b < 1 {
			b = 1
		}
		c.Duration = p.connDur.Rand(rng)
		c.BytesOrig = b
		c.BytesResp = b * (5 + rng.Int63n(20)) // echo + command output
	default:
		c.Duration = p.connDur.Rand(rng)
		b := int64(p.connBytes.Rand(rng))
		if b < 1 {
			b = 1
		}
		c.BytesOrig = 160 + rng.Int63n(240) // request/handshake
		c.BytesResp = b
	}
	return c
}

// user is one simulated traffic source endpoint. pend is its next
// event time (math.Inf(1) when exhausted); queue holds materialized
// records a structured generator has already drawn.
type user struct {
	rng  *rand.Rand
	arr  arrivals // nil for structured patterns
	pend float64

	// Identity: global user index packs into the high bits of emitted
	// connection/session IDs, the per-user sequence number into the
	// low 20 bits — deterministic regardless of interleaving.
	id  int64
	seq int64

	// conn-kind structured state (ftpburst)
	connQ []trace.Conn
	qi    int
	ftp   *model.FTPConfig
	rate  float64 // per-user session (ftpburst) or connection (fulltel) rate

	// packet-kind structured state (fulltel)
	fulltel bool
	pktLeft int // packets remaining in the current connection
	connID  int64
}

// nextID packs a fresh record identifier.
func (u *user) nextID() int64 {
	u.seq++
	return u.id<<20 | (u.seq & 0xFFFFF)
}

// advanceConn moves a conn-kind user past its current pending event.
func (u *user) advanceConn(p *payload) trace.Conn {
	if u.ftp != nil {
		return u.advanceFTP()
	}
	c := p.drawConn(u.rng, u.pend, u.nextID())
	u.pend = u.arr.next()
	return c
}

// advanceFTP walks the materialized session queue, drawing the next
// session when the queue empties. Sessions are sequential per user —
// the next session begins an exponential think time after the last
// connection of the previous one — so the per-user stream stays
// monotone and the heap's global order exact.
func (u *user) advanceFTP() trace.Conn {
	c := u.connQ[u.qi]
	u.qi++
	if u.qi < len(u.connQ) {
		u.pend = u.connQ[u.qi].Start
		return c
	}
	last := c.Start
	u.startFTPSession(last + u.rng.ExpFloat64()/u.rate)
	return c
}

// startFTPSession materializes one FTP session starting at start.
func (u *user) startFTPSession(start float64) {
	u.connQ = model.SessionConns(u.rng, *u.ftp, start, u.nextID())
	u.qi = 0
	u.pend = u.connQ[0].Start
}

// advancePacket moves a packet-kind user past its current pending
// event.
func (u *user) advancePacket(p *payload, iat *dist.Empirical) trace.Packet {
	if u.fulltel {
		return u.advanceFullTel(iat)
	}
	pkt := trace.Packet{Time: u.pend, Size: p.pktSize, Proto: p.proto, ConnID: u.id + 1}
	u.pend = u.arr.next()
	return pkt
}

// advanceFullTel emits the FULL-TEL packet stream: per-connection
// packet budgets are log₂-normal (Section V), packet interarrivals
// Tcplib, and connections follow one another after an exponential
// think gap at the user's connection rate. (The paper's FULL-TEL
// draws connection arrivals as aggregate Poisson; per-user sequential
// connections keep each user's stream monotone, and the superposition
// across many users recovers the Poisson aggregate.)
func (u *user) advanceFullTel(iat *dist.Empirical) trace.Packet {
	pkt := trace.Packet{Time: u.pend, Size: 64, Proto: trace.Telnet, ConnID: u.connID}
	u.pktLeft--
	if u.pktLeft > 0 {
		u.pend += iat.Rand(u.rng)
	} else {
		u.startFullTelConn(u.pend + u.rng.ExpFloat64()/u.rate)
	}
	return pkt
}

// startFullTelConn opens the next FULL-TEL connection at start.
func (u *user) startFullTelConn(start float64) {
	size := tcplib.TelnetConnectionSizePackets()
	n := int(size.Rand(u.rng) + 0.5)
	if n < 1 {
		n = 1
	}
	u.pktLeft = n
	u.connID = u.nextID()
	u.pend = start
}

// reshapeUser applies a rate scale and/or pattern swap to one user at
// trace time now. Residual rescaling maps the pending arrival as
// pend' = now + (pend-now)/scale — exact for the memoryless processes
// and rate-proportional for the rest — without consuming any RNG
// draws; a pattern swap constructs the new process at now and draws
// the first arrival from the user's own stream.
func (u *user) reshapeUser(now, scale float64, swap *SourceSpec, perUserRate float64) {
	if u.ftp != nil || u.fulltel {
		// Structured users only scale their think-time rate: in-flight
		// sessions keep their already-drawn timing, future sessions
		// arrive at the new rate. (Validate rejects swaps on these.)
		if scale > 0 {
			u.rate *= scale
		}
		return
	}
	if swap != nil {
		u.arr = newArrivals(u.rng, swap, perUserRate, now)
		u.pend = u.arr.next()
		return
	}
	if scale > 0 && scale != 1 {
		if !math.IsInf(u.pend, 1) && u.pend > now {
			u.pend = now + (u.pend-now)/scale
		}
		u.arr.reshape(u.pend, scale)
	}
}
