package load

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"log/slog"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wantraffic/internal/dist"
	"wantraffic/internal/model"
	"wantraffic/internal/obs"
	"wantraffic/internal/tcplib"
	"wantraffic/internal/trace"
)

// Options configures a Daemon run.
type Options struct {
	// Seed is the scenario seed; every user derives an independent
	// stream from it (see userSeed).
	Seed int64
	// Dilate is trace seconds emitted per wall second — the same
	// contract as observe.ReplayOptions: 1 emits in real time, 60
	// emits a minute of trace per wall second, 0 (or negative) emits
	// at full speed. Pacing never touches record contents.
	Dilate float64
	// Duration overrides the scenario horizon when positive.
	Duration float64
	// UserScale multiplies every source's user count (rounded up, at
	// least one user); 0 keeps the scenario counts.
	UserScale float64
	// Scale multiplies every source's configured rate at start; 0
	// keeps the scenario rates.
	Scale float64
	// Binary selects the binary trace framing (with the streamed
	// count sentinel) over text.
	Binary bool
	// PipelineID, when non-empty, is stamped into the trace framing
	// (a "#pipeline" comment in text, a header block in binary) so
	// downstream consumers attribute their watermarks to this run.
	PipelineID string

	// Sleep and Now are injectable for tests; nil selects real time
	// (with context-interruptible sleeps).
	Sleep func(time.Duration)
	Now   func() time.Time

	Metrics *obs.Registry
	Bus     *obs.Bus
	Logger  *slog.Logger
	// Marks, when non-nil, stamps the load_emit watermark with the
	// latest emitted record time at every metrics publish.
	Marks *obs.Watermarks
}

// Reshape is a runtime adjustment to one source (or all of them):
// multiply the current rate by Scale — or pin it to the absolute Rate
// (arrivals/second, what a SIGHUP reload uses to converge on the new
// file's value regardless of earlier scaling) — and/or swap the
// arrival pattern. Scale and Rate are mutually exclusive.
type Reshape struct {
	Source  string  `json:"source,omitempty"`
	Scale   float64 `json:"scale,omitempty"`
	Rate    float64 `json:"rate,omitempty"`
	Pattern string  `json:"pattern,omitempty"`
}

// Report summarizes a completed run.
type Report struct {
	Scenario     string           `json:"scenario"`
	Kind         string           `json:"kind"`
	Users        int              `json:"users"`
	Records      int64            `json:"records"`
	TraceSeconds float64          `json:"trace_seconds"`
	WallSeconds  float64          `json:"wall_seconds"`
	RateTrace    float64          `json:"rate_trace"` // records per trace second
	RateWall     float64          `json:"rate_wall"`  // records per wall second
	Reshapes     int64            `json:"reshapes"`
	PerProto     map[string]int64 `json:"per_proto"`
}

// source is the runtime state of one SourceSpec: its users occupy the
// contiguous global index range [start, start+n).
type source struct {
	spec  SourceSpec
	proto trace.Protocol
	pay   payload
	rate  float64 // current aggregate rate (initial scale and reshapes applied)
	start int
	n     int
}

// event is one heap entry: a user's pending event time, tie-broken by
// (source, user) index so the merge order is total and deterministic.
type event struct {
	t    float64
	src  int32
	user int32
}

func (a event) less(b event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.user < b.user
}

// Daemon generates one scenario's record stream. It is not
// restartable: build one, Run it once.
type Daemon struct {
	sc      *Scenario
	opts    Options
	horizon float64
	sources []*source
	users   []user
	heap    []event

	// fulltelIAT is the Tcplib interarrival distribution shared by
	// all FULL-TEL users (immutable, so sharing is safe).
	fulltelIAT *dist.Empirical

	// Live reshape queue: the control endpoint and SIGHUP reloads
	// append under mu, the run loop drains when flag is set. Queued
	// entries are already validated against the immutable scenario and
	// carry the origin the applied event reports.
	mu     sync.Mutex
	queued []queuedReshape
	flag   atomic.Bool

	// Metrics handles, nil without a registry.
	mRecords  *obs.Counter
	mReshapes *obs.Counter
	mProto    [256]*obs.Counter // indexed by trace.Protocol, a uint8
	gTarget   *obs.Gauge
	gWall     *obs.Gauge
	gTraceSec *obs.Gauge
	gUsers    *obs.Gauge

	records  int64
	reshapes int64
	perProto [256]int64 // indexed by trace.Protocol

	scale  float64        // effective initial rate multiplier
	emitWM *obs.Watermark // load_emit stamp, resolved once in New
}

// queuedReshape is one pending live reshape with its origin label
// ("control" for the HTTP endpoint, "sighup" for a file reload).
type queuedReshape struct {
	r      Reshape
	origin string
}

// New builds a daemon: allocates and seeds every user and their first
// pending events. Validate is run on the scenario (filling defaults)
// if the caller has not already done so.
func New(sc *Scenario, opts Options) (*Daemon, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	horizon := sc.Horizon
	if opts.Duration > 0 {
		horizon = opts.Duration
	}
	if !(horizon > 0) {
		return nil, fmt.Errorf("load: no horizon: scenario sets none and no duration given")
	}
	scale := opts.Scale
	if scale <= 0 {
		scale = 1
	}
	userScale := opts.UserScale
	if userScale <= 0 {
		userScale = 1
	}
	d := &Daemon{sc: sc, opts: opts, horizon: horizon, scale: scale}
	d.emitWM = opts.Marks.Stage(obs.StageLoadEmit)
	opts.Marks.SetPipeline(opts.PipelineID)

	total := 0
	for i := range sc.Sources {
		spec := sc.Sources[i]
		n := int(math.Ceil(float64(spec.Users) * userScale))
		if n < 1 {
			n = 1
		}
		proto, err := parseProto(spec.Proto)
		if err != nil {
			return nil, err
		}
		d.sources = append(d.sources, &source{
			spec: spec, proto: proto, pay: newPayload(proto),
			rate: spec.Rate * scale, start: total, n: n,
		})
		total += n
	}
	d.users = make([]user, total)
	for si, s := range d.sources {
		if s.spec.Pattern == PatternFullTel && d.fulltelIAT == nil {
			d.fulltelIAT = tcplib.TelnetInterarrivals()
		}
		perUser := s.rate / float64(s.n)
		for j := 0; j < s.n; j++ {
			d.initUser(si, j, perUser)
		}
	}
	d.rebuildHeap()
	d.initMetrics(total)
	return d, nil
}

// initUser seeds and starts one user. Splitting the seed by (source,
// user) index — never by instantiation order — is what makes the
// output invariant under any fan-out order; TestFanOutOrder shuffles
// this loop to prove it.
func (d *Daemon) initUser(si, j int, perUser float64) {
	s := d.sources[si]
	gi := s.start + j
	u := &d.users[gi]
	u.rng = newUserRNG(d.opts.Seed, si, j)
	u.id = int64(gi)
	switch s.spec.Pattern {
	case PatternFTPBurst:
		cfg := model.DefaultFTPConfig(1, 1) // only the distribution knobs are used
		u.ftp = &cfg
		u.rate = perUser
		u.startFTPSession(u.rng.ExpFloat64() / u.rate)
	case PatternFullTel:
		u.fulltel = true
		u.rate = perUser
		u.startFullTelConn(u.rng.ExpFloat64() / u.rate)
	default:
		u.arr = newArrivals(u.rng, &s.spec, perUser, 0)
		u.pend = u.arr.next()
	}
}

// Users reports the total simulated user count.
func (d *Daemon) Users() int { return len(d.users) }

// Horizon reports the effective trace horizon in seconds.
func (d *Daemon) Horizon() float64 { return d.horizon }

// --- event heap (hand-rolled: one entry per live user, hot path) ---

func (d *Daemon) rebuildHeap() {
	d.heap = d.heap[:0]
	for i := range d.users {
		u := &d.users[i]
		if u.pend < d.horizon {
			d.heap = append(d.heap, event{t: u.pend, src: d.srcOf(i), user: int32(i)})
		}
	}
	for i := len(d.heap)/2 - 1; i >= 0; i-- {
		d.siftDown(i)
	}
}

// srcOf maps a global user index to its source index.
func (d *Daemon) srcOf(gi int) int32 {
	for si, s := range d.sources {
		if gi < s.start+s.n {
			return int32(si)
		}
	}
	panic("load: user index out of range")
}

func (d *Daemon) siftDown(i int) {
	n := len(d.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && d.heap[l].less(d.heap[m]) {
			m = l
		}
		if r < n && d.heap[r].less(d.heap[m]) {
			m = r
		}
		if m == i {
			return
		}
		d.heap[i], d.heap[m] = d.heap[m], d.heap[i]
		i = m
	}
}

// replaceMin swaps the minimum for a user's new pending event (or
// removes it when the user is past the horizon) in one sift.
func (d *Daemon) replaceMin(ev event, alive bool) {
	if alive {
		d.heap[0] = ev
		d.siftDown(0)
		return
	}
	n := len(d.heap) - 1
	d.heap[0] = d.heap[n]
	d.heap = d.heap[:n]
	if n > 0 {
		d.siftDown(0)
	}
}

// --- run loop ---

// Run generates the scenario into w, honoring pacing and reshapes,
// until the horizon is reached or ctx is canceled (which returns
// ctx.Err() after flushing what was written).
//
// At full speed nothing waits on a record, so w receives whole
// trace.HandoffSize chunks. A paced run keeps the encoder's 4 KiB
// buffer and flushes it before every wait, so each record reaches w
// when it falls due.
func (d *Daemon) Run(ctx context.Context, w io.Writer) (Report, error) {
	now := d.opts.Now
	if now == nil {
		now = time.Now
	}
	wall0 := now()
	rep := Report{Scenario: d.sc.Name, Kind: d.sc.Kind, Users: len(d.users)}

	if !(d.opts.Dilate > 0) {
		// The encoder adopts this writer as its buffer.
		w = bufio.NewWriterSize(w, trace.HandoffSize)
	}
	var connEnc *trace.ConnEncoder
	var pktEnc *trace.PacketEncoder
	var err error
	eopts := trace.EncoderOptions{PipelineID: d.opts.PipelineID}
	if d.sc.Kind == KindConn {
		connEnc, err = trace.NewConnEncoderWith(w, d.sc.Name, d.horizon, d.opts.Binary, eopts)
	} else {
		pktEnc, err = trace.NewPacketEncoderWith(w, d.sc.Name, d.horizon, d.opts.Binary, eopts)
	}
	if err != nil {
		return rep, err
	}
	flush := func() error {
		if connEnc != nil {
			return connEnc.Flush()
		}
		return pktEnc.Flush()
	}

	sleep := d.opts.Sleep
	if sleep == nil {
		sleep = trace.ContextSleep(ctx)
	}
	// Hand over what is due before waiting. A failed flush is sticky in
	// the encoder, so the next Write ends the run with its error.
	pace := trace.NewPacer(ctx, d.opts.Dilate, func(wait time.Duration) {
		if flush() == nil {
			sleep(wait)
		}
	}, now)
	nextPhase := 0
	lastT := 0.0
	var runErr error

loop:
	for len(d.heap) > 0 {
		ev := d.heap[0]

		// Scheduled phases land exactly at their event time, before
		// any record at or past it — deterministic at any dilation.
		if nextPhase < len(d.sc.Phases) && d.sc.Phases[nextPhase].At <= ev.t {
			p := d.sc.Phases[nextPhase]
			nextPhase++
			d.apply(p.At, Reshape{Source: p.Source, Scale: p.Scale, Pattern: p.Pattern}, "phase")
			continue
		}
		// Live reshapes land at the daemon's current trace position.
		if d.flag.Load() {
			for _, q := range d.drainQueued() {
				d.apply(lastT, q.r, q.origin)
			}
			continue
		}

		if err := pace(ev.t); err != nil {
			runErr = err
			break loop
		}
		if d.records&1023 == 0 && ctx.Err() != nil {
			runErr = ctx.Err()
			break loop
		}

		s := d.sources[ev.src]
		u := &d.users[ev.user]
		// Count the emitted record's protocol, not the source's: an
		// FTP session source emits both FTP control and FTPDATA conns.
		var proto trace.Protocol
		if connEnc != nil {
			c := u.advanceConn(&s.pay)
			proto = c.Proto
			if err := connEnc.Write(c); err != nil {
				runErr = err
				break loop
			}
		} else {
			p := u.advancePacket(&s.pay, d.fulltelIAT)
			proto = p.Proto
			if err := pktEnc.Write(p); err != nil {
				runErr = err
				break loop
			}
		}
		lastT = ev.t
		d.records++
		d.perProto[proto]++
		d.replaceMin(event{t: u.pend, src: ev.src, user: ev.user}, u.pend < d.horizon)

		if d.records&255 == 0 {
			d.publishMetrics(lastT, now().Sub(wall0))
		}
	}

	if ferr := flush(); runErr == nil {
		runErr = ferr
	}
	wall := now().Sub(wall0).Seconds()
	d.publishMetrics(lastT, time.Duration(wall*float64(time.Second)))

	rep.Records = d.records
	rep.TraceSeconds = lastT
	rep.WallSeconds = wall
	if lastT > 0 {
		rep.RateTrace = float64(d.records) / lastT
	}
	if wall > 0 {
		rep.RateWall = float64(d.records) / wall
	}
	rep.Reshapes = d.reshapes
	rep.PerProto = map[string]int64{}
	for proto, n := range d.perProto {
		if n > 0 {
			rep.PerProto[trace.Protocol(proto).String()] = n
		}
	}
	if log := d.opts.Logger; log != nil {
		log.Info("load run finished", "records", rep.Records,
			"trace_seconds", rep.TraceSeconds, "wall_seconds", rep.WallSeconds,
			"reshapes", rep.Reshapes)
	}
	return rep, runErr
}

// --- reshaping ---

// ValidateReshape checks a reshape against the scenario without
// applying it: source names, swappability and pattern/kind validity.
// It only reads immutable scenario data, so it is safe from the
// control endpoint's goroutine.
func (d *Daemon) ValidateReshape(r Reshape) error {
	if r.Scale == 0 && r.Rate == 0 && r.Pattern == "" {
		return fmt.Errorf("load: reshape needs a scale, a rate or a pattern")
	}
	if r.Scale < 0 {
		return fmt.Errorf("load: reshape scale must be positive, got %g", r.Scale)
	}
	if r.Rate < 0 {
		return fmt.Errorf("load: reshape rate must be positive, got %g", r.Rate)
	}
	if r.Scale != 0 && r.Rate != 0 {
		return fmt.Errorf("load: reshape takes a scale or a rate, not both")
	}
	if r.Source != "" {
		found := false
		for i := range d.sc.Sources {
			if d.sc.Sources[i].Name == r.Source {
				found = true
			}
		}
		if !found {
			return fmt.Errorf("load: reshape: unknown source %q", r.Source)
		}
	}
	// Swaps only ever land on swappable sources and swap in swappable
	// patterns, so checking against the original specs is sound even
	// after earlier swaps.
	return d.sc.checkSwap(r.Source, r.Pattern, -1)
}

// Reshape validates and enqueues a live reshape; the run loop applies
// it at the trace time it has reached.
func (d *Daemon) Reshape(r Reshape) error {
	if err := d.ValidateReshape(r); err != nil {
		return err
	}
	d.enqueue(r, "control")
	return nil
}

func (d *Daemon) enqueue(r Reshape, origin string) {
	d.mu.Lock()
	d.queued = append(d.queued, queuedReshape{r: r, origin: origin})
	d.mu.Unlock()
	d.flag.Store(true)
}

func (d *Daemon) drainQueued() []queuedReshape {
	d.mu.Lock()
	q := d.queued
	d.queued = nil
	d.flag.Store(false)
	d.mu.Unlock()
	return q
}

// Reload diffs a freshly parsed scenario (the original -scenario file,
// re-read on SIGHUP) against the immutable one this daemon was built
// from and enqueues the differences as live reshapes with origin
// "sighup". Only rate and pattern changes are reloadable — the user
// population, protocols, pattern parameters, horizon and phase
// schedule are pinned at construction — and a spec that changes
// anything else is rejected whole, leaving the run untouched. It only
// reads immutable daemon state, so it is safe from a signal goroutine.
func (d *Daemon) Reload(sc *Scenario) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	if sc.Kind != d.sc.Kind {
		return fmt.Errorf("load: reload: kind changed %q -> %q", d.sc.Kind, sc.Kind)
	}
	if sc.Horizon != d.sc.Horizon {
		return fmt.Errorf("load: reload: horizon changed %g -> %g (restart to apply)", d.sc.Horizon, sc.Horizon)
	}
	if len(sc.Phases) != len(d.sc.Phases) {
		return fmt.Errorf("load: reload: phase schedule changed (restart to apply)")
	}
	for i := range sc.Phases {
		if sc.Phases[i] != d.sc.Phases[i] {
			return fmt.Errorf("load: reload: phase %d changed (restart to apply)", i)
		}
	}
	if len(sc.Sources) != len(d.sc.Sources) {
		return fmt.Errorf("load: reload: source count changed %d -> %d", len(d.sc.Sources), len(sc.Sources))
	}
	old := make(map[string]SourceSpec, len(d.sc.Sources))
	for _, s := range d.sc.Sources {
		old[s.Name] = s
	}
	// Validate the whole diff before enqueueing any of it: a reload is
	// atomic — applied entirely or rejected entirely.
	var rs []Reshape
	for _, s := range sc.Sources {
		o, ok := old[s.Name]
		if !ok {
			return fmt.Errorf("load: reload: source %q not in the running scenario", s.Name)
		}
		fixed, fixedOld := s, o
		fixed.Rate, fixed.Pattern = 0, ""
		fixedOld.Rate, fixedOld.Pattern = 0, ""
		if fixed != fixedOld {
			return fmt.Errorf("load: reload: source %q: only rate and pattern may change (restart to apply)", s.Name)
		}
		var r Reshape
		if s.Rate != o.Rate {
			// The file's rate, under the same initial -scale the
			// original rates got: absolute, so it converges on the new
			// value no matter what live reshapes happened in between.
			r.Rate = s.Rate * d.scale
		}
		if s.Pattern != o.Pattern {
			r.Pattern = s.Pattern
		}
		if r == (Reshape{}) {
			continue
		}
		r.Source = s.Name
		if err := d.ValidateReshape(r); err != nil {
			return err
		}
		rs = append(rs, r)
	}
	for _, r := range rs {
		d.enqueue(r, "sighup")
	}
	if log := d.opts.Logger; log != nil {
		log.Info("load reload accepted", "scenario", sc.Name, "reshapes", len(rs))
	}
	return nil
}

// apply executes one reshape at trace time at: scale the matching
// sources' rates, residually rescale every affected user's pending
// event, swap patterns where asked, rebuild the heap, and publish the
// load_reshape event.
func (d *Daemon) apply(at float64, r Reshape, origin string) {
	for _, s := range d.sources {
		if r.Source != "" && s.spec.Name != r.Source {
			continue
		}
		scale := r.Scale
		if r.Rate > 0 && s.rate > 0 {
			// Absolute rate: the residual rescale is whatever factor
			// lands this source on it from wherever it currently is.
			scale = r.Rate / s.rate
		}
		if scale > 0 {
			s.rate *= scale
		}
		var swap *SourceSpec
		if r.Pattern != "" {
			s.spec.Pattern = r.Pattern
			swap = &s.spec
		}
		perUser := s.rate / float64(s.n)
		for i := s.start; i < s.start+s.n; i++ {
			d.users[i].reshapeUser(at, scale, swap, perUser)
		}
	}
	d.rebuildHeap()
	d.reshapes++
	if d.mReshapes != nil {
		d.mReshapes.Inc()
	}
	if d.gTarget != nil {
		d.gTarget.Set(d.targetRate())
	}
	attrs := map[string]string{
		"t":      strconv.FormatFloat(at, 'g', -1, 64),
		"origin": origin,
	}
	if r.Source != "" {
		attrs["source"] = r.Source
	}
	if r.Scale > 0 {
		attrs["scale"] = strconv.FormatFloat(r.Scale, 'g', -1, 64)
	}
	if r.Rate > 0 {
		attrs["rate"] = strconv.FormatFloat(r.Rate, 'g', -1, 64)
	}
	if r.Pattern != "" {
		attrs["pattern"] = r.Pattern
	}
	if origin == "sighup" {
		attrs["cause"] = "sighup"
	}
	d.opts.Bus.Publish(obs.EventLoadReshape, d.sc.Name, attrs)
	if log := d.opts.Logger; log != nil {
		log.Info("load reshape", "t", at, "origin", origin,
			"source", r.Source, "scale", r.Scale, "pattern", r.Pattern)
	}
}

// targetRate sums the sources' current configured rates.
func (d *Daemon) targetRate() float64 {
	sum := 0.0
	for _, s := range d.sources {
		sum += s.rate
	}
	return sum
}

// --- metrics ---

func (d *Daemon) initMetrics(totalUsers int) {
	reg := d.opts.Metrics
	if reg == nil {
		return
	}
	d.mRecords = reg.Counter("load.records")
	d.mReshapes = reg.Counter("load.reshapes")
	for _, s := range d.sources {
		if d.mProto[s.proto] == nil {
			d.mProto[s.proto] = reg.Counter("load.proto." + s.proto.String())
		}
	}
	d.gTarget = reg.Gauge("load.rate.target")
	d.gWall = reg.Gauge("load.rate.achieved.wall")
	d.gTraceSec = reg.Gauge("load.trace_seconds")
	d.gUsers = reg.Gauge("load.users")
	d.gTarget.Set(d.targetRate())
	d.gUsers.Set(float64(totalUsers))
}

// publishMetrics pushes the run counters into the registry; counter
// deltas are derived from the report totals so the hot loop only
// increments plain ints.
func (d *Daemon) publishMetrics(traceT float64, wall time.Duration) {
	d.emitWM.Stamp(traceT)
	if d.opts.Metrics == nil {
		return
	}
	if delta := d.records - d.mRecords.Value(); delta > 0 {
		d.mRecords.Add(delta)
	}
	for proto, n := range d.perProto {
		if n == 0 {
			continue
		}
		c := d.mProto[proto]
		if c == nil {
			// Protocols beyond the source set appear at run time:
			// FTP session sources also emit FTPDATA records.
			c = d.opts.Metrics.Counter("load.proto." + trace.Protocol(proto).String())
			d.mProto[proto] = c
		}
		if delta := n - c.Value(); delta > 0 {
			c.Add(delta)
		}
	}
	d.gTraceSec.Set(traceT)
	if s := wall.Seconds(); s > 0 {
		d.gWall.Set(float64(d.records) / s)
	}
}
