package trace

import (
	"context"
	"time"
)

// HandoffSize is how many bytes a full-speed stream changes hands in:
// the load daemon writes, and stream.NewSource reads, this many at a
// time. An io.Pipe passes one Write per Read and blocks the writer
// until the reader has taken it all; at bufio's default 4 KiB the two
// ends take turns, at 64 KiB they run side by side.
const HandoffSize = 64 << 10

// NewPacer returns the event-time pacing function every paced loop
// shares (observe.Replay on the consuming side, the load daemon on the
// producing side). Each call sleeps until the record's event time t,
// divided by dilate, has elapsed on the wall clock since the first
// paced record, then returns ctx.Err(). Pacing only delays a record,
// never alters it, so output is identical at every dilation.
//
// A dilate of 0 or less disables pacing. A nil sleep selects
// ContextSleep(ctx); a nil now selects time.Now. Both are injectable
// so tests can pace against a fake clock.
func NewPacer(ctx context.Context, dilate float64, sleep func(time.Duration), now func() time.Time) func(t float64) error {
	if !(dilate > 0) {
		return func(float64) error { return nil }
	}
	if sleep == nil {
		sleep = ContextSleep(ctx)
	}
	if now == nil {
		now = time.Now
	}
	var epoch time.Time
	var t0 float64
	started := false
	return func(t float64) error {
		if !started {
			epoch, t0, started = now(), t, true
			return nil
		}
		elapsed := (t - t0) / dilate
		if elapsed <= 0 {
			return nil
		}
		target := epoch.Add(time.Duration(elapsed * float64(time.Second)))
		if d := target.Sub(now()); d > 0 {
			sleep(d)
		}
		return ctx.Err()
	}
}

// ContextSleep returns the pacer's default wait: a timer that ctx's
// cancellation cuts short, or a plain time.Sleep when ctx can never be
// canceled.
func ContextSleep(ctx context.Context) func(time.Duration) {
	done := ctx.Done()
	if done == nil {
		return time.Sleep
	}
	return func(d time.Duration) {
		tm := time.NewTimer(d)
		defer tm.Stop()
		select {
		case <-tm.C:
		case <-done:
		}
	}
}
