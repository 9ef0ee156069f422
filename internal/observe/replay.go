package observe

import (
	"context"
	"io"
	"time"

	"wantraffic/internal/stream"
	"wantraffic/internal/trace"
)

// Replay feeds a recorded or live trace (text or binary, connection
// or packet) into an Observatory at a controlled rate.
//
// Pacing is pure presentation: it delays *when* a record is folded,
// never *what* is folded, so the emitted event sequence is identical
// at every dilation factor (including 0, full speed). That property
// is what lets CI soak the observatory in ten wall seconds while a
// production deployment follows a trace in real time.

// ReplayOptions controls pacing and decoding.
type ReplayOptions struct {
	// Dilate is the replay speed multiplier: 1 replays at the
	// trace's own rate, 60 replays a minute of trace per wall
	// second, 0 (or negative) replays as fast as possible.
	Dilate float64
	// Sleep and Now are injectable for tests; nil selects time.Sleep
	// and time.Now.
	Sleep func(time.Duration)
	Now   func() time.Time
	// Decode configures the trace scanners (leniency, limits).
	Decode trace.DecodeOptions
	// Flush, when true, closes the final partial window at EOF so
	// short traces still emit a last verdict.
	Flush bool
}

// ReplayStats reports one replay's outcome.
type ReplayStats struct {
	Records int64             // records folded into the observatory
	Kind    trace.Kind        // what the header declared
	Decode  trace.DecodeStats // scanner accounting (skips under leniency)
}

// Replay streams the trace in r into o. It returns the decode error
// (nil at clean EOF) alongside the stats; records decoded before a
// mid-stream failure are already folded.
//
// Records are read one at a time and each is folded as soon as it
// decodes: a window's closing record must never wait for later
// records to arrive, or a verdict would lag the live stream it is
// about by however long a batch takes to fill.
func Replay(r io.Reader, o *Observatory, opts ReplayOptions) (ReplayStats, error) {
	src, err := stream.NewSource(r, opts.Decode)
	if err != nil {
		return ReplayStats{}, err
	}
	// The trace framing may carry a pipeline ID (wanload -pipeline-id);
	// adopting it lets the observatory's watermark set report
	// end-to-end freshness under the producer's identity.
	o.opt.Marks.SetPipeline(src.Header().PipelineID)
	st := ReplayStats{Kind: src.Header().Kind}
	pace := trace.NewPacer(context.Background(), opts.Dilate, opts.Sleep, opts.Now)
	var rec [1]stream.Obs
	for {
		n, err := src.Next(rec[:])
		if n > 0 {
			pace(rec[0].Time)
			o.observe(rec[0].Time, rec[0].Value, rec[0].Proto)
			st.Records++
		}
		if err != nil {
			st.Decode = src.Stats()
			if err != io.EOF {
				return st, err
			}
			if opts.Flush {
				o.Flush()
			}
			return st, nil
		}
	}
}
