package traffic

import (
	"fmt"
	"strings"

	"nilicon/internal/metrics"
	"nilicon/internal/simtime"
)

// SLO is a windowed latency objective: within every Window, the
// Quantile of client-observed latency must stay under Target.
type SLO struct {
	// Window is the evaluation window. Default 100 ms.
	Window simtime.Duration
	// Quantile is the judged percentile. Default 99.9.
	Quantile float64
	// Target is the latency bound. Default 100 ms.
	Target simtime.Duration
}

// WithDefaults returns the SLO with zero fields replaced by defaults.
func (s SLO) WithDefaults() SLO { return s.withDefaults() }

func (s SLO) withDefaults() SLO {
	if s.Window <= 0 {
		s.Window = 100 * simtime.Millisecond
	}
	if s.Quantile <= 0 || s.Quantile > 100 {
		s.Quantile = 99.9
	}
	if s.Target <= 0 {
		s.Target = 100 * simtime.Millisecond
	}
	return s
}

// Factors is one sample of the candidate limiting factors, observed by
// the campaign's oracle ticker and attributed to the current window.
// Each flag is a boolean "this mechanism was throttling client-visible
// output at this instant" signal; the judge accumulates them per window
// and reports each factor's share of the violation windows' samples.
type Factors struct {
	// CheckpointStall: the serving container is frozen in a checkpoint
	// stop phase.
	CheckpointStall bool
	// TransferBacklog: the replication link has a deep queued-byte
	// backlog, delaying the epoch/segment commit that gates release.
	TransferBacklog bool
	// Fence: the output-release gate is held — the primary is
	// lease-fenced, or no replica is serving (failover in progress).
	Fence bool
	// ReplayCPU: a promoted backup is re-executing the committed
	// nondeterminism-log suffix (HyCoR-mode recovery).
	ReplayCPU bool
	// ClientQueue: slow-client backpressure — requests are queued
	// client-side behind the in-flight cap.
	ClientQueue bool
}

// Factor display order; also the tie-break priority for the limiting
// factor line.
var factorNames = [...]string{"checkpoint-stall", "transfer-backlog", "fence", "replay-cpu", "client-queueing"}

const numFactors = len(factorNames)

func (f Factors) vec() [numFactors]bool {
	return [numFactors]bool{f.CheckpointStall, f.TransferBacklog, f.Fence, f.ReplayCPU, f.ClientQueue}
}

// window accumulates one SLO window's evidence.
type window struct {
	hist        metrics.Histogram
	arrivals    int
	completions int
	factor      [numFactors]int
	samples     int
}

// Judge evaluates client-observed latency against an SLO in fixed
// windows of virtual time. Arrivals and completions are reported by the
// replayer; factor samples by the campaign's oracle ticker. All state
// is indexed by virtual time, so a judged run is deterministic.
type Judge struct {
	slo     SLO
	start   simtime.Time
	started bool
	windows []*window
	total   metrics.Histogram

	arrivals    int
	completions int
}

// NewJudge creates a judge with defaulted SLO fields.
func NewJudge(slo SLO) *Judge { return &Judge{slo: slo.withDefaults()} }

// SLO returns the (defaulted) objective being judged.
func (j *Judge) SLO() SLO { return j.slo }

// Arrivals and Completions report the running totals.
func (j *Judge) Arrivals() int    { return j.arrivals }
func (j *Judge) Completions() int { return j.completions }

// Start anchors window 0 at t. Events before Start are attributed to
// window 0.
func (j *Judge) Start(t simtime.Time) {
	j.start = t
	j.started = true
}

func (j *Judge) win(t simtime.Time) *window {
	idx := 0
	if j.started && t > j.start {
		idx = int(int64(t-j.start) / int64(j.slo.Window))
	}
	for len(j.windows) <= idx {
		j.windows = append(j.windows, &window{})
	}
	return j.windows[idx]
}

// Arrived records one open-loop arrival at t.
func (j *Judge) Arrived(t simtime.Time) {
	j.arrivals++
	j.win(t).arrivals++
}

// Completed records a request that arrived at arrival and completed at
// done. The latency lands in the window of completion — that is when
// the client observes it.
func (j *Judge) Completed(arrival, done simtime.Time) {
	ms := done.Sub(arrival).Seconds() * 1000
	j.completions++
	w := j.win(done)
	w.completions++
	w.hist.Add(ms)
	j.total.Add(ms)
}

// Sample attributes one limiting-factor observation at t to its window.
func (j *Judge) Sample(t simtime.Time, f Factors) {
	w := j.win(t)
	w.samples++
	for i, on := range f.vec() {
		if on {
			w.factor[i]++
		}
	}
}

// WindowStat is one evaluated window in a Report.
type WindowStat struct {
	Index          int
	Start          simtime.Duration // relative to Judge.Start
	Arrivals       int
	Completions    int
	P50, P99, P999 float64 // ms
	// Violation: the judged quantile exceeded the target, or the window
	// was starved (see Report).
	Violation bool
	// Starved: no completions while requests were outstanding long past
	// the target — the client observed silence, not latency.
	Starved bool
}

// Report is a finished SLO evaluation.
type Report struct {
	SLO                 SLO
	Windows             []WindowStat
	TotalWindows        int
	Violations          int
	Arrivals            int
	Completions         int
	Outstanding         int     // arrivals never completed by the end of the run
	P50, P99, P999, Max float64 // overall, ms
	WorstP999           float64
	WorstWindow         int
	// Shares[i] is the fraction of violation-window factor samples with
	// factor i active; Limiting names the largest (ties broken by
	// factorNames order), or "unattributed" if no factor was ever seen
	// in a violation window, or "none" with zero violations.
	Shares   [numFactors]float64
	Limiting string
}

// Finish evaluates all windows up to end and returns the report.
//
// A window violates the SLO if its judged quantile exceeds the target,
// or if it is starved: zero completions while arrivals remain
// outstanding and nothing has completed for longer than the target —
// the windows inside an outage where clients observe no responses at
// all, which a pure completion-quantile judge would miss.
func (j *Judge) Finish(end simtime.Time) Report {
	_ = j.win(end) // materialize trailing silent windows
	rep := Report{
		SLO:          j.slo,
		TotalWindows: len(j.windows),
		Windows:      make([]WindowStat, 0, len(j.windows)),
		Arrivals:     j.arrivals,
		Completions:  j.completions,
		Outstanding:  j.arrivals - j.completions,
		P50:          j.total.Quantile(50),
		P99:          j.total.Quantile(99),
		P999:         j.total.Quantile(99.9),
		Max:          j.total.Max(),
		WorstWindow:  -1,
	}
	targetMs := j.slo.Target.Seconds() * 1000
	cumArr, cumDone := 0, 0
	// lastDone is the end of the most recent window with a completion;
	// starvation is measured from there.
	lastDone := simtime.Duration(0)
	var violSamples int
	var violFactor [numFactors]int
	for i, w := range j.windows {
		cumArr += w.arrivals
		cumDone += w.completions
		ws := WindowStat{
			Index:       i,
			Start:       simtime.Duration(i) * j.slo.Window,
			Arrivals:    w.arrivals,
			Completions: w.completions,
		}
		wEnd := ws.Start + j.slo.Window
		if w.completions > 0 {
			ws.P50 = w.hist.Quantile(50)
			ws.P99 = w.hist.Quantile(99)
			ws.P999 = w.hist.Quantile(j.slo.Quantile)
			ws.Violation = ws.P999 > targetMs
			lastDone = wEnd
			if ws.P999 > rep.WorstP999 {
				rep.WorstP999 = ws.P999
				rep.WorstWindow = i
			}
		} else if cumArr > cumDone && (wEnd-lastDone).Seconds()*1000 > targetMs {
			ws.Starved = true
			ws.Violation = true
		}
		if ws.Violation {
			rep.Violations++
			violSamples += w.samples
			for k := 0; k < numFactors; k++ {
				violFactor[k] += w.factor[k]
			}
		}
		rep.Windows = append(rep.Windows, ws)
	}
	switch {
	case rep.Violations == 0:
		rep.Limiting = "none"
	case violSamples == 0:
		rep.Limiting = "unattributed"
	default:
		best := -1
		for k := 0; k < numFactors; k++ {
			rep.Shares[k] = float64(violFactor[k]) / float64(violSamples)
			if violFactor[k] > 0 && (best < 0 || violFactor[k] > violFactor[best]) {
				best = k
			}
		}
		if best < 0 {
			rep.Limiting = "unattributed"
		} else {
			rep.Limiting = factorNames[best]
		}
	}
	return rep
}

// ViolationSpans returns the violation windows merged into contiguous
// [from, to) spans relative to Judge.Start.
func (r *Report) ViolationSpans() [][2]simtime.Duration {
	var spans [][2]simtime.Duration
	for _, w := range r.Windows {
		if !w.Violation {
			continue
		}
		end := w.Start + r.SLO.Window
		if n := len(spans); n > 0 && spans[n-1][1] == w.Start {
			spans[n-1][1] = end
		} else {
			spans = append(spans, [2]simtime.Duration{w.Start, end})
		}
	}
	return spans
}

// Line renders the report as one deterministic trace line.
func (r *Report) Line() string {
	var b strings.Builder
	fmt.Fprintf(&b, "slo windows=%d violations=%d arrivals=%d completions=%d outstanding=%d",
		r.TotalWindows, r.Violations, r.Arrivals, r.Completions, r.Outstanding)
	fmt.Fprintf(&b, " p50=%.2fms p99=%.2fms p%v=%.2fms max=%.2fms", r.P50, r.P99, r.SLO.Quantile, r.P999, r.Max)
	if r.WorstWindow >= 0 {
		fmt.Fprintf(&b, " worst=%.2fms@w%d", r.WorstP999, r.WorstWindow)
	}
	for _, sp := range r.ViolationSpans() {
		fmt.Fprintf(&b, " viol=[%dms,%dms)", int64(sp[0]/simtime.Millisecond), int64(sp[1]/simtime.Millisecond))
	}
	fmt.Fprintf(&b, " limiting=%s", r.Limiting)
	return b.String()
}

// AttributionLine renders the per-factor shares as one deterministic
// trace line — the "limiting factor" breakdown for the run.
func (r *Report) AttributionLine() string {
	var b strings.Builder
	fmt.Fprintf(&b, "slo-attribution limiting=%s", r.Limiting)
	for k, name := range factorNames {
		fmt.Fprintf(&b, " %s=%.2f", name, r.Shares[k])
	}
	return b.String()
}
