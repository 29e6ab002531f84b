package main

import (
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
)

// valueSize is the SET payload of every synthesized trace (64 B values;
// the server still stores them in 1 KiB record slots).
const valueSize = 64

// poisson synthesizes an open-loop trace: Poisson arrivals at rate
// req/s over d, spread uniformly over clients connections, half GETs,
// uniform keys in [0, keys).
func poisson(seed int64, clients int, rate float64, d simtime.Duration, keys int) *traffic.Trace {
	tr := traffic.Synthesize(traffic.SynthConfig{
		Name:     "bench",
		Seed:     seed,
		Clients:  clients,
		Duration: d,
		Rate:     rate,
		Keys:     keys,
		ReadFrac: 0.5,
		Size:     valueSize,
	})
	var prev int64
	for i := range tr.Reqs {
		at := max(tr.Reqs[i].At, prev)
		at = prev + wrapSafeGap(at-prev)
		tr.Reqs[i].At, prev = at, at
	}
	return tr
}

// wrapSafeGap moves an inter-arrival gap out of the bands where the
// sharded engine's timing wheel never fires an event: scheduled from a
// cursor in level-l slot s, an event whose level-l slot number is
// exactly s+256 lands in the index of the slot being scanned, and the
// cascade re-inserts it there forever (README.md, "Defects"). The
// replayer schedules each arrival from the previous one, so the gap is
// the scheduling delay. Level 1 (~67 ms) is the band a 100 req/s stream
// hits; the shift is at most 0.3 ms and rare.
func wrapSafeGap(gap int64) int64 {
	const tick = 1 << 10 // ns, the wheel's level-0 slot
	for l := 1; l < 4; l++ {
		rev := int64(tick) << (8 * (l + 1)) // one level-l revolution, ns
		if gap >= rev-int64(tick)<<(8*l)-2*tick && gap < rev {
			return rev + tick
		}
	}
	return gap
}

// account adds one open-loop stream's requests due in [from, to) to the
// run's end-to-end samples; requests still unanswered at cap count as
// failed. It returns the stream's window.
func (r *run) account(ol *openLoop, from, to, cap simtime.Time) window {
	w := ol.window(from, to, cap)
	r.lat = append(r.lat, w.lat...)
	r.completions += int64(len(w.lat))
	r.attempted += w.attempted
	r.failed += w.missing + len(ol.errors) + ol.resets
	if len(ol.errors) > 0 {
		r.fail("%d client validation errors, first: %s", len(ol.errors), ol.errors[0])
	}
	if ol.resets > 0 {
		r.fail("%d client connection resets", ol.resets)
	}
	a := &r.layer
	a.completions += len(w.lat)
	a.outstanding += w.missing
	a.clientErrors += len(ol.errors)
	a.resets += ol.resets
	for _, c := range ol.conns {
		if c.sock != nil {
			a.retransmits += c.sock.Retransmits()
		}
	}
	return w
}

// finish evaluates the stream's SLO windows up to end (the judge's
// starved/violating windows are a per-layer count).
func (r *run) finish(id int, sc *simtime.ShardedClock, ol *openLoop, end simtime.Time) {
	var rep traffic.Report
	r.call(id, sc, "traffic.Finish", func() { rep = ol.judge.Finish(end) })
	r.layer.violations += rep.Violations
}
