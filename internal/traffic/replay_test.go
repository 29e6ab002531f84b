package traffic

import (
	"fmt"
	"strings"
	"testing"

	"nilicon/internal/simtime"
)

// fakeConn is a test transport: each Send completes after a fixed
// service delay (FIFO), or is held indefinitely while the conn is
// "down" and completes on heal — a brownout in miniature.
type fakeConn struct {
	clock  *simtime.Clock
	r      *Replayer
	client int
	delay  simtime.Duration
	down   bool
	held   int
}

func (f *fakeConn) Send(req Request) {
	if f.down {
		f.held++
		return
	}
	f.clock.Schedule(f.delay, func() { f.r.Completed(f.client) })
}

func (f *fakeConn) heal() {
	f.down = false
	for i := 0; i < f.held; i++ {
		f.clock.Schedule(f.delay, func() { f.r.Completed(f.client) })
	}
	f.held = 0
}

func synthSmall(t *testing.T, slow bool) *Trace {
	t.Helper()
	cfg := SynthConfig{Seed: 3, Clients: 4, Duration: simtime.Second, Rate: 400, Keys: 32}
	if slow {
		// Per-client arrival rate (300/s) exceeds a slow client's service
		// capacity (cap 1 in flight × 5 ms service = 200/s), so the
		// client-side queue must grow through the trace.
		cfg.SlowFrac = 0.5
		cfg.Rate = 1200
	}
	return Synthesize(cfg)
}

func TestReplayOpenLoopAndJudge(t *testing.T) {
	tr := synthSmall(t, false)
	clock := simtime.NewClock()
	judge := NewJudge(SLO{Window: 100 * simtime.Millisecond, Target: 50 * simtime.Millisecond})
	r := NewReplayer(clock, tr, judge)
	conns := make([]*fakeConn, tr.Header.Clients)
	for i := range conns {
		conns[i] = &fakeConn{clock: clock, r: r, client: i, delay: simtime.Millisecond}
		r.SetConn(i, conns[i])
	}
	start := clock.Now().Add(10 * simtime.Millisecond)
	clock.ScheduleAt(start, func() {})
	r.Start(start)

	// Outage: all conns down 300–600 ms into the trace. Open-loop
	// arrivals keep firing, so the wire backlog builds for real.
	clock.ScheduleAt(start.Add(300*simtime.Millisecond), func() {
		for _, c := range conns {
			c.down = true
		}
	})
	var backlogAtHeal int
	clock.ScheduleAt(start.Add(600*simtime.Millisecond), func() {
		backlogAtHeal = r.Outstanding()
		for _, c := range conns {
			c.heal()
		}
	})
	clock.RunUntil(start.Add(2 * simtime.Second))

	if r.Outstanding() != 0 {
		t.Fatalf("outstanding = %d after drain", r.Outstanding())
	}
	if backlogAtHeal < 50 {
		t.Fatalf("open-loop backlog at heal = %d, want a real queue", backlogAtHeal)
	}
	rep := judge.Finish(clock.Now())
	if rep.Completions != rep.Arrivals || rep.Outstanding != 0 {
		t.Fatalf("report accounting: %+v", rep)
	}
	if r.Issued() != len(tr.Reqs) {
		t.Fatalf("issued %d, want the trace's %d records", r.Issued(), len(tr.Reqs))
	}
	if rep.Violations == 0 {
		t.Fatalf("no SLO violations through a 300ms outage")
	}
	// Violations must sit inside the outage ± a drain margin, not in the
	// healthy head or tail of the run.
	for _, sp := range rep.ViolationSpans() {
		if sp[1] <= 300*simtime.Millisecond || sp[0] >= 700*simtime.Millisecond {
			t.Fatalf("violation span %v outside outage", sp)
		}
	}
	if !strings.Contains(rep.Line(), "limiting=") {
		t.Fatalf("Line() = %q", rep.Line())
	}
}

func TestReplaySlowClientBackpressure(t *testing.T) {
	tr := synthSmall(t, true)
	clock := simtime.NewClock()
	judge := NewJudge(SLO{Window: 100 * simtime.Millisecond, Target: 20 * simtime.Millisecond})
	r := NewReplayer(clock, tr, judge)
	for i := 0; i < tr.Header.Clients; i++ {
		// Slow service (5 ms) + in-flight cap of 1 on half the clients:
		// their per-client arrival rate ×5 ms exceeds capacity, so the
		// client-side queue must grow.
		r.SetConn(i, &fakeConn{clock: clock, r: r, client: i, delay: 5 * simtime.Millisecond})
	}
	r.Start(clock.Now())
	sawQueue := 0
	tick := simtime.NewTicker(clock, simtime.Millisecond, func() {
		if q := r.QueuedClientSide(); q > sawQueue {
			sawQueue = q
		}
		judge.Sample(clock.Now(), Factors{ClientQueue: r.QueuedClientSide() > 0})
	})
	clock.RunUntil(simtime.Time(3 * simtime.Second))
	tick.Stop()
	if sawQueue == 0 {
		t.Fatalf("slow clients never queued")
	}
	rep := judge.Finish(clock.Now())
	if rep.Violations == 0 {
		t.Fatalf("backpressure produced no violation windows")
	}
	if rep.Limiting != "client-queueing" {
		t.Fatalf("limiting = %q, want client-queueing\n%s", rep.Limiting, rep.AttributionLine())
	}
}

// Determinism: replaying the same trace twice produces identical
// reports (rendered lines compared byte-for-byte).
func TestReplayDeterministic(t *testing.T) {
	run := func() string {
		tr := synthSmall(t, true)
		clock := simtime.NewClock()
		judge := NewJudge(SLO{})
		r := NewReplayer(clock, tr, judge)
		for i := 0; i < tr.Header.Clients; i++ {
			r.SetConn(i, &fakeConn{clock: clock, r: r, client: i, delay: 2 * simtime.Millisecond})
		}
		r.Start(clock.Now())
		clock.RunUntil(simtime.Time(3 * simtime.Second))
		rep := judge.Finish(clock.Now())
		return rep.Line() + "\n" + rep.AttributionLine()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replay reports differ:\n%s\n%s", a, b)
	}
}

// TestReplayerMisuse: a replayer started twice, started before every
// client has a transport, or told of a completion nothing was waiting
// for is a bug in its caller, and it panics rather than skew the judge.
func TestReplayerMisuse(t *testing.T) {
	mustPanic := func(what, want string, fn func()) {
		t.Helper()
		defer func() {
			if p := recover(); p == nil || !strings.Contains(fmt.Sprint(p), want) {
				t.Errorf("%s: panic %v, want one containing %q", what, p, want)
			}
		}()
		fn()
	}
	tr := synthSmall(t, false)
	clock := simtime.NewClock()
	r := NewReplayer(clock, tr, nil)
	mustPanic("unset conn", "unset client conn", func() { r.Start(0) })
	for i := 0; i < tr.Header.Clients; i++ {
		r.SetConn(i, &fakeConn{clock: clock, r: r, client: i, delay: simtime.Millisecond})
	}
	mustPanic("spurious completion", "no in-flight request", func() { r.Completed(0) })
	r.Start(0)
	mustPanic("second start", "started twice", func() { r.Start(0) })
}
