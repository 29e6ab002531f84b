package chaos

// Latency probe: a fault-free steady-state run of the pair campaign's
// world and writer that measures externally-visible response latency —
// the virtual time from a client's SET leaving its socket to the OK
// reply arriving back. This is the quantity the output-commit rule
// taxes: with release gated on epoch page-transfer commit the reply
// waits out the epoch tail (milliseconds); with release gated on
// log-segment commit (RecordReplay) it waits only for a tiny log
// segment to cross the replication link and be acknowledged
// (microseconds plus RTT).

import "nilicon/internal/simtime"

// LatencyResult is one probe's outcome. Latencies are in milliseconds
// of virtual time.
type LatencyResult struct {
	OptName string
	Sent    int
	Acked   int
	Epochs  uint64
	P50     float64
	P99     float64
	Mean    float64
	Max     float64
}

// RunLatency measures steady-state SET→OK response latency under
// cfg.Seed, cfg.Opts and cfg.OptName over cfg.Duration (default 2 s);
// the rest of cfg is ignored. No faults are injected and the lease
// stays off, as in the single-pair experiments; the run is a pure
// function of its inputs, so results are byte-stable.
func RunLatency(cfg Config) LatencyResult {
	cfg = Config{Seed: cfg.Seed, Opts: cfg.Opts, OptName: cfg.OptName, Duration: cfg.Duration, PreLease: true}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * simtime.Second
	}
	cfg.defaults()
	c := &campaign{cfg: cfg}
	c.build()
	c.repl.Start()
	c.startWriter()
	c.clock.RunUntil(simtime.Time(warmup + cfg.Duration + settleAfter))
	c.repl.Stop()

	return LatencyResult{
		OptName: cfg.OptName,
		Sent:    c.sent[0],
		Acked:   c.clients[0].oks,
		Epochs:  c.repl.Epochs(),
		P50:     c.latency.Percentile(50),
		P99:     c.latency.Percentile(99),
		Mean:    c.latency.Mean(),
		Max:     c.latency.Max(),
	}
}
