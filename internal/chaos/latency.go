package chaos

// Latency probe: a fault-free steady-state run of the kv
// workload that measures externally-visible response latency — the
// virtual time from a client's SET leaving its socket to the OK reply
// arriving back. This is the quantity the output-commit rule taxes:
// with release gated on epoch page-transfer commit the reply waits out
// the epoch tail (milliseconds); with release gated on log-segment
// commit (RecordReplay) it waits only for a tiny log segment to cross
// the replication link and be acknowledged (microseconds plus RTT).

import (
	"fmt"

	"nilicon/internal/core"
	"nilicon/internal/metrics"
	"nilicon/internal/simtime"
)

// LatencyConfig parameterizes one latency probe run.
type LatencyConfig struct {
	Seed    int64
	Opts    core.OptSet
	OptName string
	// Duration is the measured window after warmup. Default 2 s.
	Duration simtime.Duration
}

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

// RunLatency measures steady-state SET→OK response latency under one
// configuration. No faults are injected; the run is a pure function of
// (seed, options), so results are byte-stable.
func RunLatency(cfg LatencyConfig) LatencyResult {
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * simtime.Second
	}

	sc := simtime.NewShardedClock(1)
	clock := sc.Root()
	cl := core.NewShardedCluster(sc, core.ClusterParams{})
	ctr := cl.NewProtectedContainer("latency", "10.0.0.10", 1)
	app := newKVApp(ctr)

	rcfg := core.DefaultConfig()
	rcfg.Opts = cfg.Opts
	rcfg.Reattach = func(rc core.RestoredContainer, state any) {
		app.RestoreState(state)
		app.attach(rc)
	}
	repl := core.NewReplicator(cl, ctr, rcfg)
	repl.Start()

	var cli *kvClient
	var lat metrics.Stream
	var sendTimes []simtime.Time
	ackIdx := 0
	clock.Schedule(simtime.Millisecond, func() {
		cli = newKVClient(cl, "10.0.0.1", "10.0.0.10")
		cli.onReply = func(reply string) {
			if reply != "OK" || ackIdx >= len(sendTimes) {
				return
			}
			lat.Add(clock.Now().Sub(sendTimes[ackIdx]).Seconds() * 1000)
			ackIdx++
		}
	})

	// Writer: one unique SET every 10 ms, timestamped at send.
	sent := 0
	writeUntil := warmup + cfg.Duration
	var writer *simtime.Ticker
	clock.Schedule(warmup, func() {
		writer = simtime.NewTicker(clock, writeEvery, func() {
			if simtime.Duration(clock.Now()) >= writeUntil {
				writer.Stop()
				return
			}
			if cli.sock == nil {
				return
			}
			sendTimes = append(sendTimes, clock.Now())
			cli.send(fmt.Sprintf("SET k%d v%d", sent, sent))
			sent++
		})
	})

	clock.RunUntil(simtime.Time(writeUntil + settleAfter))
	repl.Stop()

	return LatencyResult{
		OptName: cfg.OptName,
		Sent:    sent,
		Acked:   ackIdx,
		Epochs:  repl.Epochs(),
		P50:     lat.Percentile(50),
		P99:     lat.Percentile(99),
		Mean:    lat.Mean(),
		Max:     lat.Max(),
	}
}
