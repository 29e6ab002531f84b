package traffic

import (
	"fmt"
	"math"
	"math/rand"

	"nilicon/internal/simtime"
)

// SynthConfig parameterizes a synthesized trace. The zero value of every
// field selects a sane default (flat Poisson arrivals, uniform keys); a
// trace is a pure function of the full config, so two calls with the
// same config yield byte-identical traces.
type SynthConfig struct {
	Name string
	Seed int64
	// Clients is the number of client connections. Default 32.
	Clients int
	// Duration is the trace length in virtual time. Default 2 s.
	Duration simtime.Duration
	// Rate is the mean request rate across all clients, req/s. Default 1000.
	Rate float64

	// Arrival selects the inter-arrival distribution: "poisson"
	// (default) or "pareto" (heavy-tailed: bounded Pareto, so a few long
	// gaps separate dense request trains).
	Arrival string
	// ParetoAlpha is the Pareto tail index (must exceed 1 for a finite
	// mean). Default 1.5.
	ParetoAlpha float64

	// KeyDist selects the key popularity: "uniform" (default) or "zipf"
	// (hot-key skew via math/rand's bounded Zipf).
	KeyDist string
	// Keys is the keyspace size. Default 512.
	Keys int
	// ZipfS is the Zipf skew exponent (> 1). Default 1.2.
	ZipfS float64

	// ReadFrac is the fraction of requests that are gets. Default 0.5.
	ReadFrac float64
	// Size is the set value payload size in bytes. Default 64.
	Size int

	// Envelope modulates the instantaneous rate over the trace:
	// "flat" (default), "burst" (Rate × BurstX during periodic burst
	// windows), or "diurnal" (a half-sine ramp peaking mid-trace,
	// a compressed day).
	Envelope string
	// BurstEvery/BurstLen/BurstX shape the burst envelope.
	// Defaults: every 500 ms, 100 ms long, ×4.
	BurstEvery simtime.Duration
	BurstLen   simtime.Duration
	BurstX     float64

	// FanoutFrac is the fraction of requests carrying a dependency
	// fanout of 1..FanoutMax follow-ups. Defaults 0 and 3.
	FanoutFrac float64
	FanoutMax  int

	// SlowFrac marks the first ceil(SlowFrac × Clients) client indices
	// as slow drainers (Header.SlowClients): the replayer caps their
	// in-flight requests so open-loop arrivals queue client-side.
	// Default 0.
	SlowFrac float64
}

func (c SynthConfig) withDefaults() SynthConfig {
	if c.Name == "" {
		c.Name = "synth"
	}
	if c.Clients <= 0 {
		c.Clients = 32
	}
	if c.Duration <= 0 {
		c.Duration = 2 * simtime.Second
	}
	if c.Rate <= 0 {
		c.Rate = 1000
	}
	if c.Arrival == "" {
		c.Arrival = "poisson"
	}
	if c.ParetoAlpha <= 1 {
		c.ParetoAlpha = 1.5
	}
	if c.KeyDist == "" {
		c.KeyDist = "uniform"
	}
	if c.Keys <= 0 {
		c.Keys = 512
	}
	if c.ZipfS <= 1 {
		c.ZipfS = 1.2
	}
	if c.ReadFrac < 0 || c.ReadFrac > 1 {
		c.ReadFrac = 0.5
	}
	if c.Size <= 0 {
		c.Size = 64
	}
	if c.Envelope == "" {
		c.Envelope = "flat"
	}
	if c.BurstEvery <= 0 {
		c.BurstEvery = 500 * simtime.Millisecond
	}
	if c.BurstLen <= 0 || c.BurstLen >= c.BurstEvery {
		c.BurstLen = 100 * simtime.Millisecond
	}
	if c.BurstX <= 0 {
		c.BurstX = 4
	}
	if c.FanoutMax <= 0 {
		c.FanoutMax = 3
	}
	return c
}

// Profiles returns the named synthesis presets the CLI exposes: the
// three-step SLO ladder plus the backpressure shape.
func Profiles() []string { return []string{"uniform", "zipf", "burst", "slowclient"} }

// Profile returns the preset SynthConfig for a named profile.
func Profile(name string, seed int64) (SynthConfig, error) {
	cfg := SynthConfig{Name: name, Seed: seed}
	switch name {
	case "uniform":
		// Flat Poisson arrivals over a uniform keyspace: the baseline the
		// legacy fixed-interval kv writer approximated.
	case "zipf":
		cfg.KeyDist = "zipf"
		cfg.Arrival = "pareto"
	case "burst":
		cfg.Envelope = "burst"
	case "slowclient":
		cfg.SlowFrac = 0.25
	default:
		return cfg, fmt.Errorf("traffic: unknown profile %q (have %v)", name, Profiles())
	}
	return cfg, nil
}

// Synthesize generates a trace from seeded distributions. All
// randomness comes from one simtime.NewRand(cfg.Seed) stream with a
// fixed draw order per request, so the result is byte-identical for a
// given config.
func Synthesize(cfg SynthConfig) *Trace {
	cfg = cfg.withDefaults()
	rng := simtime.NewRand(cfg.Seed)
	var zipf *rand.Zipf
	if cfg.KeyDist == "zipf" {
		zipf = rand.NewZipf(rng, cfg.ZipfS, 1, uint64(cfg.Keys-1))
	}

	tr := &Trace{Header: Header{
		Version: TraceVersion,
		Name:    cfg.Name,
		Seed:    cfg.Seed,
		Clients: cfg.Clients,
		Keys:    cfg.Keys,
	}}
	if cfg.SlowFrac > 0 {
		n := int(math.Ceil(cfg.SlowFrac * float64(cfg.Clients)))
		if n > cfg.Clients {
			n = cfg.Clients
		}
		for i := 0; i < n; i++ {
			tr.Header.SlowClients = append(tr.Header.SlowClients, i)
		}
	}

	meanGap := 1 / cfg.Rate // seconds
	// Bounded Pareto scale: xm = mean·(α−1)/α gives the unbounded
	// Pareto the configured mean; the 100×mean cap keeps a single draw
	// from swallowing the whole trace.
	xm := meanGap * (cfg.ParetoAlpha - 1) / cfg.ParetoAlpha
	t := 0.0 // seconds
	dur := cfg.Duration.Seconds()
	var id uint64
	for {
		var gap float64
		switch cfg.Arrival {
		case "pareto":
			gap = xm * math.Pow(1-rng.Float64(), -1/cfg.ParetoAlpha)
			if gap > 100*meanGap {
				gap = 100 * meanGap
			}
		default: // poisson
			gap = rng.ExpFloat64() * meanGap
		}
		// The envelope scales the instantaneous rate, so it divides the
		// inter-arrival gap.
		t += gap / cfg.envelope(t, dur)
		if t >= dur {
			break
		}
		id++
		req := Request{
			ID:     id,
			At:     int64(t * float64(simtime.Second)),
			Client: rng.Intn(cfg.Clients),
			Size:   cfg.Size,
		}
		if rng.Float64() < cfg.ReadFrac {
			req.Op = OpGet
		} else {
			req.Op = OpSet
		}
		if zipf != nil {
			req.Key = zipf.Uint64()
		} else {
			req.Key = uint64(rng.Intn(cfg.Keys))
		}
		if cfg.FanoutFrac > 0 && rng.Float64() < cfg.FanoutFrac {
			req.Fanout = 1 + rng.Intn(cfg.FanoutMax)
		}
		tr.Reqs = append(tr.Reqs, req)
	}
	return tr
}

// envelope returns the instantaneous rate multiplier at time t (s).
func (c SynthConfig) envelope(t, dur float64) float64 {
	switch c.Envelope {
	case "burst":
		if math.Mod(t, c.BurstEvery.Seconds()) < c.BurstLen.Seconds() {
			return c.BurstX
		}
		return 1
	case "diurnal":
		// Half-sine ramp: 0.5× at the edges, 1.5× at the trace midpoint.
		return 0.5 + math.Sin(math.Pi*t/dur)
	default:
		return 1
	}
}
