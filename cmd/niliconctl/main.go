// Command niliconctl runs the NiLiCon reproduction experiments and
// prints the paper's tables and figures.
//
// Usage:
//
//	niliconctl <experiment> [flags]
//
// Experiments:
//
//	table1         Optimization ladder (streamcluster)
//	table2         Recovery latency breakdown (Net, Redis)
//	fig3           Overhead comparison MC vs NiLiCon (also prints
//	               Tables III, IV and V from the same runs)
//	table6         Single-client response latency
//	validate       §VII-A fault-injection validation
//	pipeline       Epoch-pipeline transfer-mode ablation (streamcluster)
//	chaos          Seeded deterministic fault campaign on one
//	               primary/backup pair with invariant oracles (-sweep
//	               for the full matrix, including the fleet scenarios)
//	fleet          Fleet campaign: -pairs containers over -hosts workers
//	               (+ -spares), -kills concurrent host failures, all
//	               oracles verified (-smoke for the reduced CI shape;
//	               -replicas N>2 places f+1 chains zone-anti-affine over
//	               -zones failure domains and kills a whole zone; the
//	               fleet control plane is the one arbiter that promotes
//	               a chain's replica, so chains wider than a pair run
//	               only here)
//	traffic        Trace tooling (DESIGN.md §14): -synth <profile> writes
//	               a synthesized JSONL trace to stdout, -capture <bench>
//	               records a uniform client run into a trace, -replay
//	               reads a trace from stdin and replays it through a
//	               chaos campaign with windowed SLO judging (-smoke for
//	               the clean fault-free CI shape)
//	scale-threads  Streamcluster 1..32 threads
//	scale-clients  Lighttpd 2..128 clients
//	scale-procs    Lighttpd 1..8 processes
//	report         Paper-vs-measured comparison of every experiment
//	               (the run log in EXPERIMENTS.md)
//	timeline       Per-epoch CSV time series of one replicated run
//	               (-bench picks the benchmark)
//
// The chaos and fleet campaigns run with output-commit lease arbitration
// on; -degrade selects the lease degradation policy (strict keeps a
// primary that lost its backup fenced, availability lets it declare the
// pair unprotected and serve without acks until re-protection).
//
// The -opts flag names the option set of every experiment that runs a
// replicator (timeline, validate, fig3, chaos, fleet, ...): basic,
// stop-and-copy, all (the default), pipelined (the overlapped state
// transfer), delta (the delta-compressed replication stream, DESIGN.md
// §8) or replay (HyCoR-mode record/replay, DESIGN.md §12). table1 and
// pipeline pin their own option set per row and ignore it. An unknown
// name is a usage error.
//
// The -j flag runs sweep-style experiments (chaos -sweep, table1,
// pipeline) on a worker pool; every seeded run stays single-threaded
// and results are collected in a fixed order, so output is
// byte-identical for any -j value.
//
// All experiments run in virtual time and are fully deterministic for a
// given -seed. The re-runnable benchmark of the simulated system and
// the simulator lives in bench/ (bash bench/run.sh).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"nilicon/internal/chaos"
	"nilicon/internal/core"
	"nilicon/internal/harness"
	"nilicon/internal/report"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
	"nilicon/internal/workloads"
)

func main() {
	os.Exit(newApp(os.Stdout, os.Stderr).run(os.Args[1:]))
}

// app is one niliconctl invocation: its flag set, parsed values and
// output streams. Building a fresh app per invocation (instead of
// package-level flag globals) keeps runs independently testable and
// lets parse and validation errors return instead of os.Exit-ing from
// inside the flag package.
type app struct {
	fs     *flag.FlagSet
	stdout io.Writer
	stderr io.Writer
	stdin  io.Reader

	seed     *int64
	warmup   *time.Duration
	measure  *time.Duration
	runs     *int
	bench    *string
	runLen   *time.Duration
	jobs     *int
	seeds    *int
	optsName *string
	sweep    *bool
	chaosDur *time.Duration
	pairs    *int
	hosts    *int
	spares   *int
	kills    *int
	replicas *int
	zones    *int
	smoke    *bool
	degrade  *string
	synth    *string
	capture  *string
	replay   *bool
	traceF   *string
	tClients *int
	tRate    *float64
	tDur     *time.Duration
	cpuprof  *string
	memprof  *string

	opts       core.OptSet
	degradePol core.DegradePolicy
	cpuprofF   *os.File
}

func newApp(stdout, stderr io.Writer) *app {
	a := &app{stdout: stdout, stderr: stderr, stdin: os.Stdin}
	fs := flag.NewFlagSet("niliconctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	a.fs = fs
	a.seed = fs.Int64("seed", 1, "deterministic simulation seed")
	a.warmup = fs.Duration("warmup", time.Second, "virtual warmup before measurement")
	a.measure = fs.Duration("measure", 3*time.Second, "virtual measurement window")
	a.runs = fs.Int("runs", 5, "validation runs per benchmark")
	a.bench = fs.String("bench", "redis", "benchmark for the timeline command")
	a.runLen = fs.Duration("runlen", 20*time.Second, "validation run length (paper: 60s, 50 runs)")
	a.jobs = fs.Int("j", 1, "worker-pool width for sweep experiments (output is identical for any value)")
	a.seeds = fs.Int("seeds", 20, "chaos: campaigns per matrix entry in sweep mode")
	a.optsName = fs.String("opts", "all", "option set of every experiment that runs a replicator ("+optSetNames()+"); table1 and pipeline pin their own")
	a.sweep = fs.Bool("sweep", false, "chaos: run the full matrix sweep instead of one campaign")
	a.chaosDur = fs.Duration("chaos-duration", 1500*time.Millisecond, "chaos/fleet: fault-injection window (virtual)")
	a.pairs = fs.Int("pairs", 8, "fleet: protected container pairs")
	a.hosts = fs.Int("hosts", 4, "fleet: worker hosts in the pool")
	a.spares = fs.Int("spares", 2, "fleet: spare hosts for re-protection")
	a.kills = fs.Int("kills", 2, "fleet: concurrent host failures to inject")
	a.replicas = fs.Int("replicas", 2, "fleet: chain width, primary + N-1 backup replicas (>2 places f+1 chains and kills a whole zone; chaos runs a pair and takes only 2)")
	a.zones = fs.Int("zones", 0, "fleet: failure domains for zone-anti-affine chain placement (0 = auto: max(replicas, 1))")
	a.smoke = fs.Bool("smoke", false, "fleet: reduced CI shape (4 pairs, 4 hosts, 1 kill, short window)")
	a.degrade = fs.String("degrade", "strict", "chaos/fleet: lease degradation policy (strict|availability)")
	a.synth = fs.String("synth", "", "traffic: synthesize a trace from this profile (uniform|zipf|burst|slowclient) to stdout")
	a.capture = fs.String("capture", "", "traffic: run this server benchmark's uniform clients under capture and write the recorded trace to stdout")
	a.replay = fs.Bool("replay", false, "traffic: read a JSONL trace from stdin and replay it through a chaos campaign with SLO judging")
	a.traceF = fs.String("traffic", "", "chaos: replay this JSONL trace file as the campaign's client workload (replaces the fixed-interval writer trace)")
	a.tClients = fs.Int("clients", 8, "traffic: client connections for -synth/-capture")
	a.tRate = fs.Float64("rate", 600, "traffic -synth: mean arrival rate (req/s)")
	a.tDur = fs.Duration("traffic-duration", 2500*time.Millisecond, "traffic: trace length for -synth, run length for -capture (virtual)")
	a.cpuprof = fs.String("cpuprofile", "", "write a CPU profile to this file (pprof format)")
	a.memprof = fs.String("memprofile", "", "write a heap profile to this file at exit (pprof format)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: niliconctl <table1|table2|fig3|table6|validate|pipeline|chaos|fleet|traffic|scale-threads|scale-clients|scale-procs|report|timeline> [flags]\n")
		fs.PrintDefaults()
	}
	return a
}

// run parses and validates one invocation and dispatches it. It returns
// the process exit code: 0 on success, 2 for usage errors (unknown
// experiment, unparseable or out-of-range flag values), 1 for
// experiment failures.
func (a *app) run(args []string) int {
	if len(args) < 1 {
		a.fs.Usage()
		return 2
	}
	cmd := args[0]
	if !knownCommand(cmd) {
		fmt.Fprintf(a.stderr, "niliconctl: unknown experiment %q\n", cmd)
		a.fs.Usage()
		return 2
	}
	if err := a.fs.Parse(args[1:]); err != nil {
		// The flag package already printed the one-line error (and usage)
		// to a.stderr.
		return 2
	}
	if err := a.validate(cmd); err != nil {
		fmt.Fprintf(a.stderr, "niliconctl: %v\n", err)
		return 2
	}

	if err := a.startProfiles(); err != nil {
		fmt.Fprintf(a.stderr, "niliconctl: %v\n", err)
		return 2
	}
	defer a.stopProfiles()

	if err := a.runCommand(cmd); err != nil {
		fmt.Fprintf(a.stderr, "niliconctl %s: %v\n", cmd, err)
		return 1
	}
	return 0
}

// startProfiles begins CPU profiling and arms the heap snapshot when
// the -cpuprofile/-memprofile flags are set. Valid on any experiment.
func (a *app) startProfiles() error {
	if *a.cpuprof != "" {
		f, err := os.Create(*a.cpuprof)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %v", err)
		}
		a.cpuprofF = f
	}
	return nil
}

func (a *app) stopProfiles() {
	if a.cpuprofF != nil {
		pprof.StopCPUProfile()
		a.cpuprofF.Close()
		a.cpuprofF = nil
	}
	if *a.memprof != "" {
		f, err := os.Create(*a.memprof)
		if err != nil {
			fmt.Fprintf(a.stderr, "niliconctl: -memprofile: %v\n", err)
			return
		}
		defer f.Close()
		runtime.GC() // settle allocations so the snapshot reflects live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(a.stderr, "niliconctl: -memprofile: %v\n", err)
		}
	}
}

// validate rejects out-of-range or malformed flag values with one-line
// errors before any experiment starts.
func (a *app) validate(cmd string) error {
	if *a.jobs < 1 {
		return fmt.Errorf("-j must be >= 1 (got %d)", *a.jobs)
	}
	if *a.seeds < 1 {
		return fmt.Errorf("-seeds must be >= 1 (got %d)", *a.seeds)
	}
	if *a.runs < 1 {
		return fmt.Errorf("-runs must be >= 1 (got %d)", *a.runs)
	}
	if *a.replicas < 2 {
		return fmt.Errorf("-replicas must be >= 2 (got %d)", *a.replicas)
	}
	if cmd == "chaos" && *a.replicas > 2 {
		return fmt.Errorf("chaos runs one pair; a chain wider than a pair runs under the fleet control plane: fleet -replicas %d", *a.replicas)
	}
	if *a.zones < 0 {
		return fmt.Errorf("-zones must be >= 0 (got %d)", *a.zones)
	}
	if *a.pairs < 1 {
		return fmt.Errorf("-pairs must be >= 1 (got %d)", *a.pairs)
	}
	if *a.hosts < 2 {
		return fmt.Errorf("-hosts must be >= 2 (got %d)", *a.hosts)
	}
	if *a.hosts < *a.replicas {
		return fmt.Errorf("zone-anti-affine chains need -hosts >= -replicas (got -hosts %d -replicas %d)", *a.hosts, *a.replicas)
	}
	if *a.spares < 0 {
		return fmt.Errorf("-spares must be >= 0 (got %d)", *a.spares)
	}
	if *a.kills < 1 {
		return fmt.Errorf("-kills must be >= 1 (got %d)", *a.kills)
	}
	if *a.chaosDur <= 0 {
		return fmt.Errorf("-chaos-duration must be > 0 (got %v)", *a.chaosDur)
	}
	if *a.tClients < 1 || *a.tClients > traffic.MaxClients {
		return fmt.Errorf("-clients must be 1 to %d (got %d)", traffic.MaxClients, *a.tClients)
	}
	if *a.tRate <= 0 {
		return fmt.Errorf("-rate must be > 0 (got %g)", *a.tRate)
	}
	if *a.tDur <= 0 {
		return fmt.Errorf("-traffic-duration must be > 0 (got %v)", *a.tDur)
	}
	pol, err := core.ParseDegradePolicy(*a.degrade)
	if err != nil {
		return fmt.Errorf("-degrade: %v", err)
	}
	a.degradePol = pol
	for _, step := range harness.OptSets() {
		if step.Name == *a.optsName {
			a.opts = step.Opts
			return nil
		}
	}
	return fmt.Errorf("-opts: unknown option set %q (want %s)", *a.optsName, optSetNames())
}

// optSetNames lists the names -opts accepts.
func optSetNames() string {
	var names []string
	for _, step := range harness.OptSets() {
		names = append(names, step.Name)
	}
	return strings.Join(names, "|")
}

var commands = []string{
	"table1", "table2", "fig3", "table6", "validate", "pipeline",
	"chaos", "fleet", "traffic",
	"scale-threads", "scale-clients", "scale-procs", "report", "timeline",
}

func knownCommand(name string) bool {
	for _, c := range commands {
		if c == name {
			return true
		}
	}
	return false
}

// runConfig assembles the shared RunConfig from the parsed flags.
func (a *app) runConfig() harness.RunConfig {
	return harness.RunConfig{Seed: *a.seed, Warmup: *a.warmup, Measure: *a.measure, Opts: &a.opts,
		Jobs: *a.jobs, Progress: a.progress}
}

// progress writes one experiment progress line to the app's stderr.
func (a *app) progress(format string, args ...any) {
	fmt.Fprintf(a.stderr, format+"\n", args...)
}

// runCommand dispatches one experiment; every branch is a run helper
// returning an error so exit handling stays in one place.
func (a *app) runCommand(name string) error {
	switch name {
	case "table1":
		return a.runTable(func(rc harness.RunConfig) fmt.Stringer { _, tb := harness.RunTable1(rc); return tb })
	case "table2":
		return a.runTable(func(rc harness.RunConfig) fmt.Stringer { _, tb := harness.RunTable2(rc); return tb })
	case "fig3":
		return a.runFig3()
	case "table6":
		return a.runTable(func(rc harness.RunConfig) fmt.Stringer { _, tb := harness.RunTable6(rc); return tb })
	case "validate":
		return a.runValidate()
	case "pipeline":
		return a.runTable(func(rc harness.RunConfig) fmt.Stringer { _, tb := harness.RunPipelineAblation(rc); return tb })
	case "chaos":
		return a.runChaos()
	case "fleet":
		return a.runFleet()
	case "traffic":
		return a.runTraffic()
	case "scale-threads":
		return a.runTable(func(rc harness.RunConfig) fmt.Stringer { _, tb := harness.RunScaleThreads(nil, rc); return tb })
	case "scale-clients":
		return a.runTable(func(rc harness.RunConfig) fmt.Stringer { _, tb := harness.RunScaleClients(nil, rc); return tb })
	case "scale-procs":
		return a.runTable(func(rc harness.RunConfig) fmt.Stringer { _, tb := harness.RunScaleProcs(nil, rc); return tb })
	case "report":
		fmt.Fprintln(a.stdout, report.Build(a.runConfig()))
		return nil
	case "timeline":
		return a.runTimeline()
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
}

// runTable covers the experiments whose whole output is one table.
func (a *app) runTable(f func(harness.RunConfig) fmt.Stringer) error {
	fmt.Fprintln(a.stdout, f(a.runConfig()))
	return nil
}

func (a *app) runFig3() error {
	rows, tb := harness.RunFigure3(a.runConfig())
	fmt.Fprintln(a.stdout, harness.RenderFigure3(rows))
	fmt.Fprintln(a.stdout, tb)
	fmt.Fprintln(a.stdout, harness.Table3(rows))
	fmt.Fprintln(a.stdout, harness.Table4(rows))
	fmt.Fprintln(a.stdout, harness.Table5(rows))
	return nil
}

func (a *app) runValidate() error {
	_, tb := harness.RunValidation(nil, *a.runs, simtime.Duration(*a.runLen), *a.seed, a.opts, a.progress)
	fmt.Fprintln(a.stdout, tb)
	return nil
}

func (a *app) runChaos() error {
	if *a.sweep {
		results, tb := harness.RunChaosSweep(*a.seeds, *a.seed, simtime.Duration(*a.chaosDur), *a.jobs, a.progress)
		fmt.Fprintln(a.stdout, tb)
		failed := 0
		for _, res := range results {
			if !res.Passed {
				failed++
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d of %d campaigns failed", failed, len(results))
		}
		return nil
	}
	cfg := chaos.Config{
		Seed: *a.seed, Opts: a.opts, OptName: *a.optsName,
		Duration: simtime.Duration(*a.chaosDur),
		Degrade:  a.degradePol,
	}
	if *a.traceF != "" {
		f, err := os.Open(*a.traceF)
		if err != nil {
			return fmt.Errorf("-traffic: %v", err)
		}
		tr, err := traffic.Parse(f)
		f.Close()
		if err != nil {
			return err
		}
		cfg.Traffic = tr
	}
	res := chaos.VerifySeed(cfg)
	fmt.Fprint(a.stdout, res.Trace)
	if !res.Passed {
		return fmt.Errorf("campaign failed (seed %d, opts %s)", *a.seed, *a.optsName)
	}
	return nil
}

// runTraffic dispatches the trace tooling: exactly one of -synth,
// -capture, -replay.
func (a *app) runTraffic() error {
	modes := 0
	for _, on := range []bool{*a.synth != "", *a.capture != "", *a.replay} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		return fmt.Errorf("traffic: pick exactly one of -synth <profile>, -capture <benchmark>, -replay")
	}
	switch {
	case *a.synth != "":
		cfg, err := traffic.Profile(*a.synth, *a.seed)
		if err != nil {
			return err
		}
		cfg.Clients = *a.tClients
		cfg.Rate = *a.tRate
		cfg.Duration = simtime.Duration(*a.tDur)
		return traffic.Synthesize(cfg).Encode(a.stdout)
	case *a.capture != "":
		return a.runTrafficCapture()
	default:
		return a.runTrafficReplay()
	}
}

// runTrafficCapture runs the benchmark's uniform client set against a
// live server with the trace recorder attached, and emits the capture.
func (a *app) runTrafficCapture() error {
	wl, err := workloads.ByName(*a.capture)
	if err != nil {
		return err
	}
	sv, ok := wl.(workloads.ServerWorkload)
	if !ok {
		return fmt.Errorf("traffic: -capture needs a server benchmark, %q runs to completion", *a.capture)
	}
	clock := simtime.NewClock()
	cl := core.NewShardedCluster(clock, core.ClusterParams{})
	sv.Install(cl.NewProtectedContainer(*a.capture, "10.0.0.10", 1))
	set := sv.NewClients(cl, "10.0.0.10", *a.tClients, *a.seed)
	set.Capture = traffic.NewRecorder("capture:"+*a.capture, len(set.Clients), clock.Now())
	clock.RunFor(simtime.Duration(*a.tDur))
	tr, err := set.Capture.Trace()
	if err != nil {
		return err
	}
	return tr.Encode(a.stdout)
}

// runTrafficReplay reads a JSONL trace from stdin and replays it through
// a chaos campaign with windowed SLO judging. The default shape drives
// the trace through a terminal primary kill (the trace should outlast
// -chaos-duration so the kill lands mid-run); -smoke runs the clean
// fault-free CI shape instead, where the slo-windows oracle requires
// zero violation windows.
func (a *app) runTrafficReplay() error {
	tr, err := traffic.Parse(a.stdin)
	if err != nil {
		return err
	}
	cfg := chaos.Config{
		Seed: *a.seed, Opts: a.opts, OptName: "traffic-replay",
		Duration: simtime.Duration(*a.chaosDur),
		Terminal: chaos.TerminalKill, Events: -1,
		Traffic: tr,
		Degrade: a.degradePol,
	}
	if *a.smoke {
		cfg.Terminal = chaos.TerminalNone
		cfg.Duration = tr.Duration() + 100*simtime.Millisecond
	}
	res := chaos.VerifySeed(cfg)
	fmt.Fprint(a.stdout, res.Trace)
	if !res.Passed {
		return fmt.Errorf("trace replay failed (seed %d)", *a.seed)
	}
	return nil
}

func (a *app) runFleet() error {
	f := &chaos.Fleet{Pairs: *a.pairs, Hosts: *a.hosts, Spares: *a.spares, Kills: *a.kills}
	cfg := chaos.Config{
		Seed:     *a.seed,
		Opts:     a.opts,
		OptName:  *a.optsName,
		Fleet:    f,
		Duration: simtime.Duration(*a.chaosDur),
		Degrade:  a.degradePol,
	}
	if *a.smoke {
		f.Pairs, f.Hosts, f.Spares, f.Kills = 4, 4, 1, 1
		cfg.Duration = 600 * simtime.Millisecond
	}
	// Chain flags apply after the smoke shape so the CI form
	// `fleet -smoke -replicas 3 -zones 3` runs small chains; wider
	// chains need one spare per zone for zone-kill re-protection.
	f.Replicas, f.Zones = *a.replicas, *a.zones
	if *a.smoke && f.Replicas > 2 && f.Spares < f.Replicas {
		f.Spares = f.Replicas
	}
	if err := chaos.Check(cfg); err != nil {
		return err
	}
	res := chaos.VerifySeed(cfg)
	fmt.Fprint(a.stdout, res.Trace)
	for _, v := range res.Verdicts {
		if v.Oracle == "determinism" {
			fmt.Fprintf(a.stdout, "verdict determinism %s: %s\n", map[bool]string{true: "PASS", false: "FAIL"}[v.OK], v.Detail)
		}
	}
	if !res.Passed {
		return fmt.Errorf("fleet campaign failed (seed %d, %d pairs, %d+%d hosts, %d kills)",
			cfg.Seed, f.Pairs, f.Hosts, f.Spares, f.Kills)
	}
	return nil
}

func (a *app) runTimeline() error {
	res, err := harness.Run(*a.bench, harness.NiLiCon, a.runConfig())
	if err != nil {
		return err
	}
	return res.Timeline.WriteCSV(a.stdout)
}
