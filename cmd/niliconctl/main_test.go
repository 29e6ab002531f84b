package main

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"nilicon/internal/chaos"
	"nilicon/internal/core"
	"nilicon/internal/simtime"
	"nilicon/internal/traffic"
)

// TestUsageErrors: bad invocations must be rejected up front with a
// clear one-line error on stderr and exit code 2, before any experiment
// starts (a mistyped sweep flag must not burn minutes of CPU first).
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string // substring of stderr
	}{
		{"no-args", nil, "usage: niliconctl"},
		{"unknown-subcommand", []string{"frobnicate"}, `unknown experiment "frobnicate"`},
		{"subcommand-typo", []string{"chaso"}, `unknown experiment "chaso"`},
		{"all-removed", []string{"all"}, `unknown experiment "all"`},
		{"zero-jobs", []string{"chaos", "-j", "0"}, "-j must be >= 1"},
		{"negative-jobs", []string{"pipeline", "-j", "-4"}, "-j must be >= 1"},
		{"zero-seeds", []string{"chaos", "-sweep", "-seeds", "0"}, "-seeds must be >= 1"},
		{"zero-runs", []string{"validate", "-runs", "0"}, "-runs must be >= 1"},
		{"degrade-typo", []string{"chaos", "-degrade", "availabilty"}, "-degrade"},
		{"opts-typo-chaos", []string{"chaos", "-opts", "detla"}, `-opts: unknown option set "detla"`},
		{"opts-typo-timeline", []string{"timeline", "-opts", "detla"}, `-opts: unknown option set "detla"`},
		{"unparseable-int", []string{"chaos", "-seeds", "abc"}, `invalid value "abc"`},
		{"unparseable-duration", []string{"chaos", "-chaos-duration", "soon"}, `invalid value "soon"`},
		{"unknown-flag", []string{"chaos", "-frob"}, "flag provided but not defined"},
		{"chaos-wider-than-pair", []string{"chaos", "-replicas", "3"}, "fleet -replicas 3"},
		{"too-many-clients", []string{"traffic", "-synth", "uniform", "-clients", "40000"}, "-clients must be 1 to 39000"},
		{"zero-clients", []string{"traffic", "-synth", "uniform", "-clients", "0"}, "-clients must be 1 to 39000"},
		{"negative-rate", []string{"traffic", "-synth", "uniform", "-rate", "-5"}, "-rate must be > 0"},
		{"negative-traffic-duration", []string{"traffic", "-synth", "uniform", "-traffic-duration", "-1s"}, "-traffic-duration must be > 0"},
		{"negative-chaos-duration", []string{"chaos", "-chaos-duration", "-1s"}, "-chaos-duration must be > 0"},
		{"zero-pairs", []string{"fleet", "-pairs", "0"}, "-pairs must be >= 1"},
		{"one-host", []string{"fleet", "-hosts", "1"}, "-hosts must be >= 2"},
		{"negative-spares", []string{"fleet", "-spares", "-3"}, "-spares must be >= 0"},
		{"zero-kills", []string{"fleet", "-kills", "0"}, "-kills must be >= 1"},
		{"fewer-hosts-than-replicas", []string{"fleet", "-hosts", "2", "-replicas", "3"}, "-hosts >= -replicas"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := newApp(&stdout, &stderr).run(tc.args)
			if code != 2 {
				t.Fatalf("exit code = %d, want 2\nstderr: %s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr missing %q:\n%s", tc.wantErr, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Fatalf("usage error wrote to stdout: %s", stdout.String())
			}
		})
	}
}

// TestFleetShapeThatDoesNotFit: a fleet whose chains overflow its
// hosts' memory is rejected with the placement engine's one-line error
// and exit 1 before anything runs, instead of panicking mid-build.
func TestFleetShapeThatDoesNotFit(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := newApp(&stdout, &stderr).run(
		[]string{"fleet", "-pairs", "128", "-hosts", "32", "-replicas", "3", "-zones", "3"})
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr: %s", code, stderr.String())
	}
	want := "niliconctl fleet: cluster: host 2 out of pages placing chain 98 primary\n"
	if stderr.String() != want {
		t.Fatalf("stderr = %q, want %q", stderr.String(), want)
	}
	if stdout.Len() != 0 {
		t.Fatalf("rejected fleet wrote to stdout: %s", stdout.String())
	}
}

// TestChaosReplayInvocation runs one short replay-mode campaign through
// the real CLI entry point: exit 0, trace on stdout, every oracle PASS.
func TestChaosReplayInvocation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := newApp(&stdout, &stderr).run(
		[]string{"chaos", "-opts", "replay", "-chaos-duration", "400ms", "-seed", "7"})
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstderr: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "chaos seed=7 opts=replay") {
		t.Fatalf("trace header missing:\n%s", out)
	}
	if strings.Contains(out, "FAIL") {
		t.Fatalf("campaign verdicts failed:\n%s", out)
	}
}

// TestTrafficSynthReplayPipe runs the CI pipe through the real CLI
// entry point: synthesize a trace, replay it in the clean -smoke shape,
// and check the SLO verdict; a modeless traffic invocation is rejected.
func TestTrafficSynthReplayPipe(t *testing.T) {
	var trace, stderr bytes.Buffer
	if code := newApp(&trace, &stderr).run(
		[]string{"traffic", "-synth", "uniform", "-traffic-duration", "500ms"}); code != 0 {
		t.Fatalf("synth exit=%d stderr=%s", code, stderr.String())
	}
	var out, stderr2 bytes.Buffer
	a := newApp(&out, &stderr2)
	a.stdin = &trace
	if code := a.run([]string{"traffic", "-replay", "-smoke"}); code != 0 {
		t.Fatalf("replay exit=%d stderr=%s", code, stderr2.String())
	}
	if !strings.Contains(out.String(), "verdict slo-windows PASS") {
		t.Fatalf("missing slo-windows verdict:\n%s", out.String())
	}
	var o3, e3 bytes.Buffer
	if code := newApp(&o3, &e3).run([]string{"traffic"}); code != 1 ||
		!strings.Contains(e3.String(), "pick exactly one") {
		t.Fatalf("bare traffic: code=%d stderr=%s", code, e3.String())
	}
}

// TestOptsSelectsTheOptionSet: -opts reaches a non-chaos experiment.
// The timeline's per-epoch frame columns count compressed frames only
// when the delta stream is on.
func TestOptsSelectsTheOptionSet(t *testing.T) {
	compressed := func(opts string) int {
		var stdout, stderr bytes.Buffer
		code := newApp(&stdout, &stderr).run([]string{"timeline", "-opts", opts,
			"-bench", "redis", "-warmup", "300ms", "-measure", "300ms"})
		if code != 0 {
			t.Fatalf("-opts %s: exit=%d stderr=%s", opts, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		col := map[string]int{}
		for i, name := range strings.Split(lines[0], ",") {
			col[name] = i
		}
		n := 0
		for _, line := range lines[1:] {
			fields := strings.Split(line, ",")
			for _, name := range []string{"delta_frames", "zero_frames", "dedup_frames"} {
				v, err := strconv.Atoi(fields[col[name]])
				if err != nil {
					t.Fatalf("-opts %s: column %s: %v", opts, name, err)
				}
				n += v
			}
		}
		return n
	}
	if n := compressed("delta"); n == 0 {
		t.Fatal("-opts delta: the timeline shows no delta, zero or dedup frames")
	}
	if n := compressed("all"); n != 0 {
		t.Fatalf("-opts all: the timeline shows %d delta, zero or dedup frames, want 0", n)
	}
}

var (
	update    = flag.Bool("update", false, "rewrite the committed outputs in testdata/ from the current code")
	expensive = flag.Bool("expensive", false, "also run the committed outputs that take seconds each (report, 96-chain fleet)")
)

// committedOutput is one deterministic output the repository pins:
// the text run produces must equal testdata/<name>.txt byte for byte.
type committedOutput struct {
	name      string
	expensive bool // runs only under -expensive
	run       func(t *testing.T) string
	// must, when set, matches the behaviour the entry exists to pin, so
	// a re-record cannot quietly lose it.
	must *regexp.Regexp
}

// midTransfer matches a kill-mid-transfer terminal that found the
// transfer scheduler sending.
var midTransfer = regexp.MustCompile(`event mid-transfer sending=[1-9]`)

// cli is the stdout of one niliconctl invocation, which must exit 0.
// Invocations share no state, so they run in parallel.
func cli(args ...string) func(*testing.T) string {
	return func(t *testing.T) string {
		t.Parallel()
		return runCLI(t, nil, args)
	}
}

// pipe is the stdout of dst reading src's stdout, as in `src | dst`.
func pipe(src, dst []string) func(*testing.T) string {
	return func(t *testing.T) string {
		t.Parallel()
		return runCLI(t, strings.NewReader(runCLI(t, nil, src)), dst)
	}
}

func runCLI(t *testing.T, stdin io.Reader, args []string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	a := newApp(&stdout, &stderr)
	if stdin != nil {
		a.stdin = stdin
	}
	if code := a.run(args); code != 0 {
		t.Fatalf("%v: exit=%d stderr=%s", args, code, stderr.String())
	}
	return stdout.String()
}

// campaign is one chaos campaign rendered as its full trace plus the
// SHA-256 of its epoch timeline CSV, so a change to what the campaign
// simulates shows up even where the trace does not print it. Campaigns
// run in parallel.
func campaign(cfg chaos.Config) func(*testing.T) string {
	return func(t *testing.T) string {
		t.Parallel()
		res := chaos.Run(cfg)
		return fmt.Sprintf("%stimeline-csv sha256=%x\n", res.Trace, sha256.Sum256([]byte(res.TimelineCSV)))
	}
}

// trafficTrace is the trace a traffic campaign replays: a profile's
// shape at a fixed rate, with no slow clients (client-side queueing
// must not trip the fault-coincidence oracle).
func trafficTrace(profile string, seed int64, dur simtime.Duration) *traffic.Trace {
	cfg, err := traffic.Profile(profile, seed)
	if err != nil {
		panic(err)
	}
	cfg.Clients, cfg.Rate, cfg.Duration, cfg.SlowFrac = 8, 600, dur, 0
	return traffic.Synthesize(cfg)
}

// committedOutputs is every deterministic output the repository pins:
// the paper's tables, CLI runs, one chaos campaign of every kind, and
// (under -expensive) the EXPERIMENTS.md run log and a 96-chain fleet.
func committedOutputs() []committedOutput {
	return []committedOutput{
		{name: "table1", run: cli("table1")},
		{name: "table2", run: cli("table2")},
		{name: "fig3", run: cli("fig3")},
		{name: "table6", run: cli("table6")},
		{name: "pipeline", run: cli("pipeline")},
		// The per-epoch records of a paper workload on either side of
		// the epoch pipeline's one fork: the container resumes after the
		// transfer (stop-and-copy) or before it (staging buffer).
		{name: "timeline-redis-stop-and-copy", run: cli("timeline", "-opts", "stop-and-copy", "-bench", "redis", "-measure", "1s")},
		{name: "timeline-redis-all", run: cli("timeline", "-opts", "all", "-bench", "redis", "-measure", "1s")},
		{name: "chaos-sweep", run: cli("chaos", "-sweep", "-seeds", "2", "-chaos-duration", "600ms")},
		{name: "chaos-replay-seed3", run: cli("chaos", "-opts", "replay", "-seed", "3", "-chaos-duration", "800ms"),
			must: regexp.MustCompile(`(?s)event mid-transfer sending=[1-9].*event replay from=\d+ through=\d+ segments=[1-9]`)},
		{name: "chaos-pipelined-seed3", run: cli("chaos", "-opts", "pipelined", "-seed", "3", "-chaos-duration", "800ms"), must: midTransfer},
		{name: "chaos-delta-seed3", run: cli("chaos", "-opts", "delta", "-seed", "3", "-chaos-duration", "800ms"), must: midTransfer},
		{name: "fleet-smoke-availability", run: cli("fleet", "-smoke", "-degrade", "availability")},
		{name: "traffic-replay", run: pipe(
			[]string{"traffic", "-synth", "burst", "-traffic-duration", "2500ms"}, []string{"traffic", "-replay"})},
		{name: "traffic-zipf-smoke", run: pipe(
			[]string{"traffic", "-synth", "zipf", "-traffic-duration", "700ms"}, []string{"traffic", "-replay", "-smoke"})},
		{name: "traffic-redis-smoke", run: pipe(
			[]string{"traffic", "-capture", "redis", "-traffic-duration", "700ms"}, []string{"traffic", "-replay", "-smoke"})},

		{name: "report", expensive: true, run: cli("report", "-seed", "1", "-warmup", "1s", "-measure", "2s")},
		{name: "fleet-96chains", expensive: true, run: cli(
			"fleet", "-pairs", "96", "-hosts", "48", "-replicas", "3", "-zones", "3", "-chaos-duration", "3s")},

		{name: "pair-all-kill", run: campaign(chaos.Config{
			Seed: 7, Opts: core.AllOpts(), OptName: "all", Terminal: chaos.TerminalKill})},
		{name: "pair-all-reprotect", run: campaign(chaos.Config{
			Seed: 5, Opts: core.AllOpts(), OptName: "all", Terminal: chaos.TerminalReprotect})},
		{name: "pair-all-none", run: campaign(chaos.Config{
			Seed: 13, Opts: core.AllOpts(), OptName: "all", Terminal: chaos.TerminalNone})},
		{name: "pair-pipelined-midtransfer", run: campaign(chaos.Config{
			Seed: 11, Opts: core.PipelinedOpts(), OptName: "pipelined", Terminal: chaos.TerminalKillMidTransfer}),
			must: midTransfer},
		{name: "pair-basic-drawn", run: campaign(chaos.Config{
			Seed: 2, Opts: core.BasicOpts(), OptName: "basic"})},
		{name: "pair-replay-kill", run: campaign(chaos.Config{
			Seed: 3, Opts: core.ReplayOpts(), OptName: "replay", Duration: 800 * simtime.Millisecond, Terminal: chaos.TerminalKill})},
		{name: "asym", run: campaign(chaos.Config{
			Seed: 21, Opts: core.AllOpts(), OptName: "asym", FaultKinds: []string{"oneway-pb", "oneway-bp", "flap"}}),
			must: midTransfer},
		{name: "traffic-kill", run: campaign(chaos.Config{
			Seed: 33, Opts: core.AllOpts(), OptName: "all", Terminal: chaos.TerminalKill, Events: -1,
			Traffic: trafficTrace("zipf", 33, 3*simtime.Second)})},
		{name: "traffic-replay-kill", run: campaign(chaos.Config{
			Seed: 9, Opts: core.ReplayOpts(), OptName: "replay", Terminal: chaos.TerminalKill, Events: -1,
			Traffic: trafficTrace("uniform", 9, 3*simtime.Second)})},
		{name: "splitbrain-partition-strict", run: campaign(chaos.Config{
			Seed: 21, Opts: core.AllOpts(), OptName: "all", Scenario: chaos.ScenarioPartitionHeal, Degrade: core.StrictSafety})},
		{name: "splitbrain-partition-replay", run: campaign(chaos.Config{
			Seed: 2, Opts: core.ReplayOpts(), OptName: "replay", Scenario: chaos.ScenarioPartitionHeal, Degrade: core.StrictSafety})},
		{name: "splitbrain-partition-prelease", run: campaign(chaos.Config{
			Seed: 21, Opts: core.AllOpts(), OptName: "all", Scenario: chaos.ScenarioPartitionHeal, PreLease: true})},
		{name: "splitbrain-ackout-availability", run: campaign(chaos.Config{
			Seed: 33, Opts: core.AllOpts(), OptName: "all", Scenario: chaos.ScenarioAckOutage, Degrade: core.Availability})},
		{name: "splitbrain-ackout-strict", run: campaign(chaos.Config{
			Seed: 33, Opts: core.AllOpts(), OptName: "all", Scenario: chaos.ScenarioAckOutage, Degrade: core.StrictSafety})},
		// `fleet -smoke` prints this trace (no timeline-csv line) plus a
		// determinism verdict.
		{name: "fleet-smoke", run: campaign(chaos.Config{
			Seed: 1, Opts: core.AllOpts(), OptName: "all", Duration: 600 * simtime.Millisecond,
			Fleet: &chaos.Fleet{Pairs: 4, Hosts: 4, Spares: 1, Kills: 1}})},
		// `fleet -smoke -replicas 3 -zones 3` prints this trace (no
		// timeline-csv line) plus a determinism verdict.
		{name: "fleet-zonekill-replicas3", run: campaign(chaos.Config{
			Seed: 1, Opts: core.AllOpts(), OptName: "all", Duration: 600 * simtime.Millisecond,
			Fleet: &chaos.Fleet{Pairs: 4, Hosts: 4, Spares: 3, Kills: 1, Replicas: 3, Zones: 3}})},
		{name: "fleet-replay", run: campaign(chaos.Config{
			Seed: 4, Opts: core.ReplayOpts(), OptName: "fleet-replay", Duration: 500 * simtime.Millisecond,
			Fleet: &chaos.Fleet{Pairs: 4, Hosts: 4, Spares: 1, Kills: 1}})},
		{name: "fleet-traffic", run: campaign(chaos.Config{
			Seed: 4, Opts: core.AllOpts(), OptName: "all",
			Fleet: &chaos.Fleet{Pairs: 4, Hosts: 4, Spares: 1, Kills: 1}, Traffic: trafficTrace("uniform", 4, 2*simtime.Second)})},
	}
}

// TestCommittedOutputs diffs every entry of committedOutputs against
// its file in testdata/, which holds nothing else. Any engine, protocol
// or model change that moves a single byte of these outputs fails
// here. Regenerate with `go test ./cmd/niliconctl/ -update -expensive`
// and review the diff.
func TestCommittedOutputs(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	owned := map[string]bool{}
	outputs := committedOutputs()
	for _, o := range outputs {
		owned[o.name+".txt"] = true
	}
	for _, e := range entries {
		if !owned[e.Name()] {
			t.Errorf("testdata/%s belongs to no committed output", e.Name())
		}
		delete(owned, e.Name())
	}
	if !*update {
		for file := range owned {
			t.Errorf("testdata/%s is missing (run with -update to create it)", file)
		}
	}

	ranExpensive := false
	t.Cleanup(func() {
		if *expensive && !ranExpensive {
			t.Error("-expensive is set but -run selects no expensive entry")
		}
	})
	for _, o := range outputs {
		t.Run(o.name, func(t *testing.T) {
			if o.expensive {
				if !*expensive {
					t.Skip("expensive; run with -expensive")
				}
				ranExpensive = true
			}
			got := o.run(t)
			if o.must != nil && !o.must.MatchString(got) {
				t.Errorf("output does not match %q", o.must)
			}
			path := filepath.Join("testdata", o.name+".txt")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s (%d vs %d bytes); rerun with -update and review the diff", path, len(got), len(want))
			}
		})
	}
}
