package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
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

// TestCommittedOutputs replays deterministic invocations through the
// CLI entry point and diffs stdout against the committed files in
// testdata/: the paper's tables, the pipeline ablation and three chaos
// and traffic traces. Any engine, protocol or model change that moves
// a single byte of these outputs shows up here (and in the matching CI
// diff steps for the traces).
func TestCommittedOutputs(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stdin  []string // when set, stdout of this invocation feeds stdin
		golden string
	}{
		{"chaos-sweep", []string{"chaos", "-sweep", "-seeds", "2", "-chaos-duration", "600ms"}, nil,
			"chaos-sweep-seeds2.txt"},
		{"chaos-chain", []string{"chaos", "-replicas", "3", "-seed", "2"}, nil,
			"chaos-replicas3-seed2.txt"},
		{"traffic-replay", []string{"traffic", "-replay"},
			[]string{"traffic", "-synth", "burst", "-traffic-duration", "2500ms"},
			"traffic-replay-burst.txt"},
		{"table1", []string{"table1"}, nil, "table1.txt"},
		{"table2", []string{"table2"}, nil, "table2.txt"},
		{"fig3", []string{"fig3"}, nil, "fig3.txt"},
		{"table6", []string{"table6"}, nil, "table6.txt"},
		{"pipeline", []string{"pipeline"}, nil, "pipeline.txt"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var in, stdout, stderr bytes.Buffer
			if tc.stdin != nil {
				if code := newApp(&in, &stderr).run(tc.stdin); code != 0 {
					t.Fatalf("%v: exit=%d stderr=%s", tc.stdin, code, stderr.String())
				}
			}
			a := newApp(&stdout, &stderr)
			a.stdin = &in
			if code := a.run(tc.args); code != 0 {
				t.Fatalf("%v: exit=%d stderr=%s", tc.args, code, stderr.String())
			}
			if got := stdout.String(); got != string(want) {
				t.Fatalf("%v: stdout differs from testdata/%s\ngot:\n%s", tc.args, tc.golden, got)
			}
		})
	}
}
