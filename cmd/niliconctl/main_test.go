package main

import (
	"bytes"
	"os"
	"path/filepath"
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

// TestCommittedOutputs replays three deterministic invocations through
// the CLI entry point and diffs stdout against the committed files in
// testdata/. Any engine or protocol change that moves a single byte of
// these traces shows up here (and in the matching CI diff steps).
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
