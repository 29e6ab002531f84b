package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nilicon/internal/simtime"
)

// TestChaosSweepSmall runs a reduced sweep through the harness wrapper:
// every campaign must pass every oracle and the summary table must carry
// one row per option set.
func TestChaosSweepSmall(t *testing.T) {
	// Option sets, plus the trace-replay (SLO-judged) block, the
	// asymmetric-fault and three scripted split-brain lease blocks,
	// plus the fleet scenarios.
	entries := len(OptSets()) + 5 + len(FleetScenarios())
	results, tb := RunChaosSweep(2, 21, 800*simtime.Millisecond, Jobs)
	if len(results) != 2*entries {
		t.Fatalf("results = %d, want %d", len(results), 2*entries)
	}
	for _, res := range results {
		if !res.Passed {
			for _, v := range res.Verdicts {
				if !v.OK {
					t.Errorf("%s seed=%d oracle %s: %s", res.OptName, res.Seed, v.Oracle, v.Detail)
				}
			}
			t.Fatalf("campaign %s seed=%d failed", res.OptName, res.Seed)
		}
	}
	if tb.NumRows() != entries {
		t.Fatalf("table rows = %d, want %d", tb.NumRows(), entries)
	}
	for _, step := range OptSets() {
		if !strings.Contains(tb.String(), step.Name) {
			t.Fatalf("summary table missing option set %q:\n%s", step.Name, tb)
		}
	}
	for _, name := range []string{"asym", "splitbrain-partition", "splitbrain-ackout", "splitbrain-replay"} {
		if !strings.Contains(tb.String(), name) {
			t.Fatalf("summary table missing lease matrix entry %q:\n%s", name, tb)
		}
	}
	// The trace-replay block: a summary row with live SLO columns, and
	// every traffic campaign carries a judged report.
	if !strings.Contains(tb.String(), "traffic") {
		t.Fatalf("summary table missing traffic entry:\n%s", tb)
	}
	for _, res := range results {
		if res.OptName == "traffic" && res.SLO == nil {
			t.Fatalf("traffic campaign seed=%d has no SLO report", res.Seed)
		}
		if res.OptName != "traffic" && !strings.HasPrefix(res.OptName, "fleet-") && res.SLO != nil {
			t.Fatalf("non-traffic campaign %s seed=%d has an SLO report", res.OptName, res.Seed)
		}
	}
	// The fleet scenarios ride in the same matrix: each has a summary row
	// and its campaigns report host-kill terminals with real failovers.
	for _, sc := range FleetScenarios() {
		if !strings.Contains(tb.String(), sc.OptName) {
			t.Fatalf("summary table missing fleet scenario %q:\n%s", sc.OptName, tb)
		}
	}
	fleetFailovers := 0
	for _, res := range results {
		if strings.HasPrefix(res.OptName, "fleet-") {
			if !strings.HasPrefix(res.Terminal, "host-kill") {
				t.Fatalf("fleet campaign %s seed=%d terminal = %q", res.OptName, res.Seed, res.Terminal)
			}
			fleetFailovers += res.Failovers
		}
	}
	if fleetFailovers == 0 {
		t.Fatal("fleet campaigns never failed over")
	}
}

// TestChaosSweepParallelByteIdentical: the -j worker pool must not change
// any output. The results slice, the rendered summary table and even the
// streamed progress lines are byte-identical between a serial run and a
// 4-worker run, because each seeded DES run is single-threaded and all
// collection happens in (option set, seed) order on one goroutine.
func TestChaosSweepParallelByteIdentical(t *testing.T) {
	oldVerbose := Verbose
	defer func() { Verbose = oldVerbose }()

	capture := func(jobs int) ([]string, string, interface{}) {
		var lines []string
		Verbose = func(format string, args ...any) {
			lines = append(lines, fmt.Sprintf(format, args...))
		}
		results, tb := RunChaosSweep(2, 31, 500*simtime.Millisecond, jobs)
		return lines, tb.String(), results
	}
	lines1, table1, results1 := capture(1)
	lines4, table4, results4 := capture(4)

	if !reflect.DeepEqual(lines1, lines4) {
		t.Fatalf("progress lines differ between -j 1 and -j 4:\n%v\nvs\n%v", lines1, lines4)
	}
	if table1 != table4 {
		t.Fatalf("summary tables differ:\n%s\nvs\n%s", table1, table4)
	}
	if !reflect.DeepEqual(results1, results4) {
		t.Fatal("result slices differ between -j 1 and -j 4")
	}
}
