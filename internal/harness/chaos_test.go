package harness

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"nilicon/internal/chaos"
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
	results, tb := RunChaosSweep(2, 21, 800*simtime.Millisecond, 1, nil)
	if len(results) != 2*entries {
		t.Fatalf("results = %d, want %d", len(results), 2*entries)
	}
	for _, res := range results {
		if !res.Passed {
			for _, v := range res.Verdicts {
				if !v.OK {
					t.Errorf("%s oracle %s: %s", campaignID(res), v.Oracle, v.Detail)
				}
			}
			t.Fatalf("campaign %s failed", campaignID(res))
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
		name := optName(res)
		if name == "traffic" && res.SLO == nil {
			t.Fatalf("traffic campaign %s has no SLO report", campaignID(res))
		}
		if name != "traffic" && !strings.HasPrefix(name, "fleet-") && res.SLO != nil {
			t.Fatalf("non-traffic campaign %s has an SLO report", campaignID(res))
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
		if strings.HasPrefix(optName(res), "fleet-") {
			if !strings.HasPrefix(res.Terminal, "host-kill") {
				t.Fatalf("fleet campaign %s terminal = %q", campaignID(res), res.Terminal)
			}
			fleetFailovers += res.Failovers
		}
	}
	if fleetFailovers == 0 {
		t.Fatal("fleet campaigns never failed over")
	}
}

// campaignID is the "seed=S opts=NAME" part of a campaign's trace
// header.
func campaignID(res chaos.Result) string {
	header, _, _ := strings.Cut(res.Trace, "\n")
	var id []string
	for _, f := range strings.Fields(header) {
		if strings.HasPrefix(f, "seed=") || strings.HasPrefix(f, "opts=") {
			id = append(id, f)
		}
	}
	return strings.Join(id, " ")
}

// optName is the option-set or scenario name in a campaign's trace
// header.
func optName(res chaos.Result) string {
	_, name, _ := strings.Cut(campaignID(res), "opts=")
	return name
}

// TestChaosSweepParallelByteIdentical: the -j worker pool must not change
// any output. The results slice, the rendered summary table and even the
// streamed progress lines are byte-identical between a serial run and a
// 4-worker run, because each seeded DES run is single-threaded and all
// collection happens in (option set, seed) order on one goroutine.
func TestChaosSweepParallelByteIdentical(t *testing.T) {
	capture := func(jobs int) ([]string, string, interface{}) {
		var lines []string
		progress := func(format string, args ...any) {
			lines = append(lines, fmt.Sprintf(format, args...))
		}
		results, tb := RunChaosSweep(2, 31, 500*simtime.Millisecond, jobs, progress)
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
