package main

import (
	"encoding/json"
	"os"
	"reflect"
	"sort"
	"testing"

	"nilicon/bench/spec"
)

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json in step with the
// metric tables and the workload list.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("top-level keys %v, want %v", keys, want)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, bench default %d", b.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(b.Paths, []string{"bench"}) || !reflect.DeepEqual(b.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %v command %v", b.Paths, b.Command)
	}
	if len(b.Workloads) != len(workloadList) {
		t.Fatalf("%d workloads, bench has %d", len(b.Workloads), len(workloadList))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d: %q / %q, bench has %q / %q", i, w.Name, w.Why, workloadList[i].name, workloadList[i].why)
		}
	}
	if len(b.EndToEnd) != len(spec.EndToEnd) {
		t.Fatalf("%d end_to_end metrics, spec has %d", len(b.EndToEnd), len(spec.EndToEnd))
	}
	setupBound := 0.0
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for i, m := range b.EndToEnd {
		s := spec.EndToEnd[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || m.Bound != s.Bound {
			t.Errorf("end_to_end %d: %+v, spec has %+v", i, m, s)
		}
		if m.Name != "setup_s" && m.Bound > setupBound {
			t.Errorf("%s bound %v exceeds setup_s's, which must be the largest", m.Name, m.Bound)
		}
	}
	if len(b.PerLayer) != len(spec.PerLayer) {
		t.Fatalf("%d per_layer metrics, spec has %d", len(b.PerLayer), len(spec.PerLayer))
	}
	for i, m := range b.PerLayer {
		s := spec.PerLayer[i]
		if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better {
			t.Errorf("per_layer %d: %+v, spec has %+v", i, m, s)
		}
	}
}

// jsonMetric is one BENCHMARK.json metric entry (per_layer entries
// carry no bound).
type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}
