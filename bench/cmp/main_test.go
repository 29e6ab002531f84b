package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdictAppliesBounds(t *testing.T) {
	lower := bound{better: "lower", rel: 0.05}
	higher := bound{better: "higher", rel: 0.05}
	exact := bound{better: "lower", rel: 0}
	for _, tc := range []struct {
		name     string
		old, new []float64
		b        bound
		want     string
	}{
		{"within bound", []float64{100, 101, 99}, []float64{104, 103, 104}, lower, "same"},
		{"worse past bound", []float64{100, 101, 99}, []float64{106, 107, 106}, lower, "worse"},
		{"better past bound", []float64{100, 101, 99}, []float64{90, 91, 92}, lower, "better"},
		{"higher is better", []float64{100, 100, 100}, []float64{94, 94, 94}, higher, "worse"},
		{"spread wider than bound", []float64{80, 100, 120}, []float64{104, 84, 126}, lower, "unresolved"},
		{"noisy but every new run better", []float64{100, 120, 140}, []float64{50, 60, 70}, lower, "better"},
		{"exact bound: any increase", []float64{0, 0}, []float64{0.001, 0}, exact, "worse"},
		{"exact bound: no change", []float64{0, 0}, []float64{0, 0}, exact, "same"},
	} {
		if _, got := verdict(tc.old, tc.new, tc.b); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareSameCodeTwice(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	a := filepath.Join(dir, "a.json")
	b := filepath.Join(dir, "b.json")
	write := func(path, s string) {
		if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(spec, `{"end_to_end": [
		{"name": "tput_rps", "unit": "1/s", "better": "higher", "bound": 0.02},
		{"name": "sim_speed_x", "unit": "x", "better": "higher", "bound": 0.2}]}`)
	write(a, `{"runs": [
		{"workload": "w", "seed": 1, "metrics": {"tput_rps": {"value": 100}, "sim_speed_x": {"value": 5.0}}},
		{"workload": "w", "seed": 2, "metrics": {"tput_rps": {"value": 101}, "sim_speed_x": {"value": 5.1}}}]}`)
	write(b, `{"runs": [
		{"workload": "w", "seed": 1, "metrics": {"tput_rps": {"value": 100}, "sim_speed_x": {"value": 4.9}}},
		{"workload": "w", "seed": 2, "metrics": {"tput_rps": {"value": 101}, "sim_speed_x": {"value": 5.0}}}]}`)
	var out bytes.Buffer
	if err := mainErr([]string{"-spec", spec, a, b}, &out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "1 virtual-time rows identical, 1 wall-clock rows within bound, 0 rows neither: true") {
		t.Fatalf("acceptance line missing:\n%s", out.String())
	}
	write(b, `{"runs": [
		{"workload": "w", "seed": 1, "metrics": {"tput_rps": {"value": 90}, "sim_speed_x": {"value": 5.0}}},
		{"workload": "w", "seed": 2, "metrics": {"tput_rps": {"value": 91}, "sim_speed_x": {"value": 5.0}}}]}`)
	out.Reset()
	if err := mainErr([]string{"-spec", spec, a, b}, &out); err == nil {
		t.Fatalf("a 10%% throughput drop passed:\n%s", out.String())
	}
}
