// Command cmp compares two benchmark result documents (bench -out) and
// applies BENCHMARK.json's bounds. It prints one row per (workload,
// metric): better, same, worse, or unresolved when the spread between
// a side's runs is wider than the bound. For two sets of runs of the
// same code it also checks the acceptance rule: every virtual-time
// metric identical seed for seed, every wall-clock metric within its
// bound. Run from bench/:
//
//	go run ./cmp [-spec ../BENCHMARK.json] OLD.json NEW.json
//
// It exits 1 when any row is worse.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"nilicon/bench/spec"
)

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type run struct {
	Workload string           `json:"workload"`
	Seed     int64            `json:"seed"`
	Trace    bool             `json:"trace"`
	Metrics  map[string]value `json:"metrics"`
}

type document struct {
	Runs []run `json:"runs"`
}

// benchmarkFile is the part of BENCHMARK.json cmp reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cmp:", err)
		os.Exit(2)
	}
}

// errWorse is returned when a row regressed; main maps it to exit 1.
type errWorse int

func (e errWorse) Error() string { return fmt.Sprintf("%d rows worse", int(e)) }

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cmp", flag.ContinueOnError)
	specPath := fs.String("spec", "../BENCHMARK.json", "BENCHMARK.json holding the end-to-end bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("usage: cmp [-spec BENCHMARK.json] OLD.json NEW.json")
	}
	bounds, err := loadBounds(*specPath)
	if err != nil {
		return err
	}
	var old, new document
	if err := load(fs.Arg(0), &old); err != nil {
		return err
	}
	if err := load(fs.Arg(1), &new); err != nil {
		return err
	}
	rows := compare(old, new, bounds)
	worse := 0
	fmt.Fprintf(stdout, "%-16s %-32s %14s %14s %8s %7s %7s  %s\n", "workload", "metric", "old", "new", "change", "bound", "spread", "verdict")
	identical, wallOK, accept := 0, 0, true
	for _, r := range rows {
		fmt.Fprintf(stdout, "%-16s %-32s %14.6g %14.6g %+7.2f%% %6.1f%% %6.2f%%  %s\n",
			r.workload, r.metric, r.old, r.new, 100*r.change, 100*r.bound, 100*r.spread, r.verdict)
		if r.verdict == "worse" {
			worse++
		}
		switch {
		case r.wall && (r.verdict == "same" || r.verdict == "better"):
			wallOK++
		case !r.wall && r.identical:
			identical++
		default:
			accept = false
		}
	}
	fmt.Fprintf(stdout, "acceptance (same code twice): %d virtual-time rows identical, %d wall-clock rows within bound, %d rows neither: %v\n",
		identical, wallOK, len(rows)-identical-wallOK, accept)
	if worse > 0 {
		return errWorse(worse)
	}
	return nil
}

// bound is one metric's comparison rule.
type bound struct {
	better string
	rel    float64
	wall   bool
}

// loadBounds takes the end-to-end bounds from BENCHMARK.json and the
// workload-specific extras from the shared metric table.
func loadBounds(path string) (map[string]bound, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	out := map[string]bound{}
	for _, m := range spec.Extras {
		out[m.Name] = bound{m.Better, m.Bound, m.Wall}
	}
	for _, m := range bf.EndToEnd {
		sm, _ := spec.Lookup(m.Name)
		out[m.Name] = bound{m.Better, m.Bound, sm.Wall}
	}
	return out, nil
}

func load(path string, doc *document) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

type row struct {
	workload, metric string
	old, new         float64 // medians
	change           float64 // relative; positive is worse
	bound, spread    float64
	wall, identical  bool
	verdict          string
}

// compare builds one row per (workload, metric) present on both sides,
// over untraced runs.
func compare(old, new document, bounds map[string]bound) []row {
	type key struct{ workload, metric string }
	collect := func(d document) map[key]map[int64]float64 {
		out := map[key]map[int64]float64{}
		for _, r := range d.Runs {
			if r.Trace {
				continue
			}
			for name, v := range r.Metrics {
				if _, ok := bounds[name]; !ok {
					continue
				}
				k := key{r.Workload, name}
				if out[k] == nil {
					out[k] = map[int64]float64{}
				}
				out[k][r.Seed] = v.Value
			}
		}
		return out
	}
	o, n := collect(old), collect(new)
	var keys []key
	for k := range o {
		if _, ok := n[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	var rows []row
	for _, k := range keys {
		b := bounds[k.metric]
		ov, nv := values(o[k]), values(n[k])
		r := row{workload: k.workload, metric: k.metric, old: spec.Median(ov), new: spec.Median(nv),
			bound: b.rel, wall: b.wall, spread: math.Max(spec.Spread(ov), spec.Spread(nv))}
		r.identical = sameBySeed(o[k], n[k])
		r.change, r.verdict = verdict(ov, nv, b)
		rows = append(rows, r)
	}
	return rows
}

// verdict applies one bound to two sets of runs. change is the relative
// move of the median, positive when worse. A side whose runs spread
// wider than the bound leaves the row unresolved, unless every new run
// reads better than every old run.
func verdict(old, new []float64, b bound) (change float64, v string) {
	mo, mn := spec.Median(old), spec.Median(new)
	switch {
	case mo != 0:
		change = (mn - mo) / math.Abs(mo)
	case mn != 0:
		change = math.Copysign(math.Inf(1), mn)
	}
	if b.better == "higher" {
		change = -change
	}
	if allBetter(old, new, b.better) && change < 0 {
		return change, "better"
	}
	if math.Max(spec.Spread(old), spec.Spread(new)) > b.rel && b.rel > 0 {
		return change, "unresolved"
	}
	switch {
	case change > b.rel:
		return change, "worse"
	case change < -b.rel:
		return change, "better"
	}
	return change, "same"
}

func allBetter(old, new []float64, better string) bool {
	if len(old) == 0 || len(new) == 0 {
		return false
	}
	for _, o := range old {
		for _, n := range new {
			if (better == "higher" && n <= o) || (better != "higher" && n >= o) {
				return false
			}
		}
	}
	return true
}

func sameBySeed(a, b map[int64]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for s, v := range a {
		if w, ok := b[s]; !ok || w != v {
			return false
		}
	}
	return true
}

func values(m map[int64]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, v := range m {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}
