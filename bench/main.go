// Command bench is the repository's re-runnable benchmark: five
// workloads built from the public APIs of simtime, core, cluster,
// workloads, traffic and faultinject, timed from outside. It prints
// every end-to-end metric by name with its unit, ends with one JSON
// line, and exits non-zero when a correctness check fails.
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds N] [-trace 0|1] [-runs N] [-out FILE]
//
// Without -workload every workload runs, each in its own child process
// so peak_rss_mb is that workload's. -trace 1 adds a traced run: per-
// layer metrics, a CPU profile, spans and epoch timelines under
// -trace-dir. See README.md.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"

	"nilicon/bench/spec"
	"nilicon/internal/simtime"
	"nilicon/internal/workloads"
)

// runSeconds is the default run length; BENCHMARK.json's run_seconds.
const runSeconds = 12

// workload is one benchmark input set. A run repeats a fixed-size unit
// (one or more fresh worlds) units(seconds) times, so the virtual-time
// results depend only on the seed and the run length, never on how fast
// the machine is.
type workload struct {
	name string
	why  string
	// unitWall is one unit's nominal wall time on the reference box
	// (2 vCPU), which converts a run length into a unit count.
	unitWall float64
	run      func(r *run, units int)
}

// minUnits keeps a median over units meaningful on short runs.
const minUnits = 3

func (w workload) units(seconds int) int {
	return max(minUnits, int(math.Round(float64(seconds)/w.unitWall)))
}

var workloadList = []workload{
	{
		name:     "redis-ycsb",
		why:      "closed-loop Redis with ~26 MB dirtied per epoch: criu and simkernel page copying dominate stop time and simulator cost",
		unitWall: 4.0,
		run: func(r *run, n int) {
			runYCSB(r, ycsbShape{mk: workloads.Redis, warmup: simtime.Second, stock: 2 * simtime.Second, measure: 6 * simtime.Second}, n)
		},
	},
	{
		name:     "ssdb-ycsb",
		why:      "closed-loop SSDB with every write synced to DRBD: disk writes and barriers gate each epoch, little page state",
		unitWall: 3.0,
		run: func(r *run, n int) {
			runYCSB(r, ycsbShape{mk: workloads.SSDB, warmup: simtime.Second, stock: 4 * simtime.Second, measure: 20 * simtime.Second}, n)
		},
	},
	{
		name:     "kv-replay",
		why:      "open-loop small kv under record/replay: output waits for log commit, not epoch commit; capacity set by stop and log CPU",
		unitWall: 1.6,
		run: func(r *run, n int) {
			runKVReplay(r, kvShape{probes: 7, probeFor: 2 * simtime.Second, nominal: 12000, measure: 5 * simtime.Second}, n)
		},
	},
	{
		name:     "redis-failover",
		why:      "open-loop Redis through a fail-stop: detector, lease barrier, criu restore, ARP and TCP resume, and isolated-primary memory",
		unitWall: 0.8,
		run: func(r *run, n int) {
			runFailover(r, failoverShape{mk: workloads.Redis, before: 2 * simtime.Second, after: simtime.Second, drain: 500 * simtime.Millisecond}, n)
		},
	},
	{
		name:     "fleet-zonekill",
		why:      "48 width-3 chains lose a zone: event-dominated simtime and cluster load, chain promotion and rolling re-protection",
		unitWall: 0.9,
		run: func(r *run, n int) {
			runFleet(r, fleetShape{chains: 48, workers: 12, spares: 3, warmup: simtime.Second,
				before: 3 * simtime.Second, after: 2 * simtime.Second, cap: 30 * simtime.Second, tail: simtime.Second}, n)
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one workload run as bench/cmp reads it.
type runResult struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Units     int              `json:"units"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Errors    []string         `json:"errors,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
}

// document is a result file: what produced it and every run.
type document struct {
	Manifest manifest    `json:"manifest"`
	Runs     []runResult `json:"runs"`
}

// errCheck marks a run whose correctness checks failed.
var errCheck = errors.New("correctness check failed")

func main() {
	// A world runs on one simulation goroutine; with one P the collector
	// and the reference kernel run on the same CPU as the simulation, so
	// what the machine's other CPU is doing does not move the results.
	runtime.GOMAXPROCS(1)
	if err := mainErr(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		if errors.Is(err, errCheck) {
			os.Exit(1)
		}
		os.Exit(2)
	}
}

func mainErr(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: all, each in a child process)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", runSeconds, "run length; sets how many units each workload runs")
	traceOn := fs.Int("trace", 0, "1: also run traced and report per-layer metrics instead of end-to-end ones")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "directory for profiles, spans and timelines")
	runs := fs.Int("runs", 1, "with all workloads: seeds seed..seed+runs-1")
	out := fs.String("out", "", "write the result document (JSON) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceOn != 0 && *traceOn != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceOn)
	}
	if *seconds < 1 || *runs < 1 {
		return fmt.Errorf("-seconds and -runs must be positive")
	}
	if *name == "" {
		return runAll(stdout, *seed, *seconds, *traceOn, *traceDir, *runs, *out)
	}
	wl, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	res, err := runWorkload(wl, *seed, *seconds, *traceOn == 1, *traceDir)
	if err != nil {
		return err
	}
	printResult(stdout, res, newManifest(*seed, *seconds))
	if *out != "" {
		if err := writeDocument(*out, document{newManifest(*seed, *seconds), []runResult{res}}); err != nil {
			return err
		}
	}
	if !res.Correct {
		return fmt.Errorf("%s: %w", wl.name, errCheck)
	}
	return nil
}

// runWorkload runs one workload in this process: untraced for the
// end-to-end metrics, and when traced once more with tracing on for the
// per-layer metrics and the tracing overhead.
func runWorkload(wl workload, seed int64, seconds int, traced bool, traceDir string) (runResult, error) {
	units := wl.units(seconds)
	r := newRun(seed, false)
	wl.run(r, units)
	res := runResult{Workload: wl.name, Seed: seed, Trace: traced, Units: units, Metrics: map[string]value{}}
	e2e := endToEndValues(r)
	res.Attempted, res.Failed = r.attempted, r.failed
	res.Errors = append(res.Errors, r.errors...)
	res.Notes = r.notes
	if !traced {
		for _, m := range append(append([]spec.Metric(nil), spec.EndToEnd...), spec.Extras...) {
			if v, ok := e2e[m.Name]; ok {
				res.Metrics[m.Name] = value{v, m.Unit}
			}
		}
		res.Correct = len(res.Errors) == 0 && res.Attempted > 0
		return res, nil
	}

	dir := filepath.Join(traceDir, wl.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return res, err
	}
	prof, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return res, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return res, fmt.Errorf("start profile: %w", err)
	}
	rt := newRun(seed, true)
	pprof.Do(rt.ctx, pprof.Labels("phase", "setup"), func(ctx context.Context) {
		rt.ctx = ctx
		wl.run(rt, units)
	})
	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return res, err
	}
	if err := rt.tr.write(dir); err != nil {
		return res, err
	}
	shares, err := profileShares(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return res, err
	}
	layer := rt.layer.metrics(rt)
	for pkg, pct := range shares {
		layer[pkg+".self_pct"] = pct
	}
	traced0 := endToEndValues(rt)["sim_speed_x"]
	layer["trace_overhead_pct"] = 100 * (e2e["sim_speed_x"] - traced0) / e2e["sim_speed_x"]
	for _, m := range spec.PerLayer {
		res.Metrics[m.Name] = value{layer[m.Name], m.Unit}
	}
	res.Errors = append(res.Errors, rt.errors...)
	res.Notes = rt.notes
	res.Correct = len(res.Errors) == 0 && res.Attempted > 0
	return res, nil
}

// endToEndValues computes the end-to-end metrics and extras of a run.
func endToEndValues(r *run) map[string]float64 {
	m := map[string]float64{}
	for k, v := range r.extra {
		m[k] = v
	}
	vs := r.replVirt.Seconds()
	n := len(r.lat)
	want := 99.9
	if r.closedLoop {
		want = 95
	}
	tail := tailPercentile(n, want)
	lat := append([]float64(nil), r.lat...)
	m["tput_rps"] = float64(r.completions) / vs
	m["resp_p50_ms"] = percentile(lat, 50)
	m["resp_tail_ms"] = percentile(lat, tail)
	m["resp_max_ms"] = maxOf(lat)
	m["wire_mb_per_s"] = float64(r.wire) / 1e6 / vs
	// Wall-clock times are scaled to the reference box (calibrate.go).
	ref := spec.Median(r.refs)
	f := ref / refNominal.Seconds()
	speed, setup := spec.Median(r.speeds), spec.Median(r.setups)
	m["sim_speed_x"] = speed * f
	m["setup_s"] = setup / f
	m["peak_rss_mb"] = peakRSSMB()
	r.notes = append(r.notes, fmt.Sprintf("reference kernel %.3fms (median of %d): wall-clock times scaled by %.4f from sim_speed_x %.4g, setup_s %.4g",
		ref*1000, len(r.refs), f, speed, setup))
	if r.attempted > 0 {
		m["error_rate"] = float64(r.failed) / float64(r.attempted)
	}
	kind := "requests"
	if r.closedLoop {
		kind = "batches"
	}
	r.notes = append(r.notes, fmt.Sprintf("resp_tail_ms is p%v of %d %s", tail, n, kind))
	return m
}

// printResult writes the human-readable report, then the one-line JSON
// result as the last line.
func printResult(w io.Writer, res runResult, man manifest) {
	mj, _ := json.Marshal(man) // plain struct: cannot fail
	fmt.Fprintf(w, "# workload=%s seed=%d units=%d trace=%v\n# manifest %s\n", res.Workload, res.Seed, res.Units, res.Trace, mj)
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := res.Metrics[k]
		fmt.Fprintf(w, "%-34s %s %s\n", k, strconv.FormatFloat(v.Value, 'g', -1, 64), v.Unit)
	}
	for _, n := range res.Notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", e)
	}
	// The result line holds exactly the BENCHMARK.json list.
	list := spec.EndToEnd
	if res.Trace {
		list = spec.PerLayer
	}
	ms := map[string]value{}
	for _, m := range list {
		ms[m.Name] = res.Metrics[m.Name]
	}
	line, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, ms})
	fmt.Fprintf(w, "%s\n", line)
}

// runAll runs every workload for each of runs seeds, each run in its own
// child process, one at a time and one workload after another, and
// writes the merged document.
func runAll(stdout io.Writer, seed int64, seconds, traceFlag int, traceDir string, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(".bench_build", "out-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	doc := document{Manifest: newManifest(seed, seconds)}
	var failed []string
	for _, wl := range workloadList {
		for s := seed; s < seed+int64(runs); s++ {
			part := filepath.Join(tmp, fmt.Sprintf("%s-%d.json", wl.name, s))
			cmd := exec.Command(exe, "-workload", wl.name, "-seed", strconv.FormatInt(s, 10),
				"-seconds", strconv.Itoa(seconds), "-trace", strconv.Itoa(traceFlag), "-trace-dir", traceDir, "-out", part)
			cmd.Stdout, cmd.Stderr = stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				failed = append(failed, fmt.Sprintf("%s seed %d: %v", wl.name, s, err))
			}
			var d document
			if err := readDocument(part, &d); err != nil {
				failed = append(failed, fmt.Sprintf("%s seed %d: %v", wl.name, s, err))
				continue
			}
			doc.Runs = append(doc.Runs, d.Runs...)
		}
	}
	if out != "" {
		if err := writeDocument(out, doc); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("%d runs failed: %v: %w", len(failed), failed, errCheck)
	}
	return nil
}

func writeDocument(path string, doc document) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDocument(path string, doc *document) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, doc)
}
