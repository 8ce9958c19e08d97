// Command perfbench is the repository's end-to-end benchmark. It drives
// the shipped entry points — `ccrpaper -fabric` and a `ccrd` daemon over
// the serve wire protocol — at -scale small with 2-way parallelism,
// checks every output against goldens kept in golden/, and prints one
// JSON result object as the last line of stdout.
//
// Workloads (see meta.json for the reasons and the metric table):
//
//	resweep  the -verify transparency sweep through the fabric, warm store
//	serve    a seeded closed-loop simulate/phases mix against ccrd -jobs 2
//
// Usage (from the repository root, normally through run.sh, which builds
// the binaries first):
//
//	perfbench -bin DIR -work DIR -workload NAME -seed N -seconds S -trace 0|1
//	perfbench -bin DIR -work DIR -write-golden
//
// With -trace 0 the result carries the end-to-end metrics (wall_s, cpu_s,
// setup_s, peak_rss_mb). With -trace 1 it carries the per-layer metrics:
// spans are recorded in memory around every process, fabric pass, request
// and layer-probe call and written once at the end, the layer probe
// (probe.go) runs on the stable pipeline entry points, and one ccrpaper
// -fig all pass (figures.go) gives the suite cache and worker-pool layers. Any output or
// simulated-statistic mismatch makes the result "correct": false and the
// exit status 1.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runBudget bounds one invocation: every child process is killed when it
// runs out, so the benchmark always ends within its time limit.
const runBudget = 170 * time.Second

// Metric is one named figure of the result object.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last stdout line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports untraced.
var endToEnd = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics every traced run reports; a layer
// the workload does not exercise reads 0. The simulated statistics
// (emu.dyn_instrs through region.regions) are host-independent.
var perLayer = []struct{ name, unit string }{
	{"vprof.profile_s", "s"}, {"vprof.self_s", "s"},
	{"experiments.compile_misses", "count"}, {"experiments.base_sim_misses", "count"},
	{"experiments.ccr_sim_misses", "count"}, {"experiments.limit_misses", "count"},
	{"runner.outside_pool_s", "s"}, {"runner.utilization", "ratio"}, {"runner.busy_s", "s"},
	{"potential.measure_s", "s"},
	{"emu.careful_s", "s"}, {"emu.careful_minstr_s", "s/Minstr"}, {"uarch.self_s", "s"},
	{"alias.prepare_s", "s"}, {"region.form_s", "s"}, {"xform.transform_s", "s"},
	{"emu.batch_s", "s"}, {"emu.batch_nospec_s", "s"}, {"emu.batch_minstr_s", "s/Minstr"},
	{"oracle.self_s", "s"},
	{"store.puts", "count"}, {"store.entries", "count"}, {"store.put_waste", "ratio"},
	{"store.hit_rate", "ratio"}, {"store.quarantined", "count"},
	{"fabric.cell_busy_s", "s"}, {"fabric.overhead_s", "s"}, {"fabric.slot_skew", "ratio"},
	{"fabric.requeues", "count"}, {"fabric.restarts", "count"},
	{"serve.repeat_server_p50_ms", "ms"}, {"wire.repeat_overhead_p50_ms", "ms"},
	{"serve.first_server_p50_ms", "ms"}, {"serve.cache_hit_rate", "ratio"},
	{"serve.ccr_sim_misses", "count"},
	{"client.throughput_rps", "1/s"}, {"client.repeat_p50_ms", "ms"}, {"client.repeat_p99_ms", "ms"},
	{"client.first_p50_ms", "ms"}, {"client.first_p95_ms", "ms"},
	{"client.phases_p50_ms", "ms"}, {"client.phases_p95_ms", "ms"},
	{"emu.dyn_instrs", "count"}, {"uarch.cycles", "count"}, {"crb.lookups", "count"},
	{"crb.hit_ratio", "ratio"}, {"reuse.dtm_lookups", "count"}, {"reuse.dtm_hit_ratio", "ratio"},
	{"region.regions", "count"},
	{"trace.overhead_s", "s"},
}

// env is the per-invocation context shared by the workloads.
type env struct {
	bin     string // directory holding ccrpaper and ccrd
	work    string // scratch directory for this invocation
	records string // persistent per-checkout records (untraced walls, traces)
	seed    uint64
	seconds float64
	ctx     context.Context // expires at the end of the run budget
	tr      *tracer         // nil when untraced

	// Golden recording (-write-golden): checks record instead of compare.
	writing bool
	golden  map[string]string // file name -> value
	gotKeys map[string]string // serve key -> response digest
}

func (e *env) tool(name string) string { return filepath.Join(e.bin, name) }

// freshDir creates a new, empty directory for one workload run, so a
// traced run never inherits the store or journal of an earlier run.
func (e *env) freshDir(name string) (string, error) {
	return os.MkdirTemp(e.work, name+"-")
}

// outcome is what one workload run measured and checked.
type outcome struct {
	wall, cpu, setup, rssMB float64
	attempted, failed       int
	problems                []string // the first maxProblems check failures
	nproblems               int
	layers                  map[string]float64 // per-layer readings (traced runs)
	extra                   []namedMetric      // workload-specific figures, printed only
}

type namedMetric struct {
	name  string
	value float64
	unit  string
}

// maxProblems bounds the check failures kept for the report.
const maxProblems = 20

func (o *outcome) problem(format string, args ...any) {
	o.nproblems++
	if len(o.problems) < maxProblems {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

var workloadRuns = map[string]func(*env) (*outcome, error){
	"resweep": runResweep,
	"serve":   runServe,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == probeBatchCmd {
		probeBatchMain()
		return
	}
	os.Exit(run())
}

// run is main without os.Exit, so deferred clean-up always happens. It
// returns 0 for a correct result, 1 for a failed check and 2 when no
// result could be produced.
func run() int {
	bin := flag.String("bin", "", "directory holding the built ccrpaper and ccrd binaries")
	work := flag.String("work", "", "scratch directory (created; this invocation's files are removed on exit)")
	workload := flag.String("workload", "", "resweep or serve")
	seed := flag.Uint64("seed", defaultSeed, "input seed (the serve request sequence)")
	seconds := flag.Float64("seconds", 10, "minimum measured time per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	writeGolden := flag.Bool("write-golden", false, "recompute every golden under perfbench/golden and exit")
	flag.Parse()

	wl, ok := workloadRuns[*workload]
	switch {
	case *bin == "" || *work == "":
		return fail("perfbench: -bin and -work are required (use perfbench/run.sh)")
	case !ok && !*writeGolden:
		return fail("perfbench: unknown -workload %q (want resweep or serve)", *workload)
	case *trace != 0 && *trace != 1:
		return fail("perfbench: -trace must be 0 or 1")
	case *seconds <= 0:
		return fail("perfbench: -seconds must be positive")
	}
	for _, t := range []string{"ccrpaper", "ccrd"} {
		if _, err := os.Stat(filepath.Join(*bin, t)); err != nil {
			return fail("perfbench: %v", err)
		}
	}
	binDir, err := filepath.Abs(*bin)
	if err != nil {
		return fail("perfbench: %v", err)
	}
	// The work directory stays relative: the daemon's unix socket lives
	// below it and socket paths are limited to about 100 bytes.
	scratch := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	records := filepath.Join(*work, "records")
	for _, d := range []string{scratch, records} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return fail("perfbench: %v", err)
		}
	}
	defer os.RemoveAll(scratch)
	budget := runBudget
	if *writeGolden {
		budget = 30 * time.Minute
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	e := &env{bin: binDir, work: scratch, records: records, seed: *seed, seconds: *seconds, ctx: ctx}

	if *writeGolden {
		if err := writeGoldens(e); err != nil {
			return fail("perfbench: write goldens: %v", err)
		}
		return 0
	}
	printMachine()
	var res Result
	if *trace == 1 {
		res, err = traced(e, *workload, wl)
	} else {
		res, err = untraced(e, *workload, wl)
	}
	if err != nil {
		return fail("perfbench: %s: %v", *workload, err)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// untraced runs the workload once and reports its end-to-end metrics.
func untraced(e *env, name string, run func(*env) (*outcome, error)) (Result, error) {
	o, err := run(e)
	if err != nil {
		return Result{}, err
	}
	appendRecord(e, name, o.wall)
	report(name, o)
	vals := map[string]float64{"wall_s": o.wall, "cpu_s": o.cpu, "setup_s": o.setup, "peak_rss_mb": o.rssMB}
	metrics := map[string]Metric{}
	for _, m := range endToEnd {
		metrics[m.name] = Metric{Value: vals[m.name], Unit: m.unit}
	}
	return Result{Correct: o.nproblems == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}, nil
}

// traced runs the workload with span recording, then the layer probe and
// the figures layer pass, and reports every per-layer metric (0 for a layer the workload does not
// exercise). The tracing overhead is the traced wall minus the median of
// this checkout's untraced walls; with no untraced record yet, one
// untraced run is made first.
func traced(e *env, name string, run func(*env) (*outcome, error)) (Result, error) {
	walls := readRecords(e, name)
	if len(walls) == 0 {
		o, err := run(e)
		if err != nil {
			return Result{}, err
		}
		appendRecord(e, name, o.wall)
		walls = []float64{o.wall}
	}
	e.tr = newTracer()
	o, err := run(e)
	if err != nil {
		return Result{}, err
	}
	// The probe's problems are listed first, so a simulated-statistics
	// mismatch shows even when the workload's checks fail by the thousand.
	p := &outcome{layers: o.layers}
	if err := runProbe(e, p); err != nil {
		return Result{}, err
	}
	if err := runFiguresLayers(e, p); err != nil {
		return Result{}, err
	}
	o.layers = p.layers
	o.attempted += p.attempted
	o.failed += p.failed
	o.nproblems += p.nproblems
	o.problems = append(p.problems, o.problems...)[:min(o.nproblems, maxProblems)]
	o.layers["trace.overhead_s"] = o.wall - median(walls)
	report(name, o)
	e.tr.report(os.Stderr)
	tracePath := filepath.Join(e.records, fmt.Sprintf("trace-%s-seed%d.json", name, e.seed))
	if err := e.tr.writeChrome(tracePath); err != nil {
		return Result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", tracePath)

	metrics := map[string]Metric{}
	fmt.Fprintf(os.Stderr, "%-32s %14s  %s\n", "per-layer metric", "value", "unit")
	for _, m := range perLayer {
		v := o.layers[m.name]
		metrics[m.name] = Metric{Value: v, Unit: m.unit}
		fmt.Fprintf(os.Stderr, "%-32s %14.6g  %s\n", m.name, v, m.unit)
	}
	return Result{Correct: o.nproblems == 0, Attempted: o.attempted, Failed: o.failed, Metrics: metrics}, nil
}

// report prints the human-readable summary of one run on stderr: every
// end-to-end metric with its unit, failed_frac, workload extras, problems.
func report(name string, o *outcome) {
	w := os.Stderr
	fmt.Fprintf(w, "== %s\n", name)
	rows := []namedMetric{
		{"wall_s", o.wall, "s"}, {"cpu_s", o.cpu, "s"}, {"setup_s", o.setup, "s"},
		{"peak_rss_mb", o.rssMB, "MB"},
		{"failed_frac", float64(o.failed) / float64(max(o.attempted, 1)), "ratio"},
	}
	rows = append(rows, o.extra...)
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %14.6g  %s\n", r.name, r.value, r.unit)
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", o.attempted, o.failed)
	for _, p := range o.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	if o.nproblems > len(o.problems) {
		fmt.Fprintf(w, "... and %d more check failures\n", o.nproblems-len(o.problems))
	}
}

// printMachine records the measuring machine on stderr.
func printMachine() {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if strings.HasPrefix(l, "model name") {
				if i := strings.Index(l, ":"); i >= 0 {
					model = strings.TrimSpace(l[i+1:])
				}
				break
			}
		}
	}
	fmt.Fprintf(os.Stderr, "machine: nproc %d, GOMAXPROCS %d, cpu %q, %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), model, runtime.Version())
}

// appendRecord remembers an untraced wall time for later traced runs.
func appendRecord(e *env, name string, wall float64) {
	f, err := os.OpenFile(filepath.Join(e.records, "untraced-"+name+".txt"),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return
	}
	fmt.Fprintf(f, "%.9f\n", wall)
	f.Close()
}

func readRecords(e *env, name string) []float64 {
	b, err := os.ReadFile(filepath.Join(e.records, "untraced-"+name+".txt"))
	if err != nil {
		return nil
	}
	var out []float64
	for _, l := range strings.Fields(string(b)) {
		var v float64
		if _, err := fmt.Sscan(l, &v); err == nil {
			out = append(out, v)
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func fail(format string, args ...any) int {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	return 2
}
