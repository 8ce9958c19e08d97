package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"ccr/internal/alias"
	"ccr/internal/core"
	"ccr/internal/emu"
	"ccr/internal/potential"
	"ccr/internal/region"
	"ccr/internal/reuse"
	"ccr/internal/vprof"
	"ccr/internal/workloads"
	"ccr/internal/xform"
)

// The layer probe times each pipeline stage on the 13 benchmarks at
// -scale small (training input) through a deliberately narrow set of
// entry points — workloads.All, core.Prepare, core.ProfileRun,
// region.Form, xform.Transform, core.SimulateReuse,
// core.RunFunctionalReuse, core.DigestRunReuse, potential.Measure and
// emu.New — so it keeps building while the pipeline behind them is
// refactored. Self times come by difference against emu.New with a no-op
// tracer, the careful-tier baseline every traced stage pays.

// probeBatchCmd is the hidden subcommand that times the untraced batch
// tier alone; the probe reruns it in a child process with CCR_SPEC=off to
// measure the specialization tier's share without touching its API.
const probeBatchCmd = "probe-batch"

// batchReps is how many times each untraced run is repeated; the median
// is kept, since a single run takes about a millisecond.
const batchReps = 5

// simRow is one benchmark's simulated statistics. These are properties of
// the modelled machine, not of the host: they must not move at all, and
// golden/simstats.json pins them exactly.
type simRow struct {
	Bench      string `json:"bench"`
	Result     int64  `json:"result"`
	DynInstrs  int64  `json:"dyn_instrs"`
	BaseCycles int64  `json:"base_cycles"`
	CCRCycles  int64  `json:"ccr_cycles"`
	CRBLookups int64  `json:"crb_lookups"`
	CRBHits    int64  `json:"crb_hits"`
	DTMLookups int64  `json:"dtm_lookups"`
	DTMHits    int64  `json:"dtm_hits"`
	Regions    int    `json:"regions"`
}

// check counts one probe check into o.
func (o *outcome) check(ok bool, format string, args ...any) {
	o.attempted++
	if !ok {
		o.failed++
		o.problem(format, args...)
	}
}

// runProbe runs the layer probe in this process, then the batch-tier
// timing again in a child with CCR_SPEC=off, adding its readings to
// o.layers and its checks to o.
func runProbe(e *env, o *outcome) error {
	secs := map[string]float64{}
	root := e.tr.begin("probe", -1, 0)
	timed := func(name string, f func() error) error {
		sp := e.tr.begin(name, root, 0)
		t := time.Now()
		err := f()
		secs[name] += time.Since(t).Seconds()
		e.tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		return nil
	}
	opts := core.DefaultOptions()
	var benches []*workloads.Benchmark
	timed("workloads.all", func() error { benches = workloads.All(workloads.Small); return nil })

	var rows []simRow
	for _, b := range benches {
		row, err := probeBench(b, opts, timed, o)
		if err != nil {
			e.tr.end(root)
			return err
		}
		rows = append(rows, row)
	}
	batch, err := batchSeconds(benches)
	if err != nil {
		e.tr.end(root)
		return err
	}
	secs["emu.batch"] = batch
	e.tr.end(root)

	self, err := os.Executable()
	if err != nil {
		return err
	}
	sp := e.tr.begin("probe.nospec_child", -1, 0)
	r, err := e.runProc(".", []string{"CCR_SPEC=off"}, self, probeBatchCmd)
	e.tr.end(sp)
	if err != nil {
		return err
	}
	var child struct{ BatchSeconds float64 }
	if r.exit != 0 || json.Unmarshal(r.stdout, &child) != nil {
		return fmt.Errorf("probe child exited %d: %s", r.exit, tail(r.stderr))
	}

	var tot simRow
	for _, r := range rows {
		tot.DynInstrs += r.DynInstrs
		tot.CCRCycles += r.CCRCycles
		tot.CRBLookups += r.CRBLookups
		tot.CRBHits += r.CRBHits
		tot.DTMLookups += r.DTMLookups
		tot.DTMHits += r.DTMHits
		tot.Regions += r.Regions
	}
	minstr := float64(tot.DynInstrs) / 1e6
	if o.layers == nil {
		o.layers = map[string]float64{}
	}
	l := o.layers
	l["alias.prepare_s"] = secs["alias.prepare"]
	l["vprof.profile_s"] = secs["vprof.profile"]
	l["vprof.self_s"] = secs["vprof.profile"] - secs["emu.careful"]
	l["region.form_s"] = secs["region.form"]
	l["xform.transform_s"] = secs["xform.transform"]
	l["emu.careful_s"] = secs["emu.careful"]
	l["emu.careful_minstr_s"] = secs["emu.careful"] / minstr
	l["emu.batch_s"] = batch
	l["emu.batch_nospec_s"] = child.BatchSeconds
	l["emu.batch_minstr_s"] = batch / minstr
	l["uarch.self_s"] = secs["uarch.base_sim"] - secs["emu.careful"]
	l["oracle.self_s"] = secs["oracle.digest"] - secs["emu.careful"]
	l["potential.measure_s"] = secs["potential.measure"]
	l["emu.dyn_instrs"] = float64(tot.DynInstrs)
	l["uarch.cycles"] = float64(tot.CCRCycles)
	l["crb.lookups"] = float64(tot.CRBLookups)
	l["crb.hit_ratio"] = ratio(tot.CRBHits, tot.CRBLookups)
	l["reuse.dtm_lookups"] = float64(tot.DTMLookups)
	l["reuse.dtm_hit_ratio"] = ratio(tot.DTMHits, tot.DTMLookups)
	l["region.regions"] = float64(tot.Regions)

	b, _ := json.MarshalIndent(rows, "", " ")
	if e.writing {
		e.golden["simstats.json"] = string(b)
	} else {
		want, err := readGolden("simstats.json")
		o.check(err == nil && want == strings.TrimSpace(string(b)),
			"simulated statistics differ from golden/simstats.json (err %v):\n%s", err, b)
	}
	return nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probeBench runs every probed stage on one benchmark and cross-checks
// that all of them compute the same architectural result.
func probeBench(b *workloads.Benchmark, opts core.Options, timed func(string, func() error) error, o *outcome) (simRow, error) {
	row := simRow{Bench: b.Name}
	args := b.Train
	var (
		ar      *alias.Result
		prof    *vprof.Profile
		plans   []*region.Plan
		prog    = b.Prog
		results = map[string]int64{}
	)
	steps := []struct {
		name string
		f    func() error
	}{
		{"alias.prepare", func() error { ar = core.Prepare(b.Prog); return nil }},
		{"vprof.profile", func() error {
			var err error
			prof, results["profile"], err = core.ProfileRun(b.Prog, args, opts.Limit)
			return err
		}},
		{"region.form", func() error { plans = region.Form(b.Prog, prof, ar, opts.Region); return nil }},
		{"xform.transform", func() error {
			var err error
			prog, err = xform.Transform(b.Prog, plans)
			return err
		}},
		{"emu.careful", func() error {
			m := emu.New(b.Prog)
			m.Limit = opts.Limit
			m.Trace = func(*emu.Event) {}
			res, err := m.Run(args...)
			results["careful"], row.DynInstrs = res, m.Stats.DynInstrs
			return err
		}},
		{"uarch.base_sim", func() error {
			r, err := core.SimulateReuse(b.Prog, reuse.Config{Scheme: reuse.Off}, opts.Uarch, args, opts.Limit, nil)
			if err == nil {
				results["base_sim"], row.BaseCycles = r.Result, r.Cycles
			}
			return err
		}},
		{"uarch.ccr_sim", func() error {
			r, err := core.SimulateReuse(prog, reuse.CCR(opts.CRB), opts.Uarch, args, opts.Limit, nil)
			if err == nil {
				results["ccr_sim"], row.CCRCycles = r.Result, r.Cycles
				row.CRBLookups, row.CRBHits = r.CRB.Lookups, r.CRB.Hits
			}
			return err
		}},
		{"uarch.dtm_sim", func() error {
			r, err := core.SimulateReuse(b.Prog, reuse.DTMOnly(opts.DTM), opts.Uarch, args, opts.Limit, nil)
			if err == nil {
				results["dtm_sim"] = r.Result
				row.DTMLookups, row.DTMHits = r.DTM.Lookups, r.DTM.Hits
			}
			return err
		}},
		{"emu.functional_ccr", func() error {
			r, err := core.RunFunctionalReuse(prog, reuse.CCR(opts.CRB), args, opts.Limit)
			if err == nil {
				results["functional_ccr"] = r.Result
			}
			return err
		}},
		{"oracle.digest", func() error {
			d, err := core.DigestRunReuse(b.Prog, reuse.Config{Scheme: reuse.Off}, args, opts.Limit)
			results["digest"] = d.Result
			return err
		}},
		{"potential.measure", func() error {
			_, err := potential.Measure(b.Prog, args, opts.Limit)
			return err
		}},
	}
	for _, s := range steps {
		if err := timed(s.name, s.f); err != nil {
			return row, fmt.Errorf("%s: %w", b.Name, err)
		}
	}
	row.Result = results["careful"]
	row.Regions = len(plans)
	for stage, res := range results {
		o.check(res == row.Result, "%s: %s result %d, careful run %d", b.Name, stage, res, row.Result)
	}
	return row, nil
}

// batchSeconds times the untraced batch tier (emu.New, no tracer) over
// every benchmark: the median of batchReps runs each, summed.
func batchSeconds(benches []*workloads.Benchmark) (float64, error) {
	var total float64
	for _, b := range benches {
		var ts []float64
		for range batchReps {
			m := emu.New(b.Prog)
			t := time.Now()
			if _, err := m.Run(b.Train...); err != nil {
				return 0, fmt.Errorf("batch %s: %w", b.Name, err)
			}
			ts = append(ts, time.Since(t).Seconds())
		}
		total += median(ts)
	}
	return total, nil
}

// probeBatchMain is the child side of the CCR_SPEC=off measurement.
func probeBatchMain() {
	benches := workloads.All(workloads.Small)
	for _, b := range benches {
		core.Prepare(b.Prog)
	}
	s, err := batchSeconds(benches)
	if err != nil {
		os.Exit(fail("perfbench: %v", err))
	}
	json.NewEncoder(os.Stdout).Encode(struct{ BatchSeconds float64 }{s})
}
