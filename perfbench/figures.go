package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// runManifest is the subset of a ccrpaper -manifest record the benchmark
// reads. It is decoded by field name only, so the benchmark does not
// depend on the runner package's types.
type runManifest struct {
	WallSeconds float64 `json:"wall_seconds"`
	Cells       []struct {
		Error string `json:"error"`
	} `json:"cells"`
	Workers []struct {
		BusySeconds float64 `json:"busy_seconds"`
		Utilization float64 `json:"utilization"`
	} `json:"workers"`
	Caches map[string]struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"caches"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// figuresScale is the workload scale of the figures layer pass: a
// -fig all pass takes about 10 s at tiny against 34 s at small, which
// keeps a traced run well inside its time budget.
const figuresScale = "tiny"

// runFiguresLayers regenerates every figure once, in a fresh process with
// no store, and reads the suite cache and worker-pool figures of its
// manifest. It is part of every traced run, next to the layer probe:
// figures is not an end-to-end workload, because on a shared 2-vCPU host
// the wall time of its mostly serial process moves with the hypervisor's
// steal time far more than the benchmark's bounds allow (see meta.json),
// but its layers are still read. The stdout must match the golden byte
// for byte and -strict must exit 0.
func runFiguresLayers(e *env, o *outcome) error {
	dir, err := e.freshDir("figures")
	if err != nil {
		return err
	}
	sp := e.tr.begin("ccrpaper.figures", -1, 0)
	r, err := e.runProc(dir, nil, e.tool("ccrpaper"), "-scale", figuresScale, "-fig", "all",
		"-jobs", "2", "-strict", "-heartbeat", "0", "-manifest", "manifest.json")
	e.tr.end(sp)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "figures layer pass: %.3fs wall, %.2fs cpu\n", r.wall.Seconds(), r.cpu)
	var m runManifest
	if err := readJSON(filepath.Join(dir, "manifest.json"), &m); err != nil {
		o.problem("figures manifest: %v", err)
		o.attempted++
		o.failed++
		return nil
	}
	cells, failed := len(m.Cells), 0
	for _, c := range m.Cells {
		if c.Error != "" {
			failed++
		}
	}
	sum := sha256.Sum256(r.stdout)
	ok := e.checkGolden(o, "figures_stdout.sha256", hex.EncodeToString(sum[:]))
	if r.exit != 0 {
		o.problem("ccrpaper -strict exited %d: %s", r.exit, tail(r.stderr))
		ok = false
	}
	if !ok {
		failed = cells // the output as a whole is wrong
	}
	o.attempted += max(cells, 1)
	o.failed += failed
	for k, v := range figuresLayers(&m) {
		o.layers[k] = v
	}
	return nil
}

// figuresLayers reads the suite cache and worker-pool figures of one run.
func figuresLayers(m *runManifest) map[string]float64 {
	l := map[string]float64{
		"experiments.compile_misses":  float64(m.Caches["compile"].Misses),
		"experiments.base_sim_misses": float64(m.Caches["base_sim"].Misses),
		"experiments.ccr_sim_misses":  float64(m.Caches["ccr_sim"].Misses),
		"experiments.limit_misses":    float64(m.Caches["limit"].Misses),
	}
	var busy, util float64
	for _, w := range m.Workers {
		busy += w.BusySeconds
		util += w.Utilization
	}
	if n := float64(len(m.Workers)); n > 0 {
		l["runner.busy_s"] = busy
		l["runner.utilization"] = util / n
		l["runner.outside_pool_s"] = m.WallSeconds - busy/n
	}
	return l
}
