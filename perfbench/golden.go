package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// goldenDir holds the expected outputs, relative to the repository root.
const goldenDir = "perfbench/golden"

// readGolden returns one single-value golden file, trimmed.
func readGolden(name string) (string, error) {
	b, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

// checkGolden compares an observed value with its golden, or records it
// when goldens are being written.
func (e *env) checkGolden(o *outcome, name, got string) bool {
	if e.writing {
		e.golden[name] = got
		return true
	}
	want, err := readGolden(name)
	if err != nil {
		o.problem("golden %s: %v", name, err)
		return false
	}
	if want != got {
		o.problem("%s: got %s, golden %s", name, got, want)
		return false
	}
	return true
}

// loadServeKeys reads the per-key response digests of the serve key space.
func loadServeKeys() (map[string]string, error) {
	f, err := os.Open(filepath.Join(goldenDir, "serve_keys.txt"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), " "); ok {
			m[k] = v
		}
	}
	return m, sc.Err()
}

// writeGoldens recomputes every golden: it runs each workload and the
// figures layer pass once with checks switched to recording, sends every
// key of the serve key space to a fresh daemon, and runs the layer probe
// for the simulated statistics.
func writeGoldens(e *env) error {
	e.writing = true
	e.golden = map[string]string{}
	e.gotKeys = map[string]string{}
	for _, name := range []string{"resweep", "serve"} {
		fmt.Fprintf(os.Stderr, "perfbench: recording %s\n", name)
		if _, err := workloadRuns[name](e); err != nil {
			return err
		}
	}
	if err := recordKeySpace(e); err != nil {
		return err
	}
	var pr outcome
	pr.layers = map[string]float64{}
	if err := runFiguresLayers(e, &pr); err != nil {
		return err
	}
	if err := runProbe(e, &pr); err != nil {
		return err
	}
	if pr.nproblems > 0 {
		return fmt.Errorf("probe: %s", strings.Join(pr.problems, "; "))
	}
	if err := os.MkdirAll(goldenDir, 0o755); err != nil {
		return err
	}
	for name, v := range e.golden {
		if err := os.WriteFile(filepath.Join(goldenDir, name), []byte(v+"\n"), 0o644); err != nil {
			return err
		}
	}
	keys := make([]string, 0, len(e.gotKeys))
	for k := range e.gotKeys {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, e.gotKeys[k])
	}
	return os.WriteFile(filepath.Join(goldenDir, "serve_keys.txt"), []byte(b.String()), 0o644)
}

// recordKeySpace sends every simulate and phases key once to a fresh
// daemon and records the response digests (and its warm-up compile
// answers); a key already recorded by the seeded sequence must agree.
func recordKeySpace(e *env) error {
	dir, err := e.freshDir("golden")
	if err != nil {
		return err
	}
	d, _, err := e.startDaemon(dir)
	if err != nil {
		return err
	}
	sims, phases := keySpace()
	all := append(sims, phases...)
	samples, _ := closedLoop(e, d, all)
	if _, err := d.stop(); err != nil {
		return err
	}
	for _, s := range append(d.compiles, samples...) {
		if s.err != nil {
			return fmt.Errorf("%s: %v", s.key, s.err)
		}
		k := s.key.String()
		if prev, ok := e.gotKeys[k]; ok && prev != s.hash {
			return fmt.Errorf("%s: nondeterministic response (%s vs %s)", k, prev, s.hash)
		}
		e.gotKeys[k] = s.hash
	}
	return nil
}
