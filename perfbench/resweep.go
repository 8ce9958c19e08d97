package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// fabricManifest is the subset of a fabric manifest.json the benchmark
// reads, decoded by field name.
type fabricManifest struct {
	WallSeconds float64 `json:"wall_seconds"`
	Cells       int     `json:"cells"`
	Requeues    int     `json:"requeues"`
	Restarts    int     `json:"restarts"`
	Slots       []struct {
		Slot string `json:"slot"`
	} `json:"slots"`
	Store *struct {
		Puts   int64 `json:"puts"`
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"store"`
}

// journalCell is one committed journal line.
type journalCell struct {
	Cell string `json:"cell"`
	Out  struct {
		Verified bool `json:"verified"`
	} `json:"out"`
	Slot    string  `json:"slot"`
	Seconds float64 `json:"seconds"`
}

// fabricPass is one finished `ccrpaper -fabric` run.
type fabricPass struct {
	proc     procResult
	manifest fabricManifest
	digests  []byte
	journal  []journalCell
}

// runFabric runs one verification sweep through the fabric with a fresh
// journal directory against the shared store.
func (e *env) runFabric(dir, name, store string) (*fabricPass, error) {
	sp := e.tr.begin("ccrpaper.fabric."+name, -1, 0)
	r, err := e.runProc(dir, nil, e.tool("ccrpaper"), "-scale", "small",
		"-fabric", name, "-fabric-workers", "2", "-store", store)
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	if r.exit != 0 {
		return nil, fmt.Errorf("ccrpaper -fabric exited %d: %s", r.exit, tail(r.stderr))
	}
	p := &fabricPass{proc: r}
	jd := filepath.Join(dir, name)
	if err := readJSON(filepath.Join(jd, "manifest.json"), &p.manifest); err != nil {
		return nil, err
	}
	if p.digests, err = os.ReadFile(filepath.Join(jd, "digests.json")); err != nil {
		return nil, err
	}
	jb, err := os.ReadFile(filepath.Join(jd, "journal.jsonl"))
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(bytes.NewReader(jb))
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var c journalCell
		if json.Unmarshal(sc.Bytes(), &c) == nil && c.Cell != "" {
			p.journal = append(p.journal, c)
		}
	}
	return p, sc.Err()
}

// minWarmPasses is the fewest warm passes in one resweep run.
const minWarmPasses = 3

// runResweep sets up with a cold sweep into an empty store, then repeats
// the same sweep with a fresh journal against the warm store until
// -seconds have passed and at least minWarmPasses times. digests.json must be identical in
// every pass and equal the golden; every journal cell must be verified.
func runResweep(e *env) (*outcome, error) {
	o := &outcome{}
	dir, err := e.freshDir("resweep")
	if err != nil {
		return nil, err
	}
	store := "store"
	cold, err := e.runFabric(dir, "cold", store)
	if err != nil {
		return nil, err
	}
	o.setup = cold.proc.wall.Seconds()
	sum := sha256.Sum256(cold.digests)
	goldenOK := e.checkGolden(o, "resweep_digests.sha256", hex.EncodeToString(sum[:]))
	checkPass(o, cold, cold.digests, goldenOK)

	var walls, cpus []float64
	var warm *fabricPass
	requeues, restarts := cold.manifest.Requeues, cold.manifest.Restarts
	t0 := time.Now()
	for i := 0; i < minWarmPasses || time.Since(t0).Seconds() < e.seconds; i++ {
		if warm, err = e.runFabric(dir, fmt.Sprintf("warm%d", i), store); err != nil {
			return nil, err
		}
		walls = append(walls, warm.proc.wall.Seconds())
		cpus = append(cpus, warm.proc.cpu)
		fmt.Fprintf(os.Stderr, "resweep warm pass %d: %.3fs wall, %.2fs cpu\n", i, warm.proc.wall.Seconds(), warm.proc.cpu)
		o.rssMB = max(o.rssMB, warm.proc.maxRSSMB)
		requeues += warm.manifest.Requeues
		restarts += warm.manifest.Restarts
		checkPass(o, warm, cold.digests, goldenOK)
	}
	o.wall, o.cpu = median(walls), median(cpus)
	o.layers = resweepLayers(filepath.Join(dir, store), cold, warm)
	o.layers["fabric.requeues"] = float64(requeues)
	o.layers["fabric.restarts"] = float64(restarts)
	return o, nil
}

// checkPass counts a pass's cells and its failures: an unverified cell,
// or every cell when the digests differ from the reference or the golden.
func checkPass(o *outcome, p *fabricPass, ref []byte, goldenOK bool) {
	n := len(p.journal)
	o.attempted += max(n, 1)
	if n == 0 || n != p.manifest.Cells {
		o.problem("fabric journal holds %d cells, manifest %d", n, p.manifest.Cells)
		o.failed += max(n, 1)
		return
	}
	if !bytes.Equal(p.digests, ref) {
		o.problem("digests.json differs between the cold and a warm pass")
		goldenOK = false
	}
	if !goldenOK {
		o.failed += n
		return
	}
	for _, c := range p.journal {
		if !c.Out.Verified {
			o.failed++
			o.problem("cell %s not verified", c.Cell)
		}
	}
}

// resweepLayers reads the store (cold pass) and fabric (last warm pass)
// figures.
func resweepLayers(storeDir string, cold, warm *fabricPass) map[string]float64 {
	l := map[string]float64{}
	entries := countFiles(filepath.Join(storeDir, "objects"))
	l["store.entries"] = float64(entries)
	l["store.quarantined"] = float64(countFiles(filepath.Join(storeDir, "quarantine")))
	if s := cold.manifest.Store; s != nil {
		l["store.puts"] = float64(s.Puts)
		if s.Puts > 0 {
			l["store.put_waste"] = float64(s.Puts-int64(entries)) / float64(s.Puts)
		}
	}
	if s := warm.manifest.Store; s != nil && s.Hits+s.Misses > 0 {
		l["store.hit_rate"] = float64(s.Hits) / float64(s.Hits+s.Misses)
	}
	slotBusy := map[string]float64{}
	for _, s := range warm.manifest.Slots {
		slotBusy[s.Slot] = 0
	}
	var busy float64
	for _, c := range warm.journal {
		busy += c.Seconds
		slotBusy[c.Slot] += c.Seconds
	}
	l["fabric.cell_busy_s"] = busy
	if n := len(slotBusy); n > 0 {
		l["fabric.overhead_s"] = warm.manifest.WallSeconds*float64(n) - busy
		lo, hi := -1.0, 0.0
		for _, b := range slotBusy {
			hi = max(hi, b)
			if lo < 0 || b < lo {
				lo = b
			}
		}
		if mean := busy / float64(n); mean > 0 {
			l["fabric.slot_skew"] = (hi - lo) / mean
		}
	}
	return l
}

// countFiles counts the regular files below dir (0 if it is absent).
func countFiles(dir string) int {
	n := 0
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return nil
	})
	return n
}
