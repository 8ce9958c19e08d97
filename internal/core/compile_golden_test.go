package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ccr/internal/workloads"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// compileGoldenPath pins what the compiler produces for every workload at
// tiny scale: the SHA-256 of the transformed program's dump and the number
// of regions formed. The value profile drives region formation, so any
// change to what the profiler reports shows up here.
const compileGoldenPath = "testdata/compile_golden.json"

type compileGolden struct {
	DumpSHA256 string `json:"dump_sha256"`
	Regions    int    `json:"regions"`
}

// TestCompileGolden compiles all 13 workloads at tiny scale with the
// default options and checks each transformed program against the
// committed golden. Regenerate with `go test ./internal/core -run
// TestCompileGolden -update` only for an intended change in what the
// compiler selects.
func TestCompileGolden(t *testing.T) {
	got := map[string]compileGolden{}
	for _, name := range workloads.Names() {
		w := workloads.Load(name, workloads.Tiny)
		cr, err := Compile(w.Prog, w.Train, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sum := sha256.Sum256([]byte(cr.Prog.Dump()))
		got[name] = compileGolden{DumpSHA256: hex.EncodeToString(sum[:]), Regions: len(cr.Prog.Regions)}
	}
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(compileGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(compileGoldenPath, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(compileGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	var want map[string]compileGolden
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d workloads, compiled %d", len(want), len(got))
	}
	for name, g := range got {
		w, ok := want[name]
		switch {
		case !ok:
			t.Errorf("%s: missing from golden", name)
		case g != w:
			t.Errorf("%s: compiled %d regions, dump %s; golden %d regions, dump %s",
				name, g.Regions, g.DumpSHA256, w.Regions, w.DumpSHA256)
		}
	}
}
