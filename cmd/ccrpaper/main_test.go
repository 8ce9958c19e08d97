package main

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"os/exec"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// runAsMainEnv makes the test binary run ccrpaper's main instead of its
// tests, so a test can drive the real command line end to end.
const runAsMainEnv = "CCRPAPER_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runAsMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// figureGoldenPath holds the SHA-256 of `ccrpaper -scale tiny -fig all
// -jobs 1` stdout: every figure and table the tool prints.
const figureGoldenPath = "testdata/fig_all_tiny.sha256"

// TestFigureGolden pins the complete figure output at tiny scale, so any
// change to what a figure reports is an explicit golden update. Regenerate
// with `go test ./cmd/ccrpaper -run TestFigureGolden -update` only for an
// intended change in the figures.
func TestFigureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure (~10 s)")
	}
	cmd := exec.Command(os.Args[0], "-scale", "tiny", "-fig", "all", "-jobs", "1", "-heartbeat", "0")
	cmd.Env = append(os.Environ(), runAsMainEnv+"=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("ccrpaper: %v\n%s", err, stderr.String())
	}
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figureGoldenPath, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(figureGoldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if want := strings.TrimSpace(string(raw)); got != want {
		t.Errorf("figure output SHA-256 %s, golden %s (%d bytes of stdout; diff against `go run ./cmd/ccrpaper -scale tiny -fig all -jobs 1` at the golden's commit)",
			got, want, len(out))
	}
}
