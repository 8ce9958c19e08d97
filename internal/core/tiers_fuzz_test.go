package core

import (
	"fmt"
	"reflect"
	"testing"

	"ccr/internal/crb"
	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/oracle"
	"ccr/internal/progen"
	"ccr/internal/reuse"
)

// tierLimit bounds the full run of a generated program. Nested counted
// loops can exceed it; the run then ends in ErrLimit on both engines,
// which is itself a parity point.
const tierLimit = 1_000_000

// tierOutcome is everything one run exposes: the architectural result,
// the statistics block, the reuse backends' counters and, for a traced
// run, the oracle digest of the event stream up to the run's end.
type tierOutcome struct {
	Res    int64
	Err    string
	Mem    []int64
	Stats  emu.Stats
	CRB    crb.Stats
	DTM    reuse.Stats
	Digest oracle.Digest
}

// runTier runs prog under rc on one engine. interp picks the legacy
// interpreter; traced attaches the oracle collector, which keeps the
// predecoded engine on its careful tier. Untraced, the engine runs its
// batch tier with superinstruction fusion wherever the run fits the budget.
func runTier(prog *ir.Program, rc reuse.Config, args []int64, limit int64, interp, traced bool) tierOutcome {
	m := emu.New(prog)
	m.Interp = interp
	m.Limit = limit
	buf, dtm := attachReuse(m, prog, rc, nil)
	var col *oracle.Collector
	if traced {
		col = oracle.NewCollector(prog)
		m.Trace = col.Tracer()
	}
	res, err := m.Run(args...)
	out := tierOutcome{Res: res, Err: fmt.Sprint(err), Mem: m.Mem, Stats: m.Stats}
	if buf != nil {
		out.CRB = buf.Stats()
	}
	if dtm != nil {
		out.DTM = dtm.Stats()
	}
	if col != nil {
		out.Digest = col.Finish(res, m.Mem)
	}
	return out
}

// FuzzEngineTiers checks the predecoded engine against the legacy
// interpreter on random programs under every reuse scheme. For each
// (progen seed, argument, scheme, budget) input it compares, traced and
// untraced:
//
//   - a full run: oracle digest (traced), result, final memory, the whole
//     Stats block and the CRB/DTM counters;
//   - a run cut short at a fuzzer-chosen budget inside the full run: the
//     ErrLimit point, and everything above at that point.
//
// ccr and both run the aggressively transformed program, off and dtm the
// base program, as the experiment suite does.
func FuzzEngineTiers(f *testing.F) {
	for seed := uint64(1); seed <= 10; seed++ {
		for s := range reuse.Schemes() {
			f.Add(seed, uint8(seed*7), uint8(s), uint32(seed*977))
		}
	}
	opts := aggressiveOptions()
	f.Fuzz(func(t *testing.T, seed uint64, arg, scheme uint8, budget uint32) {
		schemes := reuse.Schemes()
		rc := reuse.Config{Scheme: schemes[int(scheme)%len(schemes)], CRB: opts.CRB, DTM: opts.DTM}
		prog := progen.Generate(seed, progen.DefaultConfig())
		args := []int64{int64(arg)}
		if rc.Scheme.UsesCCR() {
			cr, err := Compile(prog, args, opts)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			prog = cr.Prog
		}
		full := int64(0)
		for _, traced := range []bool{false, true} {
			ref := runTier(prog, rc, args, tierLimit, true, traced)
			got := runTier(prog, rc, args, tierLimit, false, traced)
			compareTiers(t, fmt.Sprintf("%s traced=%v full", rc.Scheme, traced), ref, got)
			full = ref.Stats.DynInstrs
		}
		limit := 1 + int64(budget)%full
		for _, traced := range []bool{false, true} {
			ref := runTier(prog, rc, args, limit, true, traced)
			got := runTier(prog, rc, args, limit, false, traced)
			label := fmt.Sprintf("%s traced=%v limit=%d", rc.Scheme, traced, limit)
			compareTiers(t, label, ref, got)
			if limit < full && ref.Err != emu.ErrLimit.Error() {
				t.Fatalf("%s: interpreter ended with %q before the full run's %d instructions", label, ref.Err, full)
			}
		}
	})
}

// compareTiers fails the test on the first field where the engine's
// outcome differs from the interpreter's.
func compareTiers(t *testing.T, label string, ref, got tierOutcome) {
	t.Helper()
	switch {
	case ref.Err != got.Err || ref.Res != got.Res:
		t.Fatalf("%s: engine %d (%s), interpreter %d (%s)", label, got.Res, got.Err, ref.Res, ref.Err)
	case ref.Digest != got.Digest:
		t.Fatalf("%s: oracle digest diverged: %v", label, oracle.Compare(ref.Digest, got.Digest))
	case !reflect.DeepEqual(ref.Mem, got.Mem):
		t.Fatalf("%s: final memory images diverged", label)
	case !reflect.DeepEqual(ref.Stats, got.Stats):
		t.Fatalf("%s: stats diverged:\nengine %s\ninterp %s", label, statsText(got.Stats), statsText(ref.Stats))
	case ref.CRB != got.CRB:
		t.Fatalf("%s: CRB stats diverged:\nengine %+v\ninterp %+v", label, got.CRB, ref.CRB)
	case ref.DTM != got.DTM:
		t.Fatalf("%s: DTM stats diverged:\nengine %+v\ninterp %+v", label, got.DTM, ref.DTM)
	}
}

// statsText renders s with its per-region rows by value, not by pointer.
func statsText(s emu.Stats) string {
	rows := make(map[ir.RegionID]emu.RegionStats, len(s.Regions))
	for id, r := range s.Regions {
		rows[id] = *r
	}
	s.Regions = nil
	return fmt.Sprintf("%+v regions %+v", s, rows)
}
