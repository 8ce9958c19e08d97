package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"ccr/internal/emu"
	"ccr/internal/ir"
	"ccr/internal/reuse"
	"ccr/internal/workloads"
)

// recordedEvent is one copied trace event; its register view lives in the
// owning chunk's regs arena at [lo, hi).
type recordedEvent struct {
	ev     emu.Event // Regs nil
	lo, hi int
}

type eventChunk struct {
	evs  []recordedEvent
	regs []int64
}

const eventChunkLen = 4096

// streamEvents runs m in its own goroutine and sends copies of its trace
// events in chunks on the returned channel, which is closed when the run
// ends; the run's result and error are then available from done.
func streamEvents(m *emu.Machine, args []int64) (<-chan *eventChunk, <-chan runOutcome) {
	// Two chunks of slack let the interpreter run ahead of the engine
	// without either side waiting on every handoff.
	chunks := make(chan *eventChunk, 2)
	done := make(chan runOutcome, 1)
	cur := &eventChunk{}
	m.Trace = func(ev *emu.Event) {
		r := recordedEvent{ev: *ev, lo: len(cur.regs)}
		r.ev.Regs = nil
		cur.regs = append(cur.regs, ev.Regs...)
		r.hi = len(cur.regs)
		cur.evs = append(cur.evs, r)
		if len(cur.evs) == eventChunkLen {
			chunks <- cur
			cur = &eventChunk{}
		}
	}
	go func() {
		res, err := m.Run(args...)
		if len(cur.evs) > 0 {
			chunks <- cur
		}
		close(chunks)
		done <- runOutcome{res, err}
	}()
	return chunks, done
}

type runOutcome struct {
	res int64
	err error
}

// eventsEqual compares two events field by field, the register views by
// content. TestEventFieldsCovered keeps it in step with emu.Event.
func eventsEqual(a *emu.Event, b *emu.Event, bRegs []int64) bool {
	return a.Func == b.Func && a.Block == b.Block && a.Index == b.Index && a.Instr == b.Instr &&
		a.PC == b.PC && a.Val1 == b.Val1 && a.Val2 == b.Val2 && a.Result == b.Result &&
		a.Addr == b.Addr && a.Taken == b.Taken && a.TargetPC == b.TargetPC &&
		a.ReuseHit == b.ReuseHit && a.ReuseIn == b.ReuseIn && a.ReuseOut == b.ReuseOut &&
		a.ReusedInstrs == b.ReusedInstrs && a.InvalCount == b.InvalCount &&
		slices.Equal(a.Regs, bRegs)
}

// TestEventFieldsCovered fails when emu.Event gains a field, so that
// eventsEqual is extended with it.
func TestEventFieldsCovered(t *testing.T) {
	if n := reflect.TypeOf(emu.Event{}).NumField(); n != 17 {
		t.Fatalf("emu.Event has %d fields; eventsEqual compares 17 — extend it", n)
	}
}

func describeEvent(ev *emu.Event, regs []int64) string {
	return fmt.Sprintf("%s b%d[%d] pc=%d v=%d,%d res=%d addr=%d taken=%v tpc=%d reuse=%v/%d/%d/%d inval=%d regs=%v",
		ev.Func.Name, ev.Block, ev.Index, ev.PC, ev.Val1, ev.Val2, ev.Result, ev.Addr, ev.Taken,
		ev.TargetPC, ev.ReuseHit, ev.ReuseIn, ev.ReuseOut, ev.ReusedInstrs, ev.InvalCount, regs)
}

// checkEventParity runs prog under rc on the predecoded engine and on the
// legacy interpreter side by side and requires identical event streams,
// compared as the engine emits them.
func checkEventParity(t *testing.T, prog *ir.Program, rc reuse.Config, args []int64) {
	t.Helper()
	ref := emu.New(prog)
	ref.Interp = true
	attachReuse(ref, prog, rc, nil)
	chunks, refDone := streamEvents(ref, args)

	m := emu.New(prog)
	m.Interp = false // pinned: the engine default follows CCR_ENGINE
	attachReuse(m, prog, rc, nil)
	var (
		cur     *eventChunk
		pos, n  int
		failure string
	)
	m.Trace = func(ev *emu.Event) {
		if failure != "" {
			return
		}
		if cur == nil || pos == len(cur.evs) {
			var ok bool
			if cur, ok = <-chunks; !ok {
				failure = fmt.Sprintf("event %d: engine emitted %s past the interpreter's end", n, describeEvent(ev, ev.Regs))
				return
			}
			pos = 0
		}
		r := &cur.evs[pos]
		rregs := cur.regs[r.lo:r.hi]
		if !eventsEqual(ev, &r.ev, rregs) {
			failure = fmt.Sprintf("event %d:\n engine %s\n interp %s", n, describeEvent(ev, ev.Regs), describeEvent(&r.ev, rregs))
		}
		pos++
		n++
	}
	res, err := m.Run(args...)
	extra := 0
	if cur != nil {
		extra = len(cur.evs) - pos
	}
	for c := range chunks {
		extra += len(c.evs)
	}
	want := <-refDone
	switch {
	case failure != "":
		t.Fatal(failure)
	case extra > 0:
		t.Fatalf("engine emitted %d events, interpreter %d more", n, extra)
	case res != want.res || fmt.Sprint(err) != fmt.Sprint(want.err):
		t.Fatalf("engine result %d (%v), interpreter %d (%v)", res, err, want.res, want.err)
	case n == 0:
		t.Fatal("no events traced")
	}
}

// TestEventStreamParity pins the careful tier's trace events to the legacy
// interpreter's, field by field, for every workload's compiled program at
// tiny scale under each reuse scheme. The engine fills its single Event in
// place; a field left over from an earlier emission (a reuse fact or an
// invalidation count) would show here as a divergence.
func TestEventStreamParity(t *testing.T) {
	opts := DefaultOptions()
	for _, w := range workloads.All(workloads.Tiny) {
		cr, err := Compile(w.Prog, w.Train, opts)
		if err != nil {
			t.Fatalf("%s: compile: %v", w.Name, err)
		}
		for _, s := range reuse.Schemes() {
			rc := reuse.Config{Scheme: s, CRB: opts.CRB, DTM: opts.DTM}
			t.Run(w.Name+"/"+string(s), func(t *testing.T) {
				checkEventParity(t, cr.Prog, rc, w.Train)
			})
		}
	}
}
