// Package vprof implements the Reuse Profiling System (RPS) of the paper
// (§4.2): a value-profiling pass that reports, for every static
// instruction, its execution weight and input-value invariance; for every
// load, the stability of its referenced memory; and for every inner loop,
// the recurrence of its invocation inputs. The profile drives the
// region-formation heuristics of §4.4.
//
// Cyclic recurrence is profiled the way the CRB hardware would observe it:
// each invocation records the registers actually consumed before being
// defined (path-sensitive "used inputs") plus the version stamps of the
// objects the loop loads; a later invocation is a reuse opportunity when
// all recorded inputs of one of the last eight records match its entry
// state. Static live-in signatures would be too conservative — the paper's
// ckbrkpts example (Figure 3) is reusable precisely because the hot path
// never reads the varying address operand.
//
// Input-value invariance comes from a space-saving counter per
// instruction (ValueCounter): 16 slots filled in arrival order. When a
// new tuple arrives at a full table it replaces the lowest-numbered slot
// among those holding the minimum count, so the profile — and the
// regions formed from it — is a pure function of the training run. The
// per-instruction observe path does no map operations: counters, load
// records and loop membership are slices indexed by instruction, block
// and register.
package vprof

import (
	"ccr/internal/analysis"
	"ccr/internal/emu"
	"ccr/internal/ir"
)

// InvariantK is the number of tracked invariant values used by the
// heuristics ("setting ... the number of invariant values to five", §4.4).
const InvariantK = 5

// HistoryRecords is the invocation-history depth for cyclic recurrence
// profiling, matching the eight records of the paper's limit study.
const HistoryRecords = 8

// maxTrackedInputs bounds per-invocation input recording; invocations
// consuming more registers than a computation instance could hold are
// never reusable anyway.
const maxTrackedInputs = 16

// LoopKey identifies a natural loop by function and header block.
type LoopKey struct {
	Func   ir.FuncID
	Header ir.BlockID
}

// LoopProfile aggregates cyclic-recurrence information for one inner loop.
type LoopProfile struct {
	// Invocations counts entries into the loop from outside.
	Invocations int64
	// ReusableInvocations counts invocations whose entry state matched
	// the used-input record of one of the last HistoryRecords
	// invocations.
	ReusableInvocations int64
	// MultiIterInvocations counts invocations executing >1 iteration.
	MultiIterInvocations int64
	// TotalIterations accumulates header executions.
	TotalIterations int64
}

// ReuseOpportunity is the fraction of invocations with recurring inputs.
func (lp *LoopProfile) ReuseOpportunity() float64 {
	if lp.Invocations == 0 {
		return 0
	}
	return float64(lp.ReusableInvocations) / float64(lp.Invocations)
}

// MultiIterRatio is the fraction of invocations with multiple iterations.
func (lp *LoopProfile) MultiIterRatio() float64 {
	if lp.Invocations == 0 {
		return 0
	}
	return float64(lp.MultiIterInvocations) / float64(lp.Invocations)
}

type loadProf struct {
	execs   int64
	reuses  int64
	lastVer uint64
	lastAny uint64
	primed  bool
}

// loopInfo is the static description of one profiled inner loop.
type loopInfo struct {
	key     LoopKey
	blocks  []bool // by block of key.Func: member of the loop
	objs    []ir.MemID
	anyLoad bool // loop contains loads with unknown objects
	barrier bool // loop contains stores or calls: not a reuse candidate
	regs    int  // register count of key.Func (sizes loopAct.defined)
	prof    *LoopProfile

	// history is the ring of past invocation records, oldest first.
	history []*invRecord
}

// contains reports whether block b of the loop's function is in the loop.
func (li *loopInfo) contains(b ir.BlockID) bool {
	return b >= 0 && int(b) < len(li.blocks) && li.blocks[b]
}

// regVal is one recorded used-input.
type regVal struct {
	reg ir.Reg
	val int64
}

// invRecord is one completed invocation's reuse-relevant state.
type invRecord struct {
	inputs   []regVal
	objVers  []uint64
	anonVer  uint64
	overflow bool // too many inputs: never matches
}

// loopAct is an in-flight invocation being recorded.
type loopAct struct {
	loop     *loopInfo
	iters    int64
	inputs   []regVal
	defined  analysis.RegSet
	objVers  []uint64
	anonVer  uint64
	overflow bool
	matched  bool
}

// Profiler consumes an emulation event stream and accumulates the RPS
// profile. Use Tracer() as the Machine trace hook and Finish() afterwards.
type Profiler struct {
	prog *ir.Program

	exec  []int64
	taken []int64

	// values and loads are indexed by global instruction index and
	// filled on first execution.
	values []*ValueCounter
	loads  []*loadProf

	objVer  []uint64
	anonVer uint64

	headerLoop [][]*loopInfo // by func, then header block
	loops      []*loopInfo

	depth     int
	lastBlock []ir.BlockID // per depth
	lastFunc  []ir.FuncID
	acts      []*loopAct // per depth, nil when no loop active

	totalDyn int64
}

// NewProfiler prepares a profiler for the linked program p.
func NewProfiler(p *ir.Program) *Profiler {
	pr := &Profiler{
		prog:       p,
		exec:       make([]int64, p.TextLen),
		taken:      make([]int64, p.TextLen),
		values:     make([]*ValueCounter, p.TextLen),
		loads:      make([]*loadProf, p.TextLen),
		objVer:     make([]uint64, len(p.Objects)),
		headerLoop: make([][]*loopInfo, len(p.Funcs)),
		lastBlock:  []ir.BlockID{ir.NoBlock},
		lastFunc:   []ir.FuncID{ir.NoFunc},
		acts:       []*loopAct{nil},
	}
	for _, f := range p.Funcs {
		pr.headerLoop[f.ID] = make([]*loopInfo, len(f.Blocks))
		g := analysis.BuildCFG(f)
		dom := analysis.BuildDomTree(g)
		for _, l := range analysis.FindLoops(g, dom) {
			if !l.Inner() {
				continue
			}
			li := &loopInfo{
				key:    LoopKey{f.ID, l.Header},
				blocks: make([]bool, len(f.Blocks)),
				regs:   f.NumRegs,
				prof:   &LoopProfile{},
			}
			objSeen := map[ir.MemID]bool{}
			for _, b := range l.Blocks {
				li.blocks[b] = true
				for i := range f.Blocks[b].Instrs {
					in := &f.Blocks[b].Instrs[i]
					switch in.Op {
					case ir.St, ir.Call, ir.Ret, ir.Inval:
						li.barrier = true
					case ir.Ld:
						if in.Mem == ir.NoMem {
							li.anyLoad = true
						} else if !objSeen[in.Mem] {
							objSeen[in.Mem] = true
							li.objs = append(li.objs, in.Mem)
						}
					}
				}
			}
			pr.headerLoop[f.ID][l.Header] = li
			pr.loops = append(pr.loops, li)
		}
	}
	return pr
}

// Tracer returns the event hook to install on an emu.Machine.
func (pr *Profiler) Tracer() emu.Tracer { return pr.observe }

func (pr *Profiler) observe(ev *emu.Event) {
	pr.totalDyn++
	gidx := int(ev.PC >> 2)
	pr.exec[gidx]++
	in := ev.Instr

	pr.trackLoops(ev)

	if a, b, ok := valueInputs(ev); ok {
		c := pr.values[gidx]
		if c == nil {
			c = newValueCounter()
			pr.values[gidx] = c
		}
		c.Observe(a, b)
	}
	if in.Op.IsCondBranch() && ev.Taken {
		pr.taken[gidx]++
	}

	switch in.Op {
	case ir.Ld:
		pr.observeLoad(gidx, in.Mem)
	case ir.St:
		if in.Mem != ir.NoMem {
			pr.objVer[in.Mem]++
		} else {
			pr.anonVer++
		}
	// Call/return adjust the frame depth for loop tracking.
	case ir.Call:
		pr.depth++
		if pr.depth >= len(pr.lastBlock) {
			pr.lastBlock = append(pr.lastBlock, ir.NoBlock)
			pr.lastFunc = append(pr.lastFunc, ir.NoFunc)
			pr.acts = append(pr.acts, nil)
		} else {
			pr.lastBlock[pr.depth] = ir.NoBlock
			pr.lastFunc[pr.depth] = ir.NoFunc
			pr.acts[pr.depth] = nil
		}
	case ir.Ret:
		pr.finishAct(pr.depth)
		if pr.depth > 0 {
			pr.depth--
		}
	}
}

// valueInputs returns the input tuple the profiler records for the
// instruction executed in ev, and false for opcodes it does not profile.
func valueInputs(ev *emu.Event) (a, b int64, ok bool) {
	in := ev.Instr
	switch {
	case in.Op.IsBinaryALU(), in.Op.IsCondBranch():
		return ev.Val1, ev.Val2, true
	case in.Op == ir.Mov:
		return ev.Val1, 0, true
	case in.Op == ir.Ld:
		return ev.Addr, ev.Result, true
	case in.Op == ir.Call:
		// Call-argument recurrence drives function-level region
		// selection. The event's register view is the callee frame,
		// whose parameters hold the argument values.
		if len(in.Args) > 0 && len(ev.Regs) > 1 {
			a = ev.Regs[1]
		}
		if len(in.Args) > 1 && len(ev.Regs) > 2 {
			b = ev.Regs[2]
		}
		return a, b, true
	}
	return 0, 0, false
}

func (pr *Profiler) observeLoad(gidx int, obj ir.MemID) {
	lp := pr.loads[gidx]
	if lp == nil {
		lp = &loadProf{}
		pr.loads[gidx] = lp
	}
	lp.execs++
	var ver uint64
	if obj != ir.NoMem {
		ver = pr.objVer[obj]
	}
	if lp.primed && lp.lastVer == ver && lp.lastAny == pr.anonVer && obj != ir.NoMem {
		lp.reuses++
	}
	lp.primed = true
	lp.lastVer = ver
	lp.lastAny = pr.anonVer
}

// trackLoops maintains per-frame loop activations, recording used inputs
// CRB-style and matching them against the invocation history.
func (pr *Profiler) trackLoops(ev *emu.Event) {
	d := pr.depth
	fid := ev.Func.ID
	cur := pr.acts[d]

	if cur != nil && (cur.loop.key.Func != fid || !cur.loop.contains(ev.Block)) {
		// Control left the active loop.
		pr.finishAct(d)
		cur = nil
	}

	if ev.Index == 0 {
		if li := pr.headerLoop[fid][ev.Block]; li != nil {
			prev := pr.lastBlock[d]
			backEdge := cur != nil && cur.loop == li && pr.lastFunc[d] == fid &&
				li.contains(prev)
			if backEdge {
				cur.iters++
				li.prof.TotalIterations++
			} else {
				pr.finishAct(d)
				li.prof.Invocations++
				li.prof.TotalIterations++
				act := &loopAct{
					loop:    li,
					iters:   1,
					defined: analysis.NewRegSet(li.regs),
					objVers: pr.snapshotVers(li),
					anonVer: pr.anonVer,
				}
				act.matched = matchHistory(li, ev.Regs, act)
				if act.matched {
					li.prof.ReusableInvocations++
				}
				pr.acts[d] = act
				cur = act
			}
		}
	}

	// Record used inputs for the active invocation.
	if cur != nil && !cur.loop.barrier {
		in := ev.Instr
		switch in.Op {
		case ir.Nop, ir.MovI, ir.Jmp:
		default:
			if in.Src1 != ir.NoReg {
				cur.noteUse(in.Src1, ev.Val1)
			}
			if in.Src2 != ir.NoReg {
				cur.noteUse(in.Src2, ev.Val2)
			}
		}
		if dr := in.Def(); dr != ir.NoReg {
			cur.defined.Add(dr)
		}
	}

	pr.lastBlock[d] = ev.Block
	pr.lastFunc[d] = fid
}

func (a *loopAct) noteUse(r ir.Reg, v int64) {
	if a.overflow || a.defined.Has(r) {
		return
	}
	for _, rv := range a.inputs {
		if rv.reg == r {
			return
		}
	}
	if len(a.inputs) >= maxTrackedInputs {
		a.overflow = true
		return
	}
	a.inputs = append(a.inputs, regVal{reg: r, val: v})
}

func (pr *Profiler) snapshotVers(li *loopInfo) []uint64 {
	if len(li.objs) == 0 {
		return nil
	}
	vs := make([]uint64, len(li.objs))
	for i, o := range li.objs {
		vs[i] = pr.objVer[o]
	}
	return vs
}

// matchHistory reports whether the current entry state (register file and
// memory versions snapshotted in act) satisfies any recorded invocation:
// every used input of the record holds the same value now, and the loop's
// object versions are unchanged since the record was made.
func matchHistory(li *loopInfo, regs []int64, act *loopAct) bool {
	for _, rec := range li.history {
		if rec.overflow {
			continue
		}
		if !equalVers(rec.objVers, act.objVers) || rec.anonVer != act.anonVer {
			continue
		}
		ok := true
		for _, rv := range rec.inputs {
			if int(rv.reg) >= len(regs) || regs[rv.reg] != rv.val {
				ok = false
				break
			}
		}
		if ok {
			return true
		}
	}
	return false
}

func equalVers(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (pr *Profiler) finishAct(d int) {
	act := pr.acts[d]
	if act == nil {
		return
	}
	if act.iters > 1 {
		act.loop.prof.MultiIterInvocations++
	}
	if !act.loop.barrier {
		rec := &invRecord{
			inputs:   act.inputs,
			objVers:  act.objVers,
			anonVer:  act.anonVer,
			overflow: act.overflow,
		}
		act.loop.pushHistory(rec)
	}
	pr.acts[d] = nil
}

func (li *loopInfo) pushHistory(rec *invRecord) {
	if len(li.history) >= HistoryRecords {
		copy(li.history, li.history[1:])
		li.history[len(li.history)-1] = rec
	} else {
		li.history = append(li.history, rec)
	}
}

// Finish closes open loop activations and returns the completed profile.
func (pr *Profiler) Finish() *Profile {
	for d := range pr.acts {
		pr.finishAct(d)
	}
	loops := make(map[LoopKey]*LoopProfile, len(pr.loops))
	for _, li := range pr.loops {
		loops[li.key] = li.prof
	}
	return &Profile{
		prog:     pr.prog,
		exec:     pr.exec,
		taken:    pr.taken,
		values:   pr.values,
		loads:    pr.loads,
		Loops:    loops,
		TotalDyn: pr.totalDyn,
	}
}
