// Package oracle enforces the paper's central correctness contract (§3.1):
// dynamic computation reuse must be architecturally invisible. It distills
// an emulator run into a Digest of architectural observables — the final
// return value, the return-value stream at every ret, a streaming checksum
// of the store stream, a hash of the final memory image, and a full
// per-instruction trace checksum — and provides a differential checker,
// Compare, that verifies a CRB-on run produced exactly the state the
// skipped instructions would have produced.
//
// Not every component of a Digest is comparable across the CRB-off/CRB-on
// boundary: reuse hits legitimately skip instructions, so the trace
// checksum and dynamic instruction count differ by design. The invariant
// components are:
//
//   - Result: the program's final return value.
//   - MemHash/MemWords: the final data-memory image. Regions never contain
//     stores, so reuse cannot change what memory ends up holding.
//   - Stores/StoreCount: the ordered (address, value) store stream. Stores
//     execute outside regions on both sides, in the same order.
//   - Rets/RetCount: the ordered return-value stream. A function-level
//     reuse hit skips a call and its ret; the collector synthesizes the
//     skipped ret from the region's committed outputs, which is exact
//     unless the memoized callee itself makes calls (then RetsExact is
//     cleared and Compare skips this component).
//
// Trace and DynInstrs are identity components: they only match between
// runs of the same program under the same configuration, and exist to pin
// determinism (serial vs parallel, repeated runs).
package oracle

import (
	"fmt"
	"strings"

	"ccr/internal/emu"
	"ccr/internal/ir"
)

// Digest summarizes the architectural behaviour of one emulator run.
type Digest struct {
	// Result is the program's final return value.
	Result int64
	// MemHash and MemWords describe the final data-memory image.
	MemHash  uint64
	MemWords int
	// Stores is the streaming checksum of the (address, value) store
	// stream; StoreCount the number of executed stores.
	Stores     uint64
	StoreCount int64
	// Rets is the streaming checksum of the return-value stream (with
	// function-level reuse hits synthesized in); RetCount its length.
	// RetsExact is false when a function-level hit skipped a callee that
	// itself makes calls, making the synthesized stream an undercount.
	Rets      uint64
	RetCount  int64
	RetsExact bool
	// Trace is the full per-instruction checksum and DynInstrs the traced
	// instruction count — identity components, not reuse-invariant.
	Trace     uint64
	DynInstrs int64
}

// Equal reports whether two digests are bit-identical across every
// component, including the configuration-sensitive identity ones.
func (d Digest) Equal(o Digest) bool { return d == o }

// mix folds v into the running checksum h. It is a fast, order-sensitive,
// non-cryptographic mix (splitmix64 finalizer folded FNV-style); the
// oracle needs collision resistance against accidental divergence, not
// adversaries.
func mix(h, v uint64) uint64 {
	v *= 0x9E3779B97F4A7C15
	v ^= v >> 29
	v *= 0xBF58476D1CE4E5B9
	v ^= v >> 32
	return (h ^ v) * 0x100000001B3
}

// Collector accumulates a Digest from an emulator's event stream. Attach
// its Tracer to a Machine, run, then call Finish with the run's result and
// final memory.
type Collector struct {
	prog *ir.Program
	d    Digest
	// calls[f] reports whether function f contains a call instruction —
	// precomputed so function-level reuse hits know whether the skipped
	// subtree contained nested rets the collector cannot synthesize.
	calls []bool
}

// NewCollector prepares a collector for runs of prog.
func NewCollector(prog *ir.Program) *Collector {
	c := &Collector{prog: prog}
	c.d.RetsExact = true
	c.calls = make([]bool, len(prog.Funcs))
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				if b.Instrs[i].Op == ir.Call {
					c.calls[f.ID] = true
				}
			}
		}
	}
	return c
}

// Tracer returns the event hook that feeds the digest. The returned tracer
// may be chained before another consumer by the caller.
func (c *Collector) Tracer() emu.Tracer {
	return func(ev *emu.Event) {
		d := &c.d
		d.DynInstrs++
		t := mix(d.Trace, uint64(ev.PC))
		t = mix(t, uint64(ev.Result))
		if ev.Taken {
			t = mix(t, uint64(ev.TargetPC)|1)
		}
		d.Trace = t
		switch ev.Instr.Op {
		case ir.St:
			d.Stores = mix(mix(d.Stores, uint64(ev.Addr)), uint64(ev.Val2))
			d.StoreCount++
		case ir.Ret:
			d.Rets = mix(d.Rets, uint64(ev.Result))
			d.RetCount++
		case ir.Reuse:
			if !ev.ReuseHit {
				return
			}
			rg := c.prog.Region(ev.Instr.Region)
			if rg == nil || rg.Kind != ir.FuncLevel {
				return
			}
			// The hit skipped a call and its ret: synthesize the ret value
			// from the region outputs the hit just wrote.
			for _, out := range rg.Outputs {
				d.Rets = mix(d.Rets, uint64(ev.Regs[out]))
				d.RetCount++
			}
			if rg.Callee != ir.NoFunc && c.calls[rg.Callee] {
				d.RetsExact = false
			}
		}
	}
}

// Finish seals the digest with the run's final return value and data
// memory image.
func (c *Collector) Finish(result int64, mem []int64) Digest {
	c.d.Result = result
	c.d.MemWords = len(mem)
	h := uint64(0)
	for _, w := range mem {
		h = mix(h, uint64(w))
	}
	c.d.MemHash = h
	return c.d
}

// Divergence is a transparency-contract violation: one or more invariant
// digest components differ between the reference and checked runs.
type Divergence struct {
	// Components names the mismatched observables with both values.
	Components []string
}

func (d *Divergence) Error() string {
	return "oracle: architectural divergence: " + strings.Join(d.Components, "; ")
}

// Compare checks every reuse-invariant component of got against the
// reference digest ref (typically a CRB-off run of the base program). It
// returns nil when the transparency contract holds, or a *Divergence
// naming each mismatched component.
func Compare(ref, got Digest) error {
	var div Divergence
	add := func(name string, a, b any) {
		div.Components = append(div.Components, fmt.Sprintf("%s %v != %v", name, a, b))
	}
	if ref.Result != got.Result {
		add("result", ref.Result, got.Result)
	}
	if ref.MemWords != got.MemWords {
		add("mem-words", ref.MemWords, got.MemWords)
	} else if ref.MemHash != got.MemHash {
		add("mem-hash", fmt.Sprintf("%#x", ref.MemHash), fmt.Sprintf("%#x", got.MemHash))
	}
	if ref.StoreCount != got.StoreCount {
		add("store-count", ref.StoreCount, got.StoreCount)
	} else if ref.Stores != got.Stores {
		add("store-stream", fmt.Sprintf("%#x", ref.Stores), fmt.Sprintf("%#x", got.Stores))
	}
	if ref.RetsExact && got.RetsExact {
		if ref.RetCount != got.RetCount {
			add("ret-count", ref.RetCount, got.RetCount)
		} else if ref.Rets != got.Rets {
			add("ret-stream", fmt.Sprintf("%#x", ref.Rets), fmt.Sprintf("%#x", got.Rets))
		}
	}
	if len(div.Components) == 0 {
		return nil
	}
	return &div
}
