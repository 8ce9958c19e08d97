package vprof

import (
	"testing"

	"ccr/internal/alias"
	"ccr/internal/emu"
	"ccr/internal/workloads"
)

// mapCounter is the map-based space-saving counter ValueCounter replaced,
// kept verbatim (renamed) as the reference for the differential test. Its
// victim among equal minimum counts depends on map iteration order.
type mapCounter struct {
	counts map[valueKey]int64
	cap    int
	// distinct saturates at distinctCap and estimates the variety of the
	// instruction's input stream (the "limited set of values" check).
	distinct    int
	seenOnce    map[valueKey]struct{}
	total       int64
	distinctCap int
}

func newMapCounter() *mapCounter {
	return &mapCounter{
		counts:      make(map[valueKey]int64, counterCapacity),
		cap:         counterCapacity,
		seenOnce:    make(map[valueKey]struct{}, distinctSaturation),
		distinctCap: distinctSaturation,
	}
}

// Observe records one execution with input tuple (a, b).
func (c *mapCounter) Observe(a, b int64) {
	k := valueKey{a, b}
	c.total++
	if _, ok := c.seenOnce[k]; !ok && c.distinct < c.distinctCap {
		c.seenOnce[k] = struct{}{}
		c.distinct++
	}
	if _, ok := c.counts[k]; ok {
		c.counts[k]++
		return
	}
	if len(c.counts) < c.cap {
		c.counts[k] = 1
		return
	}
	// Space-saving replacement: evict the minimum and inherit its count.
	var minKey valueKey
	minVal := int64(-1)
	for kk, v := range c.counts {
		if minVal < 0 || v < minVal {
			minKey, minVal = kk, v
		}
	}
	delete(c.counts, minKey)
	c.counts[k] = minVal + 1
}

// Total returns the number of observations.
func (c *mapCounter) Total() int64 { return c.total }

// Distinct returns the (saturating) count of distinct input tuples seen.
func (c *mapCounter) Distinct() int { return c.distinct }

// TopK returns the combined weight of the k most frequent tuples.
func (c *mapCounter) TopK(k int) int64 {
	if k <= 0 || len(c.counts) == 0 {
		return 0
	}
	// Selection over a ≤16-entry table; no need for sorting machinery.
	top := make([]int64, 0, k)
	for _, v := range c.counts {
		if len(top) < k {
			top = append(top, v)
			continue
		}
		mi := 0
		for i := 1; i < len(top); i++ {
			if top[i] < top[mi] {
				mi = i
			}
		}
		if v > top[mi] {
			top[mi] = v
		}
	}
	var sum int64
	for _, v := range top {
		sum += v
	}
	return sum
}

// TestValueCounterMatchesMapCounter records the operand stream of every
// profiled instruction in the training run of each workload at tiny scale,
// replays it into ValueCounter and into the map-based reference, and
// requires equal Total, Distinct and TopK(1..InvariantK). The profile's
// own counter must agree too, so the profiler feeds the counter exactly
// the recorded stream.
func TestValueCounterMatchesMapCounter(t *testing.T) {
	for _, name := range workloads.Names() {
		w := workloads.Load(name, workloads.Tiny)
		alias.Analyze(w.Prog).Annotate()
		streams := make([][]valueKey, w.Prog.TextLen)
		record := func(ev *emu.Event) {
			if a, b, ok := valueInputs(ev); ok {
				g := ev.PC >> 2
				streams[g] = append(streams[g], valueKey{a, b})
			}
		}
		pr := NewProfiler(w.Prog)
		m := emu.New(w.Prog)
		m.Trace = emu.Tee(pr.Tracer(), record)
		if _, err := m.Run(w.Train...); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		prof := pr.Finish()

		profiledInstrs := 0
		for g, s := range streams {
			if len(s) == 0 {
				if prof.counter(g) != nil {
					t.Errorf("%s: instruction %d has a counter but no recorded stream", name, g)
				}
				continue
			}
			profiledInstrs++
			ref, got := newMapCounter(), newValueCounter()
			for _, k := range s {
				ref.Observe(k.a, k.b)
				got.Observe(k.a, k.b)
			}
			for _, c := range []*ValueCounter{got, prof.counter(g)} {
				if c == nil {
					t.Fatalf("%s: instruction %d: profile has no counter", name, g)
				}
				if c.Total() != ref.Total() || c.Distinct() != ref.Distinct() {
					t.Fatalf("%s: instruction %d: total/distinct %d/%d, reference %d/%d",
						name, g, c.Total(), c.Distinct(), ref.Total(), ref.Distinct())
				}
				for k := 1; k <= InvariantK; k++ {
					if c.TopK(k) != ref.TopK(k) {
						t.Fatalf("%s: instruction %d: TopK(%d) = %d, reference %d",
							name, g, k, c.TopK(k), ref.TopK(k))
					}
				}
			}
		}
		if profiledInstrs == 0 {
			t.Fatalf("%s: no instruction was profiled", name)
		}
	}
}

// TestValueCounterVictimTieBreak pins the deterministic victim: among
// slots sharing the minimum count, the lowest-numbered one is replaced,
// and the newcomer inherits the victim's count plus one in that slot.
func TestValueCounterVictimTieBreak(t *testing.T) {
	c := newValueCounter()
	for i := int64(0); i < counterCapacity; i++ {
		c.Observe(i, 0) // slot i holds (i, 0) with count 1
	}
	c.Observe(0, 0) // slot 0 now counts 2; slots 1..15 tie at 1
	c.Observe(3, 0) // slot 3 counts 2; the minimum tie is slots 1, 2, 4..15

	c.Observe(100, 0)
	if c.keys[1] != (valueKey{100, 0}) || c.counts[1] != 2 {
		t.Fatalf("first eviction: slot 1 = %v/%d, want (100,0)/2", c.keys[1], c.counts[1])
	}
	c.Observe(101, 0)
	if c.keys[2] != (valueKey{101, 0}) || c.counts[2] != 2 {
		t.Fatalf("second eviction: slot 2 = %v/%d, want (101,0)/2", c.keys[2], c.counts[2])
	}
	c.Observe(102, 0) // slots 0..3 all count 2 now; slot 4 is the lowest minimum
	if c.keys[4] != (valueKey{102, 0}) || c.counts[4] != 2 {
		t.Fatalf("third eviction: slot 4 = %v/%d, want (102,0)/2", c.keys[4], c.counts[4])
	}
	for i, want := range []valueKey{{0, 0}, {100, 0}, {101, 0}, {3, 0}} {
		if c.keys[i] != want {
			t.Fatalf("slot %d = %v, want %v (untouched by the evictions)", i, c.keys[i], want)
		}
	}
	if c.Total() != counterCapacity+5 || c.TopK(counterCapacity) != c.Total() {
		t.Fatalf("total %d, TopK(all) %d: space-saving must conserve the total",
			c.Total(), c.TopK(counterCapacity))
	}
}
