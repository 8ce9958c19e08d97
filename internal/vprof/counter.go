package vprof

// valueKey is the profiled input tuple of one instruction execution.
type valueKey struct {
	a, b int64
}

// ValueCounter approximates the most-frequent input tuples of an
// instruction with the space-saving algorithm: a fixed-capacity counter
// table where the minimum-count victim is replaced (inheriting its count)
// when a new tuple arrives at capacity. TopK weights are therefore upper
// bounds, which matches the paper's use of profiled invariance as an
// optimistic reuse estimate.
//
// The table is a fixed array of counterCapacity slots filled in arrival
// order and scanned linearly. The victim is the lowest-numbered slot
// among those holding the minimum count, so a counter's state is a pure
// function of its input stream. Observe does no map operation and, once
// the distinct estimator saturates, no allocation.
type ValueCounter struct {
	keys   [counterCapacity]valueKey
	counts [counterCapacity]int64
	used   int // slots filled, in arrival order
	total  int64
	// Once the table is full, every count is at least minCount and every
	// slot below minNext holds more than minCount. Counts only grow, so
	// the victim search resumes at minNext instead of rescanning.
	minCount int64
	minNext  int
	// distinct saturates at distinctSaturation and estimates the variety
	// of the instruction's input stream (the "limited set of values"
	// check). seen holds the tuples counted so far and is dropped once
	// distinct saturates.
	distinct int
	seen     distinctSet
}

// counterCapacity is the table size; comfortably above the paper's
// five tracked invariant values.
const counterCapacity = 16

// distinctSaturation bounds the distinct-value estimator's memory.
const distinctSaturation = 64

func newValueCounter() *ValueCounter { return &ValueCounter{} }

// Observe records one execution with input tuple (a, b).
func (c *ValueCounter) Observe(a, b int64) {
	k := valueKey{a, b}
	c.total++
	for i, kk := range c.keys[:c.used] {
		if kk == k {
			c.counts[i]++
			return
		}
	}
	// Only a tuple missing from the table can be new to the estimator:
	// every tuple in the table was offered to it when first observed.
	if c.distinct < distinctSaturation && c.seen.insert(k) {
		c.distinct++
		if c.distinct == distinctSaturation {
			c.seen = distinctSet{}
		}
	}
	if c.used < counterCapacity {
		c.keys[c.used] = k
		c.counts[c.used] = 1
		c.used++
		return
	}
	// Space-saving replacement: evict the minimum and inherit its count.
	for {
		for i := c.minNext; i < counterCapacity; i++ {
			if c.counts[i] == c.minCount {
				c.keys[i] = k
				c.counts[i]++
				c.minNext = i + 1
				return
			}
		}
		// No slot holds minCount any more: raise it to the table minimum.
		c.minCount, c.minNext = c.counts[0], 0
		for _, n := range c.counts[1:] {
			c.minCount = min(c.minCount, n)
		}
	}
}

// Total returns the number of observations.
func (c *ValueCounter) Total() int64 { return c.total }

// Distinct returns the (saturating) count of distinct input tuples seen.
func (c *ValueCounter) Distinct() int { return c.distinct }

// TopK returns the combined weight of the k most frequent tuples.
func (c *ValueCounter) TopK(k int) int64 {
	if k > c.used {
		k = c.used
	}
	// Partial selection over a copy of the ≤16-slot table.
	counts := c.counts
	n := c.used
	var sum int64
	for ; k > 0; k-- {
		mi := 0
		for i := 1; i < n; i++ {
			if counts[i] > counts[mi] {
				mi = i
			}
		}
		sum += counts[mi]
		n--
		counts[mi] = counts[n]
	}
	return sum
}

// Invariance returns TopK(k)/Total — the fraction of executions covered by
// the k most frequent input tuples (heuristic function 1 of §4.4).
func (c *ValueCounter) Invariance(k int) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.TopK(k)) / float64(c.total)
}

// distinctSet is an open-addressed set of input tuples for the distinct
// estimator. It starts empty, doubles at half load and never holds more
// than distinctSaturation tuples, so it tops out at 128 slots.
type distinctSet struct {
	slots []valueKey
	full  []bool
	n     int
}

// insert adds k and reports whether it was absent.
func (s *distinctSet) insert(k valueKey) bool {
	if 2*(s.n+1) > len(s.slots) {
		s.grow()
	}
	mask := len(s.slots) - 1
	for i := hashKey(k) & mask; ; i = (i + 1) & mask {
		if !s.full[i] {
			s.slots[i], s.full[i] = k, true
			s.n++
			return true
		}
		if s.slots[i] == k {
			return false
		}
	}
}

func (s *distinctSet) grow() {
	old, oldFull := s.slots, s.full
	size := 2 * len(old)
	if size == 0 {
		size = 4
	}
	s.slots, s.full, s.n = make([]valueKey, size), make([]bool, size), 0
	for i, k := range old {
		if oldFull[i] {
			s.insert(k)
		}
	}
}

// hashKey mixes both halves of a tuple into a slot index.
func hashKey(k valueKey) int {
	h := uint64(k.a)*0x9e3779b97f4a7c15 ^ uint64(k.b)*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	return int(h)
}
