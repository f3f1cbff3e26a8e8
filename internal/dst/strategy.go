package dst

import "salsa/internal/seeded"

// Strategy picks the next goroutine to grant. Pick receives the step index
// and the runnable goroutine ids in ascending order, and must be
// deterministic in (its seed, the sequence of Pick calls).
type Strategy interface {
	Name() string
	Pick(step int, runnable []int) int
}

// RandomWalk picks uniformly among the runnable goroutines — the baseline
// explorer. Cheap and surprisingly effective for shallow races, but the
// probability of a specific k-step pattern decays as (1/width)^k.
type RandomWalk struct{ r *seeded.RNG }

// NewRandomWalk returns a seeded random-walk strategy.
func NewRandomWalk(seed uint64) *RandomWalk { return &RandomWalk{r: seeded.NewRNG(seed)} }

func (s *RandomWalk) Name() string { return "random" }

func (s *RandomWalk) Pick(_ int, runnable []int) int {
	return runnable[s.r.Intn(len(runnable))]
}

// PCT implements the probabilistic-concurrency-testing scheduler
// (Burckhardt et al., ASPLOS 2010): each goroutine gets a random priority,
// the highest-priority runnable goroutine always runs, and at d-1 random
// change points the running goroutine's priority is dropped below
// everything seen so far. For a bug of depth d (d ordering constraints),
// a single PCT schedule finds it with probability ≥ 1/(n·k^(d-1)) — a
// guarantee a uniform walk cannot give for deep bugs.
type PCT struct {
	r       *seeded.RNG
	depth   int
	length  int
	prio    map[int]uint64
	changes map[int]bool
	floor   uint64
}

// NewPCT returns a seeded PCT strategy with the given depth d and an
// expected schedule length k (used to place the d-1 change points).
func NewPCT(seed uint64, depth, length int) *PCT {
	if depth < 1 {
		depth = 1
	}
	if length < 1 {
		length = 1
	}
	s := &PCT{
		r:       seeded.NewRNG(seed),
		depth:   depth,
		length:  length,
		prio:    make(map[int]uint64),
		changes: make(map[int]bool),
		floor:   1 << 62,
	}
	for i := 0; i < depth-1; i++ {
		s.changes[s.r.Intn(length)] = true
	}
	return s
}

func (s *PCT) Name() string { return "pct" }

func (s *PCT) Pick(step int, runnable []int) int {
	// Lazily assign initial priorities in first-seen order, which is
	// itself deterministic under a deterministic schedule prefix. Keep
	// initial priorities above the change-point floor band.
	for _, id := range runnable {
		if _, ok := s.prio[id]; !ok {
			s.prio[id] = (1 << 62) + s.r.Uint64()>>2
		}
	}
	best := runnable[0]
	for _, id := range runnable[1:] {
		if s.prio[id] > s.prio[best] {
			best = id
		}
	}
	if s.changes[step] {
		// Change point: demote the goroutine that would have run to a
		// fresh value below every priority handed out so far.
		s.floor--
		s.prio[best] = s.floor
		best = runnable[0]
		for _, id := range runnable[1:] {
			if s.prio[id] > s.prio[best] {
				best = id
			}
		}
	}
	return best
}

// ReplayStrategy replays a recorded goroutine-id choice list verbatim;
// steps beyond the list (or whose choice is no longer runnable — possible
// after shrinking edits) fall back to the lowest runnable id, which is the
// same deterministic tail the controller itself uses past its budget.
type ReplayStrategy struct{ choices []int }

// NewReplay returns a strategy replaying the given choice list.
func NewReplay(choices []int) *ReplayStrategy {
	return &ReplayStrategy{choices: append([]int(nil), choices...)}
}

func (s *ReplayStrategy) Name() string { return "replay" }

func (s *ReplayStrategy) Pick(step int, runnable []int) int {
	if step < len(s.choices) {
		want := s.choices[step]
		for _, id := range runnable {
			if id == want {
				return want
			}
		}
	}
	return runnable[0]
}

// dfsStrategy drives one schedule of the bounded exhaustive search: the
// first len(prefix) decisions follow the prefix (indices into the sorted
// runnable set, NOT goroutine ids — the id set varies as goroutines
// finish), everything after takes index 0. The explorer advances the
// prefix odometer between runs using the recorded widths; unlike
// modelcheck's memoized DFS, real state cannot be hashed, so each prefix
// re-executes the scenario from scratch (CHESS-style stateless search).
type dfsStrategy struct{ prefix []int }

func (s *dfsStrategy) Name() string { return "dfs" }

func (s *dfsStrategy) Pick(step int, runnable []int) int {
	i := 0
	if step < len(s.prefix) {
		i = s.prefix[step]
		if i >= len(runnable) {
			i = len(runnable) - 1
		}
	}
	return runnable[i]
}

// nextDFSPrefix advances the odometer: given the prefix just executed, the
// per-step branching widths it observed, and the depth bound, produce the
// lexicographically next prefix, or nil when the bounded tree is exhausted.
func nextDFSPrefix(prefix, widths []int, depth int) []int {
	n := len(widths)
	if n > depth {
		n = depth
	}
	at := func(p int) int {
		if p < len(prefix) {
			return prefix[p]
		}
		return 0
	}
	for p := n - 1; p >= 0; p-- {
		if at(p)+1 < widths[p] {
			next := make([]int, p+1)
			for i := 0; i < p; i++ {
				next[i] = at(i)
			}
			next[p] = at(p) + 1
			return next
		}
	}
	return nil
}
