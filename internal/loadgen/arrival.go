// Package loadgen generates seeded, replayable traffic against the pool
// and the executor: open-loop arrival processes (Poisson, bursts, diurnal
// ramps, thundering herds), heavy-tailed task sizes, Zipf producer skew,
// and priority-class mixes, driven through the admission-control layer so
// every offered task ends the run accounted exactly once — delivered or
// measurably shed. The same determinism discipline as the DST and netchaos
// subsystems: one seeded.RNG stream per schedule, so the same seed yields
// a byte-identical arrival schedule (see Schedule.Log). DESIGN.md §15.
package loadgen

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"time"

	"salsa"
	"salsa/internal/seeded"
)

// ShapeKind selects the arrival process family.
type ShapeKind int

const (
	// Poisson is a homogeneous Poisson process at Shape.Rate.
	Poisson ShapeKind = iota
	// Bursts is Poisson at Shape.Rate, multiplied by BurstFactor inside
	// periodic windows of BurstLen every BurstEvery.
	Bursts
	// Ramp is a diurnal triangle: the rate climbs linearly from Rate to
	// PeakRate at mid-horizon and back down — one compressed day.
	Ramp
	// Herd is Poisson at Shape.Rate plus HerdSize arrivals released at
	// the single instant HerdAt — the thundering herd.
	Herd
)

// String returns the kind's schedule-log label.
func (k ShapeKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Bursts:
		return "bursts"
	case Ramp:
		return "ramp"
	case Herd:
		return "herd"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Shape is one arrival process. Only the fields of the selected Kind are
// read; Rate is the baseline for every kind.
type Shape struct {
	Kind ShapeKind
	// Rate is the baseline arrival rate in tasks/second. Required.
	Rate float64

	// Bursts fields: every BurstEvery, the rate becomes Rate*BurstFactor
	// for BurstLen.
	BurstEvery  time.Duration
	BurstLen    time.Duration
	BurstFactor float64

	// Ramp field: the mid-horizon peak rate.
	PeakRate float64

	// Herd fields: HerdSize extra arrivals all stamped HerdAt.
	HerdAt   time.Duration
	HerdSize int
}

// rateAt is the instantaneous rate λ(t), the thinning target.
func (s Shape) rateAt(t, horizon time.Duration) float64 {
	switch s.Kind {
	case Bursts:
		if s.BurstEvery > 0 && t%s.BurstEvery < s.BurstLen {
			return s.Rate * s.BurstFactor
		}
		return s.Rate
	case Ramp:
		if horizon <= 0 {
			return s.Rate
		}
		// Triangle peaking at horizon/2: fraction ∈ [0,1] of the climb.
		x := float64(t) / float64(horizon)
		frac := 1 - math.Abs(2*x-1)
		return s.Rate + (s.PeakRate-s.Rate)*frac
	default: // Poisson, Herd baseline
		return s.Rate
	}
}

// maxRate bounds λ(t) over the horizon — the homogeneous envelope rate the
// thinning sampler proposes at.
func (s Shape) maxRate() float64 {
	switch s.Kind {
	case Bursts:
		if s.BurstFactor > 1 {
			return s.Rate * s.BurstFactor
		}
		return s.Rate
	case Ramp:
		if s.PeakRate > s.Rate {
			return s.PeakRate
		}
		return s.Rate
	default:
		return s.Rate
	}
}

// Arrival is one scheduled task offer.
type Arrival struct {
	// At is the offset from run start at which the task is offered.
	At time.Duration
	// Producer is the offering producer id (Zipf-skewed when the
	// scenario sets ZipfS).
	Producer int
	// Seq numbers the arrival within its producer, 0-based.
	Seq int
	// Index is the global schedule position — the task's ledger identity.
	Index int
	// Size is the simulated work in spin iterations (heavy-tailed when
	// the scenario sets SizeAlpha).
	Size int
	// Class is the admission priority class.
	Class salsa.PriorityClass
}

// Schedule is a fully materialized arrival plan: same scenario + same seed
// ⇒ the same Schedule, byte for byte (see Log).
type Schedule struct {
	Scenario string
	Seed     uint64
	Arrivals []Arrival
	// PerProducer[p] counts p's arrivals — the producers' replay slices.
	PerProducer []int
}

// zipfWeights returns the cumulative Zipf(s) weight table over n ranks;
// rank 0 (producer 0) is the hottest. s == 0 degenerates to uniform.
func zipfWeights(n int, s float64) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return cum
}

// BuildSchedule materializes the scenario's arrival plan under seed. The
// generation is a single sequential pass over one seeded.RNG stream:
// arrival times first (Lewis–Shedler thinning against the shape's rate
// envelope, plus the herd spike), then per-arrival producer, class, and
// size draws in time order — so the schedule is a pure function of
// (scenario, seed).
func BuildSchedule(sc Scenario, seed uint64) *Schedule {
	r := seeded.NewRNG(seed)
	shape := sc.Shape
	horizon := sc.Horizon
	envelope := shape.maxRate()

	var times []time.Duration
	if envelope > 0 {
		t := 0.0
		limit := horizon.Seconds()
		for {
			t += r.Expo() / envelope
			if t >= limit {
				break
			}
			at := time.Duration(t * float64(time.Second))
			// Thinning: accept with probability λ(t)/envelope.
			if r.Float64()*envelope < shape.rateAt(at, horizon) {
				times = append(times, at)
			}
		}
	}
	if shape.Kind == Herd {
		for i := 0; i < shape.HerdSize; i++ {
			times = append(times, shape.HerdAt)
		}
		// The thinned baseline is already time-sorted; fold the spike in.
		// Stable so the herd's arrivals keep their generation order at
		// the shared instant.
		sort.SliceStable(times, func(i, j int) bool { return times[i] < times[j] })
	}

	var cum []float64
	if sc.ZipfS > 0 && sc.Producers > 1 {
		cum = zipfWeights(sc.Producers, sc.ZipfS)
	}

	s := &Schedule{
		Scenario:    sc.Name,
		Seed:        seed,
		Arrivals:    make([]Arrival, len(times)),
		PerProducer: make([]int, sc.Producers),
	}
	for i, at := range times {
		a := &s.Arrivals[i]
		a.At = at
		a.Index = i
		// Producer: Zipf rank draw, or uniform.
		if cum != nil {
			u := r.Float64() * cum[len(cum)-1]
			a.Producer = sort.SearchFloat64s(cum, u)
			if a.Producer >= sc.Producers { // u == total edge
				a.Producer = sc.Producers - 1
			}
		} else {
			a.Producer = int(r.Uint64() % uint64(sc.Producers))
		}
		a.Seq = s.PerProducer[a.Producer]
		s.PerProducer[a.Producer]++
		// Class.
		if sc.HighFrac > 0 && r.Float64() < sc.HighFrac {
			a.Class = salsa.ClassHigh
		} else {
			a.Class = salsa.ClassLow
		}
		// Size: capped Pareto, or the fixed minimum.
		size := sc.SizeMin
		if size <= 0 {
			size = 1
		}
		if sc.SizeAlpha > 0 {
			u := r.Float64()
			for u == 0 {
				u = r.Float64()
			}
			size = int(float64(size) * math.Pow(u, -1/sc.SizeAlpha))
			if sc.SizeCap > 0 && size > sc.SizeCap {
				size = sc.SizeCap
			}
		}
		a.Size = size
	}
	return s
}

// Log renders the schedule in a canonical byte format — the replay
// contract's witness: two schedules are identical iff their Logs are. One
// line per arrival plus a header; nanosecond offsets, so no float
// formatting ambiguity.
func (s *Schedule) Log() []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "schedule scenario=%s seed=%d arrivals=%d\n", s.Scenario, s.Seed, len(s.Arrivals))
	for i := range s.Arrivals {
		a := &s.Arrivals[i]
		fmt.Fprintf(&b, "%08d at=%dns p=%d seq=%d size=%d class=%s\n",
			a.Index, a.At.Nanoseconds(), a.Producer, a.Seq, a.Size, a.Class)
	}
	return b.Bytes()
}
