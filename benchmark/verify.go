package main

import "math/bits"

// verifier is the exactly-once check every workload shares. Each task
// carries a sequence number; whoever receives it marks that bit. A bit never
// set is a lost task, a bit set twice a duplicate. Every receiving goroutine
// marks its own lane with plain (non-atomic) writes, so the check costs the
// consume path one cached read-modify-write per task and no sharing; tally
// folds the lanes once the goroutines have stopped.
type verifier struct {
	lanes []verifierLane
	n     int64 // sequences 0..n-1 are valid
}

type verifierLane struct {
	bits  []uint64
	dups  int64 // bit already set in this lane
	stray int64 // sequence outside 0..n-1
	_     [40]byte
}

func newVerifier(n int64, lanes int) *verifier {
	v := &verifier{lanes: make([]verifierLane, lanes), n: n}
	for i := range v.lanes {
		v.lanes[i].bits = make([]uint64, (n+63)/64)
	}
	return v
}

func (v *verifier) mark(lane int, seq int64) {
	l := &v.lanes[lane]
	if uint64(seq) >= uint64(v.n) {
		l.stray++
		return
	}
	w, m := &l.bits[seq>>6], uint64(1)<<(seq&63)
	if *w&m != 0 {
		l.dups++
	}
	*w |= m
}

// verdict is a trial's exactly-once accounting.
type verdict struct {
	attempted int64 // tasks offered to the system
	refused   int64 // shed, refused or errored at the entry point
	lost      int64 // accepted, never received
	dup       int64 // received more than once, or never sent
}

func (d verdict) failed() int64 { return d.lost + d.dup + d.refused }

// tally closes the books: sequences 0..attempted-1 were offered, refused of
// them were turned away at the entry point (and so must not arrive).
func (v *verifier) tally(attempted, refused int64) verdict {
	d := verdict{attempted: attempted, refused: refused}
	var received int64
	for w := range v.lanes[0].bits {
		var all uint64
		for i := range v.lanes {
			b := v.lanes[i].bits[w]
			d.dup += int64(bits.OnesCount64(all & b)) // same task in two lanes
			all |= b
		}
		// Bits at or past attempted are tasks nobody sent.
		valid := ^uint64(0)
		if lo := int64(w) * 64; lo+64 > attempted {
			valid = uint64(1)<<max(attempted-lo, 0) - 1
		}
		received += int64(bits.OnesCount64(all & valid))
		d.dup += int64(bits.OnesCount64(all &^ valid))
	}
	for i := range v.lanes {
		d.dup += v.lanes[i].dups + v.lanes[i].stray
	}
	d.lost = max(attempted-refused-received, 0)
	return d
}
