package dst

import (
	"reflect"
	"testing"
)

// TestGoldenStrategyPicks pins the first 64 picks of the two seeded
// strategies to literal values. The runnable set shrinks and grows with the
// step so the picks exercise intn at several widths and PCT's lazy priority
// assignment; TestExploreDeterministic only compares a run with itself.
func TestGoldenStrategyPicks(t *testing.T) {
	ids := []int{0, 1, 2, 3, 4, 5}
	picks := func(s Strategy) []int {
		out := make([]int, 64)
		for step := range out {
			out[step] = s.Pick(step, ids[:2+step%5])
		}
		return out
	}
	for _, tc := range []struct {
		s    Strategy
		want []int
	}{
		{NewRandomWalk(7), []int{
			1, 0, 2, 3, 4, 1, 1, 2, 0, 5, 1, 1, 2, 4, 0, 0, 1, 3, 2, 4, 1, 2, 1, 0, 2, 1, 0, 3, 0, 5, 0, 2,
			0, 3, 3, 1, 2, 1, 2, 1, 1, 1, 0, 0, 0, 0, 0, 2, 3, 2, 0, 2, 2, 2, 1, 1, 0, 3, 4, 0, 0, 0, 2, 0}},
		{NewPCT(7, 3, 64), []int{
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 4, 4, 0, 2,
			2, 4, 4, 0, 2, 2, 4, 4, 0, 2, 2, 4, 4, 0, 2, 2, 4, 4, 0, 2, 2, 4, 4, 0, 2, 2, 4, 4, 0, 2, 2, 4}},
	} {
		if got := picks(tc.s); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s seed 7 picks changed:\n got  %v\n want %v", tc.s.Name(), got, tc.want)
		}
	}
}
