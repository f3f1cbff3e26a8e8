package failpoint

import (
	"reflect"
	"testing"
)

// TestGoldenFiringSequence pins the seed→firing map to literal values: which
// visit ordinals of each site fire which rule, for one fixed seed. The other
// determinism tests compare a run with itself, so a change to the coin, the
// rate test or the #count budget that shifted every sequence would pass
// them; this one fails. Rules are driven through apply, exactly as the hook
// Arm registers does (declaration order, first firing rule wins), without
// the registry — so it also holds in salsa_nofailpoint builds.
func TestGoldenFiringSequence(t *testing.T) {
	s, err := ParseSchedule(42,
		"chunkpool.exhausted=fail@0.05#40,chunkpool.exhausted=fail@0.5#25,consume.after-announce=fail@0.02#9")
	if err != nil {
		t.Fatal(err)
	}
	// visit drives one site visit and returns the index of the rule that
	// fired, or -1.
	visit := func(site Site, rules ...int) int {
		for _, i := range rules {
			if s.rules[i].apply(s.Seed(), site, 0) {
				return i
			}
		}
		return -1
	}
	got := make([][]int, 3)
	for v := 0; v < 512; v++ {
		if i := visit(ChunkpoolExhausted, 0, 1); i >= 0 {
			got[i] = append(got[i], v)
		}
		if i := visit(ConsumeAfterAnnounce, 2); i >= 0 {
			got[i] = append(got[i], v)
		}
	}
	want := [][]int{
		{19, 20, 23, 24, 56, 57, 81, 87, 90, 101, 185, 195, 215, 243, 246, 248, 252, 290, 300, 310, 314, 328, 335, 341, 373, 374, 377, 378, 383, 400, 403, 405, 416, 417, 467},
		{0, 2, 3, 4, 5, 6, 10, 14, 15, 17, 21, 22, 26, 27, 28, 33, 34, 37, 40, 41, 43, 48, 49, 50, 53},
		{2, 46, 152, 353, 361, 427, 452, 480},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed 42 firing visits changed:\n got  %v\n want %v", got, want)
	}
	// Only the second rule spends its #25 budget inside 512 visits and then
	// stays silent; the rate alone decides every visit of the other two.
	if n := s.TotalFired(); n != 35+25+8 {
		t.Fatalf("TotalFired = %d, want 68", n)
	}
}
