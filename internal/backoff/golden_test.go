package backoff

import (
	"reflect"
	"testing"
	"time"
)

// TestGoldenExpoDelays pins the first 16 delays of two seeds (default
// bounds) to literal values: TestExpoReplayable only compares two Expos
// built from the same code.
func TestGoldenExpoDelays(t *testing.T) {
	want := map[uint64][]time.Duration{
		7: {33914056, 53200400, 189063303, 385428995, 797265781, 874086788, 1419174143, 1414449510,
			1997268581, 1162966687, 1062490985, 1206958752, 1358199140, 1788739670, 1949348047, 1643672580},
		0xfeedface: {34332712, 61631914, 110590646, 342773798, 549425865, 1339563508, 1690557068, 1859256608,
			1973593731, 1344946648, 1324163912, 1365002442, 1476923949, 1406970269, 1629945246, 1472539002},
	}
	for _, seed := range []uint64{7, 0xfeedface} {
		e := &Expo{Seed: seed}
		var got []time.Duration
		for i := 0; i < 16; i++ {
			got = append(got, e.Next())
		}
		if !reflect.DeepEqual(got, want[seed]) {
			t.Errorf("seed %#x delays changed:\n got  %v\n want %v", seed, got, want[seed])
		}
	}
}
