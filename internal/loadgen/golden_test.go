package loadgen

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGoldenScheduleLogs pins every matrix scenario's seed-1 arrival plan to
// the SHA-256 of its canonical Log. TestScheduleDeterministic compares two
// builds of the same code; this compares against the bytes a FAIL line's
// replay recipe promised, so a generator change that moved every arrival
// fails here.
func TestGoldenScheduleLogs(t *testing.T) {
	want := map[string]string{
		"steady-poisson":     "2ee7efa23eecf45720e37c576c9fbcec9379c8ac180a17b1517e5a49a768cd59",
		"poisson-burst":      "7ea3e23f97221c90517c804fb5a80c6596baff7f613b1218c9d648e80fc8c06e",
		"diurnal-ramp":       "c8ecb862dd01a255644a6325d7d2ee00407b6a48439a9fa06606bb738b4fc57d",
		"thundering-herd":    "30185b10106d44802564e0bfba43c61e9c626e1944ba8d365553c2ed09c00f5b",
		"zipf-hotspot":       "5667356707f8c1bdc03c784d73bdd2ddf1f6827ba8d2f78dbb4db974b4a15e34",
		"heavy-tail-sizes":   "f4e5b0ff1f9a379f5e90c7f6cdeb2d17582d068e8ebd75bb51d230a4f02de0fe",
		"priority-flood":     "345a261b3812cbe70ec34f1621c401dd4f1db4a8c8c2fda0fed8784cdda62462",
		"saturating-flood":   "7e3c039ac7f91744bf22df14621963a5557c148b1a1ae3117c009d73e73db8ba",
		"executor-queue-mix": "8bb05b72fd7bb20ebcbdd0fe1f9fe0daa80d71af2c95a96cc80852af3b9e3e4f",
	}
	for _, sc := range Matrix() {
		sum := sha256.Sum256(BuildSchedule(sc, 1).Log())
		if got := hex.EncodeToString(sum[:]); got != want[sc.Name] {
			t.Errorf("%s seed 1: Log() sha256 = %s, want %s", sc.Name, got, want[sc.Name])
		}
	}
}
