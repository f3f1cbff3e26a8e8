package netchaos

import (
	"reflect"
	"testing"
	"time"
)

// TestGoldenPickSequence pins the seed→fault map to literal values: for one
// fixed seed, which visit of each site fires which rule and with what coin
// (the coin also picks a reset's delivered prefix and a delay's jitter, so
// it is part of the replay contract). The two c2s rules are equal in
// everything the coin sees — site and rate — and differ only in the delay
// that tells them apart here: their sequences differ because the rule index
// salts the coin. TestProxyReplayableFaults only compares a run with
// itself; a change that shifted every sequence would pass it and fail this.
func TestGoldenPickSequence(t *testing.T) {
	s, err := ParseSchedule(99, "c2s=delay:1ms@0.05#12,c2s=delay:2ms@0.05,s2c=reset@0.03#8")
	if err != nil {
		t.Fatal(err)
	}
	type fire struct {
		Visit   int
		DelayMs int // 1 or 2 names the c2s rule; the reset rule has none
		Coin    uint64
	}
	got := map[Site][]fire{}
	for v := 0; v < 512; v++ {
		for _, site := range []Site{SiteC2S, SiteS2C} {
			if r, coin := s.pick(site); r != nil {
				got[site] = append(got[site], fire{v, int(r.Delay / time.Millisecond), coin})
			}
		}
	}
	want := map[Site][]fire{
		SiteC2S: {
			{12, 1, 0x7c1420766ab024e}, {22, 1, 0xbcd061be81c5010}, {26, 2, 0xa97dcd56b7d8ae9},
			{28, 2, 0xa430f230f40abe1}, {35, 2, 0xc225fb91e7bd3a3}, {39, 2, 0x272481207d1dee0},
			{58, 1, 0x77b3b99cdb7fa6f}, {61, 2, 0x3fed24c342b2feb}, {66, 1, 0xb38f41de476c351},
			{69, 2, 0xa55932986bdb611}, {105, 2, 0x71b7dc3c0be785}, {111, 1, 0x56a65ee0b6691c5},
			{119, 2, 0x6b523a576f1d05d}, {134, 2, 0x3f2ff84bce387d6}, {160, 2, 0x526e4b553f1c5a0},
			{170, 1, 0x9cf93d26c8d7df3}, {177, 2, 0x9c42f6a0dca1866}, {239, 1, 0xbb1d216d0ea7251},
			{241, 2, 0xae179b7734f160f}, {245, 1, 0x7e33de41bb540cf}, {254, 2, 0xa90a50742f5ffbc},
			{277, 2, 0x535b0f4ef0cfc76}, {309, 2, 0xc0943fd5048b2e2}, {329, 1, 0x2f40937c5081aa6},
			{337, 1, 0x3fb5af351c0c517}, {374, 2, 0xa8972cb82334cf9}, {378, 1, 0x5b5e250c6191999},
			{402, 1, 0xc41663bd5b90938}, {403, 2, 0xa8e411dbdafad35}, {413, 2, 0x2e87a0420006b55},
			{433, 2, 0x254bcad19ff6850}, {434, 2, 0x592372740bbc80f}, {441, 2, 0x2bd044f08382cac},
			{450, 2, 0x6bb8927de5f35cf}, {452, 2, 0x5614a5cae58172},
		},
		SiteS2C: {
			{3, 0, 0xe58121823a0c50}, {8, 0, 0x765db710a73d2b9}, {11, 0, 0x1126012644eb716},
			{24, 0, 0x13d96e4f98917ab}, {26, 0, 0x5700e024235ee60}, {27, 0, 0x108815095c88895},
			{87, 0, 0x5591cfdb655954}, {126, 0, 0x94ed1df3b4a795},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("seed 99 pick sequence changed:\n got  %v\n want %v", got, want)
	}
}
