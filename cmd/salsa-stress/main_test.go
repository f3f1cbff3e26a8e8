package main

import (
	"testing"

	"salsa"
)

func TestParseAlgorithm(t *testing.T) {
	cases := map[string]salsa.Algorithm{
		"salsa":     salsa.SALSA,
		"SALSA":     salsa.SALSA,
		"salsa+cas": salsa.SALSACAS,
		"salsacas":  salsa.SALSACAS,
		"concbag":   salsa.ConcBag,
		"ws-msq":    salsa.WSMSQ,
		"wsmsq":     salsa.WSMSQ,
		"ws-lifo":   salsa.WSLIFO,
		"WSLIFO":    salsa.WSLIFO,
	}
	for in, want := range cases {
		got, err := parseAlgorithm(in)
		if err != nil || got != want {
			t.Errorf("parseAlgorithm(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"bogus", "ed-pool", "ws-chunkq", "ws-baskets"} {
		if _, err := parseAlgorithm(in); err == nil {
			t.Errorf("parseAlgorithm(%q) accepted", in)
		}
	}
}
