package main

import (
	"reflect"
	"testing"

	"salsa/internal/failpoint"
	"salsa/internal/netchaos"
	"salsa/internal/remote"
	"salsa/internal/seeded"
)

// parsed is what both vocabularies' schedules share.
type parsed interface {
	Spec() string
	Rules() []*seeded.Rule
}

func parse(cluster bool, spec string) (parsed, error) {
	if cluster {
		return netchaos.ParseSchedule(1, spec)
	}
	return failpoint.ParseSchedule(1, spec)
}

// FuzzSchedule feeds arbitrary specs to both vocabularies of the schedule
// grammar, seeded from every spec string of the two matrices (so plain
// `go test` also proves each of them parses, and that every cluster row
// has a bounded loss budget): Parse never panics, and
// whatever it accepts renders to a Spec that parses back to the same rules —
// the FAIL line's schedule string is a faithful replay recipe.
func FuzzSchedule(f *testing.F) {
	for _, sc := range matrix {
		f.Add(false, sc.spec)
	}
	for _, sc := range clusterMatrix {
		if _, err := (remote.ClusterOptions{Scenario: sc}).LossBudget(); err != nil {
			f.Fatalf("%s: %v", sc.Name, err)
		}
		for _, spec := range []string{sc.ProdSpec, sc.WorkSpec, sc.HandoffSpec} {
			f.Add(true, spec)
		}
	}
	fields := func(s parsed) (out [][5]any) {
		for _, r := range s.Rules() {
			out = append(out, [5]any{r.Site, r.Action, r.Delay, r.Rate, r.Count})
		}
		return out
	}
	f.Fuzz(func(t *testing.T, cluster bool, spec string) {
		s, err := parse(cluster, spec)
		if err != nil {
			return
		}
		again, err := parse(cluster, s.Spec())
		if err != nil {
			t.Fatalf("Parse(%q) rendered %q, which does not parse: %v", spec, s.Spec(), err)
		}
		if !reflect.DeepEqual(fields(s), fields(again)) || s.Spec() != again.Spec() {
			t.Fatalf("Parse(%q) = %v renders %q, which parses to %v", spec, fields(s), s.Spec(), fields(again))
		}
	})
}
