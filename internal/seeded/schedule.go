package seeded

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Action is one entry of a grammar's action vocabulary.
type Action struct {
	Name string
	// TakesDelay marks actions written `name:delay`; Default is the delay
	// when the `:delay` part is omitted.
	TakesDelay bool
	Default    time.Duration
}

// Grammar is one vocabulary of the schedule format shared by every fault
// injector:
//
//	site=action[:delay][@rate][#count][,site=action...]
//
// @rate is a per-visit firing probability in (0,1] (default 1); #count caps
// total firings (default unlimited); :delay is a time.ParseDuration string,
// valid only on the actions that take one. A rule's Site and Action are
// indexes into Sites and Actions, which the owning package mirrors with its
// typed enums.
type Grammar struct {
	// Prefix opens every error ("failpoint", "netchaos").
	Prefix  string
	Sites   []string
	Actions []Action
	// Normalize, when set, rewrites each parsed rule before it joins the
	// schedule — the hook for a vocabulary's own quirks.
	Normalize func(*Rule)
}

// Rule is one parsed rule plus its firing state.
type Rule struct {
	Site, Action int
	Delay        time.Duration
	// Rate is the per-visit firing probability in (0,1]; Count caps how
	// many times the rule fires, 0 meaning unlimited.
	Rate  float64
	Count int
	// Index is the rule's declaration position in its schedule.
	Index int

	g      *Grammar
	visits atomic.Uint64
	fired  atomic.Int64
}

// String renders the rule in schedule syntax; Parse reads it back.
func (r *Rule) String() string {
	a := r.g.Actions[r.Action]
	var b strings.Builder
	b.WriteString(r.g.Sites[r.Site])
	b.WriteByte('=')
	b.WriteString(a.Name)
	if a.TakesDelay {
		b.WriteByte(':')
		b.WriteString(r.Delay.String())
	}
	if r.Rate < 1 {
		fmt.Fprintf(&b, "@%s", strconv.FormatFloat(r.Rate, 'g', -1, 64))
	}
	if r.Count > 0 {
		fmt.Fprintf(&b, "#%d", r.Count)
	}
	return b.String()
}

// Visit returns this visit's ordinal (0-based) and advances the counter.
// The caller folds it into the coin it hands to Fire, so the decision is a
// pure function of (seed, rule coordinates, visit) however visits interleave.
func (r *Rule) Visit() uint64 { return r.visits.Add(1) - 1 }

// Fire is the one firing rule: the coin's top 53 bits must fall under Rate,
// and a slot of the #count budget must be free. A true result has already
// been counted; a caller whose action then declines gives the slot back
// with Refund.
func (r *Rule) Fire(coin uint64) bool {
	if r.Rate < 1 && unit(coin) >= r.Rate {
		return false
	}
	if n := r.fired.Add(1); r.Count > 0 && n > int64(r.Count) {
		r.fired.Add(-1) // over budget: the visit passes through
		return false
	}
	return true
}

// Refund undoes one Fire whose action did not happen.
func (r *Rule) Refund() { r.fired.Add(-1) }

// Fired returns how many times the rule has fired.
func (r *Rule) Fired() int64 { return r.fired.Load() }

// Schedule is a seeded, replayable rule list. The engine stores the seed but
// never reads it: each injector mixes it into its own coin expression.
type Schedule struct {
	seed  uint64
	rules []*Rule
}

// Seed returns the schedule's seed; with Spec it is the whole replay recipe.
func (s *Schedule) Seed() uint64 { return s.seed }

// Rules returns the rules in declaration order.
func (s *Schedule) Rules() []*Rule { return s.rules }

// Spec renders the schedule back to its parseable spec string.
func (s *Schedule) Spec() string {
	parts := make([]string, len(s.rules))
	for i, r := range s.rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, ",")
}

// Fired returns each rule's firing count keyed by its spec string.
func (s *Schedule) Fired() map[string]int64 {
	out := make(map[string]int64, len(s.rules))
	for _, r := range s.rules {
		out[r.String()] += r.Fired()
	}
	return out
}

// FiredByAction returns nonzero firing totals keyed by action name.
func (s *Schedule) FiredByAction() map[string]int64 {
	out := make(map[string]int64)
	for _, r := range s.rules {
		if n := r.Fired(); n > 0 {
			out[r.g.Actions[r.Action].Name] += n
		}
	}
	return out
}

// TotalFired returns the total number of rule firings so far.
func (s *Schedule) TotalFired() int64 {
	var n int64
	for _, r := range s.rules {
		n += r.Fired()
	}
	return n
}

// listUpTo is the largest vocabulary an "unknown name" error spells out.
const listUpTo = 8

// unknown is the error for a name outside a vocabulary.
func (g *Grammar) unknown(kind, name string, names []string) error {
	if len(names) > listUpTo {
		return fmt.Errorf("%s: unknown %s %q", g.Prefix, kind, name)
	}
	return fmt.Errorf("%s: unknown %s %q (want %s)", g.Prefix, kind, name, strings.Join(names, "|"))
}

// Site resolves a site name to its index.
func (g *Grammar) Site(name string) (int, error) {
	for i, n := range g.Sites {
		if n == name {
			return i, nil
		}
	}
	return 0, g.unknown("site", name, g.Sites)
}

func (g *Grammar) action(name string) (int, error) {
	names := make([]string, len(g.Actions))
	for i, a := range g.Actions {
		if names[i] = a.Name; a.Name == name {
			return i, nil
		}
	}
	return 0, g.unknown("action", name, names)
}

// cutLast splits s at the last occurrence of sep, trimming space from both
// halves. The `#count` and `@rate` suffixes bind after the delay, so they
// must be cut from the right.
func cutLast(s string, sep byte) (before, after string, found bool) {
	if i := strings.LastIndexByte(s, sep); i >= 0 {
		return strings.TrimSpace(s[:i]), strings.TrimSpace(s[i+1:]), true
	}
	return strings.TrimSpace(s), "", false
}

// Parse parses a comma-separated spec under seed. Empty rules (and an empty
// spec) are skipped.
func (g *Grammar) Parse(seed uint64, spec string) (*Schedule, error) {
	s := &Schedule{seed: seed}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		bad := func(format string, args ...any) (*Schedule, error) {
			return nil, fmt.Errorf("%s: rule %q: %s", g.Prefix, part, fmt.Sprintf(format, args...))
		}
		siteStr, rest, ok := strings.Cut(part, "=")
		if !ok {
			return bad("want site=action[:delay][@rate][#count]")
		}
		site, err := g.Site(strings.TrimSpace(siteStr))
		if err != nil {
			return nil, err
		}
		r := &Rule{Site: site, Rate: 1, Index: len(s.rules), g: g}
		if head, cnt, found := cutLast(rest, '#'); found {
			if r.Count, err = strconv.Atoi(cnt); err != nil || r.Count < 1 {
				return bad("bad count %q", cnt)
			}
			rest = head
		}
		if head, rate, found := cutLast(rest, '@'); found {
			if r.Rate, err = strconv.ParseFloat(rate, 64); err != nil || !(r.Rate > 0 && r.Rate <= 1) { // the negation also rejects NaN
				return bad("bad rate %q (want (0,1])", rate)
			}
			rest = head
		}
		name, delay, hasDelay := strings.Cut(rest, ":")
		if r.Action, err = g.action(strings.TrimSpace(name)); err != nil {
			return bad("%v", err)
		}
		switch a := g.Actions[r.Action]; {
		case hasDelay && !a.TakesDelay:
			return bad("duration only valid for %s", g.delayActions())
		case hasDelay:
			if r.Delay, err = time.ParseDuration(strings.TrimSpace(delay)); err != nil || r.Delay < 0 {
				return bad("bad duration %q", delay)
			}
		default:
			r.Delay = a.Default
		}
		if g.Normalize != nil {
			g.Normalize(r)
		}
		s.rules = append(s.rules, r)
	}
	return s, nil
}

// delayActions names the actions that take a delay, slash-separated.
func (g *Grammar) delayActions() string {
	var names []string
	for _, a := range g.Actions {
		if a.TakesDelay {
			names = append(names, a.Name)
		}
	}
	return strings.Join(names, "/")
}
