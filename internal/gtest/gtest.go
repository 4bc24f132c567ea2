// Package gtest implements the group-testing machinery behind the paper's
// optimized match verification (Section 5.3).
//
// Candidates for matches are "items"; a false match is a "defective" item.
// A test asks "are all items in this group non-defective?" by comparing a
// truncated strong hash of the concatenated candidate bytes on both sides:
// if all members are true matches the test always passes; if any member is
// false the test fails except with probability 2^-vbits (a hash collision —
// the "lying" answer).
//
// Both protocol sides derive identical test plans from shared knowledge
// (the candidate list and previous batch outcomes), so only the hash bits
// and one result bit per test cross the wire.
package gtest

// Class describes how trusted a candidate is a priori; more trusted
// candidates are grouped more aggressively (the paper: "slowly grow the size
// of the groups as our confidence in the candidates grows").
type Class int

const (
	// ClassGlobal marks candidates found via global hashes (compared against
	// every position of the old file — the least trusted kind).
	ClassGlobal Class = iota
	// ClassLocal marks candidates found via local hashes (small neighborhood).
	ClassLocal
	// ClassContinuation marks candidates found via continuation hashes at a
	// single predicted position (the highest harvest rate).
	ClassContinuation
)

// Config tunes the verification strategy.
type Config struct {
	// Batches is the maximum number of verification batches per round.
	// 1 means a single batch with no salvage (failed groups are dropped).
	Batches int
	// GroupSize is the initial group size for ClassGlobal candidates;
	// 1 gives trivial per-candidate verification.
	GroupSize int
	// TrustedGroupSize is the initial group size for ClassContinuation (and
	// ClassLocal) candidates.
	TrustedGroupSize int
	// SplitFactor is how many subgroups a failed group is split into during
	// salvage.
	SplitFactor int
	// RetryAlternates lets a failed singleton candidate be re-tested once
	// (the client switches to its next alternative source offset).
	RetryAlternates int
}

// DefaultConfig mirrors the paper's best practical setting: two batches,
// moderate initial groups, binary salvage splits.
func DefaultConfig() Config {
	return Config{
		Batches:          2,
		GroupSize:        4,
		TrustedGroupSize: 8,
		SplitFactor:      2,
		RetryAlternates:  1,
	}
}

// TrivialConfig verifies every candidate individually in one batch
// (the paper's "trivial verification" strategy in Figure 6.4).
func TrivialConfig() Config {
	return Config{Batches: 1, GroupSize: 1, TrustedGroupSize: 1, SplitFactor: 2}
}

func (c Config) sanitized() Config {
	if c.Batches < 1 {
		c.Batches = 1
	}
	if c.GroupSize < 1 {
		c.GroupSize = 1
	}
	if c.TrustedGroupSize < 1 {
		c.TrustedGroupSize = c.GroupSize
	}
	if c.SplitFactor < 2 {
		c.SplitFactor = 2
	}
	if c.RetryAlternates < 0 {
		c.RetryAlternates = 0
	}
	return c
}

// Group is one test: the candidate indices it covers, in order.
type Group struct {
	Members []int
	// Retry marks a singleton re-test of a previously failed candidate.
	Retry bool
}

// Plan tracks the verification state for one round's candidates on either
// protocol side. Both sides construct it identically.
type Plan struct {
	cfg       Config
	classes   []Class
	batch     int
	current   []Group
	confirmed []bool
	dropped   []bool
	retried   []int // retries consumed per candidate
}

// NewPlan starts a verification plan for the given candidates.
func NewPlan(classes []Class, cfg Config) *Plan {
	p := &Plan{
		cfg:       cfg.sanitized(),
		classes:   classes,
		confirmed: make([]bool, len(classes)),
		dropped:   make([]bool, len(classes)),
		retried:   make([]int, len(classes)),
	}
	p.current = p.firstBatch()
	return p
}

// firstBatch partitions candidates into initial groups. Candidates of the
// same class are grouped together in index order.
func (p *Plan) firstBatch() []Group {
	var groups []Group
	emit := func(members []int, size int) {
		for len(members) > 0 {
			n := size
			if n > len(members) {
				n = len(members)
			}
			groups = append(groups, Group{Members: members[:n]})
			members = members[n:]
		}
	}
	var global, trusted []int
	for i, cl := range p.classes {
		if cl == ClassGlobal {
			global = append(global, i)
		} else {
			trusted = append(trusted, i)
		}
	}
	emit(trusted, p.cfg.TrustedGroupSize)
	emit(global, p.cfg.GroupSize)
	return groups
}

// Groups returns the tests in the current batch. Empty means the plan is
// complete.
func (p *Plan) Groups() []Group { return p.current }

// Absorb records pass/fail results for the current batch (one bool per
// group, in Groups() order) and computes the next batch. It returns true if
// another batch is needed.
func (p *Plan) Absorb(results []bool) bool {
	if len(results) != len(p.current) {
		panic("gtest: result count mismatch")
	}
	var next []Group
	for gi, g := range p.current {
		if results[gi] {
			for _, m := range g.Members {
				p.confirmed[m] = true
			}
			continue
		}
		// Failed group.
		if p.batch+1 >= p.cfg.Batches {
			for _, m := range g.Members {
				p.dropped[m] = true
			}
			continue
		}
		if len(g.Members) == 1 {
			m := g.Members[0]
			if p.retried[m] < p.cfg.RetryAlternates {
				p.retried[m]++
				next = append(next, Group{Members: []int{m}, Retry: true})
			} else {
				p.dropped[m] = true
			}
			continue
		}
		// Split into SplitFactor subgroups for salvage.
		next = append(next, split(g.Members, p.cfg.SplitFactor)...)
	}
	p.batch++
	p.current = next
	return len(next) > 0
}

// split partitions members into up to k contiguous subgroups.
func split(members []int, k int) []Group {
	if k > len(members) {
		k = len(members)
	}
	out := make([]Group, 0, k)
	per := (len(members) + k - 1) / k
	for len(members) > 0 {
		n := per
		if n > len(members) {
			n = len(members)
		}
		out = append(out, Group{Members: members[:n]})
		members = members[n:]
	}
	return out
}

// Confirmed reports, after the plan completes, which candidates verified.
func (p *Plan) Confirmed() []bool { return p.confirmed }

// Done reports whether all candidates are resolved.
func (p *Plan) Done() bool { return len(p.current) == 0 }
