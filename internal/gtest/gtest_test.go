package gtest

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func classes(n int, c Class) []Class {
	out := make([]Class, n)
	for i := range out {
		out[i] = c
	}
	return out
}

// resolve drives a plan against a ground-truth defective set, modeling a
// verifier that never lies (collision probability zero). Returns the plan.
func resolve(p *Plan, defective map[int]bool) {
	for !p.Done() {
		groups := p.Groups()
		results := make([]bool, len(groups))
		for gi, g := range groups {
			ok := true
			for _, m := range g.Members {
				if defective[m] {
					ok = false
					break
				}
			}
			results[gi] = ok
		}
		p.Absorb(results)
	}
}

func TestTrivialAllPass(t *testing.T) {
	p := NewPlan(classes(10, ClassGlobal), TrivialConfig())
	if len(p.Groups()) != 10 {
		t.Fatalf("trivial plan has %d groups", len(p.Groups()))
	}
	resolve(p, nil)
	for i := 0; i < 10; i++ {
		if !p.Confirmed()[i] {
			t.Fatalf("candidate %d not confirmed", i)
		}
	}
}

func TestTrivialSomeFail(t *testing.T) {
	p := NewPlan(classes(5, ClassGlobal), TrivialConfig())
	resolve(p, map[int]bool{1: true, 3: true})
	want := []bool{true, false, true, false, true}
	for i, w := range want {
		if p.Confirmed()[i] != w {
			t.Fatalf("candidate %d: confirmed=%v want %v", i, p.Confirmed()[i], w)
		}
	}
}

// TestGroupSalvage: with enough batches, good members of a failed group are
// salvaged.
func TestGroupSalvage(t *testing.T) {
	cfg := Config{Batches: 4, GroupSize: 8, TrustedGroupSize: 8, SplitFactor: 2}
	p := NewPlan(classes(8, ClassGlobal), cfg)
	if len(p.Groups()) != 1 {
		t.Fatalf("expected one initial group, got %d", len(p.Groups()))
	}
	resolve(p, map[int]bool{5: true})
	for i := 0; i < 8; i++ {
		want := i != 5
		if p.Confirmed()[i] != want {
			t.Fatalf("candidate %d: confirmed=%v want %v", i, p.Confirmed()[i], want)
		}
	}
}

// TestOneBatchGroupsDropOnFailure: without salvage batches, a failed group
// drops all members.
func TestOneBatchGroupsDropOnFailure(t *testing.T) {
	cfg := Config{Batches: 1, GroupSize: 4, TrustedGroupSize: 4, SplitFactor: 2}
	p := NewPlan(classes(4, ClassGlobal), cfg)
	resolve(p, map[int]bool{0: true})
	for i := 0; i < 4; i++ {
		if p.Confirmed()[i] {
			t.Fatalf("candidate %d confirmed despite failed group", i)
		}
	}
}

// TestClassSeparation: trusted candidates are grouped separately and more
// aggressively than global ones.
func TestClassSeparation(t *testing.T) {
	cls := append(classes(6, ClassGlobal), classes(8, ClassContinuation)...)
	cfg := Config{Batches: 2, GroupSize: 2, TrustedGroupSize: 8, SplitFactor: 2}
	p := NewPlan(cls, cfg)
	groups := p.Groups()
	// 1 trusted group of 8 + 3 global groups of 2.
	if len(groups) != 4 {
		t.Fatalf("got %d groups", len(groups))
	}
	if len(groups[0].Members) != 8 {
		t.Fatalf("trusted group has %d members", len(groups[0].Members))
	}
	// Trusted group must contain exactly the continuation candidates.
	for _, m := range groups[0].Members {
		if cls[m] != ClassContinuation {
			t.Fatalf("member %d in trusted group has class %v", m, cls[m])
		}
	}
}

// TestRetrySingleton: a failed singleton is retried while retries remain.
func TestRetrySingleton(t *testing.T) {
	cfg := Config{Batches: 3, GroupSize: 1, TrustedGroupSize: 1, SplitFactor: 2, RetryAlternates: 1}
	p := NewPlan(classes(1, ClassGlobal), cfg)
	// First test fails.
	if more := p.Absorb([]bool{false}); !more {
		t.Fatal("expected a retry batch")
	}
	g := p.Groups()
	if len(g) != 1 || !g[0].Retry {
		t.Fatalf("retry batch wrong: %+v", g)
	}
	// Retry passes (the client switched to an alternate source offset).
	if more := p.Absorb([]bool{true}); more {
		t.Fatal("plan should be done")
	}
	if !p.Confirmed()[0] {
		t.Fatal("retried candidate not confirmed")
	}
}

func TestRetryExhaustion(t *testing.T) {
	cfg := Config{Batches: 5, GroupSize: 1, TrustedGroupSize: 1, SplitFactor: 2, RetryAlternates: 2}
	p := NewPlan(classes(1, ClassGlobal), cfg)
	rounds := 0
	for !p.Done() {
		p.Absorb(make([]bool, len(p.Groups()))) // all fail
		rounds++
		if rounds > 10 {
			t.Fatal("plan does not terminate")
		}
	}
	if p.Confirmed()[0] {
		t.Fatal("confirmed despite always failing")
	}
	if rounds != 3 { // initial + 2 retries
		t.Fatalf("took %d batches, want 3", rounds)
	}
}

// TestQuickResolution: for arbitrary defective sets and strategies, a
// truthful verifier must confirm exactly the non-defective candidates
// whenever enough batches allow full salvage to singletons.
func TestQuickResolution(t *testing.T) {
	f := func(seed int64, nRaw, gRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw%40) + 1
		g := int(gRaw%8) + 1
		cfg := Config{Batches: 16, GroupSize: g, TrustedGroupSize: g * 2, SplitFactor: 2}
		cls := make([]Class, n)
		defective := map[int]bool{}
		for i := range cls {
			if rng.Intn(2) == 0 {
				cls[i] = ClassContinuation
			}
			if rng.Intn(4) == 0 {
				defective[i] = true
			}
		}
		p := NewPlan(cls, cfg)
		resolve(p, defective)
		for i := 0; i < n; i++ {
			if p.Confirmed()[i] == defective[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchBudgetRespected: the plan never exceeds its batch budget.
func TestBatchBudgetRespected(t *testing.T) {
	for batches := 1; batches <= 4; batches++ {
		cfg := Config{Batches: batches, GroupSize: 8, TrustedGroupSize: 8, SplitFactor: 2}
		p := NewPlan(classes(32, ClassGlobal), cfg)
		used := 0
		for !p.Done() {
			p.Absorb(make([]bool, len(p.Groups()))) // everything fails
			used++
		}
		if used > batches {
			t.Fatalf("budget %d, used %d", batches, used)
		}
	}
}

func TestAbsorbCountMismatchPanics(t *testing.T) {
	p := NewPlan(classes(4, ClassGlobal), TrivialConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on result count mismatch")
		}
	}()
	p.Absorb([]bool{true})
}

func TestDefaultConfigsSane(t *testing.T) {
	for _, cfg := range []Config{DefaultConfig(), TrivialConfig(), {}} {
		s := cfg.sanitized()
		if s.Batches < 1 || s.GroupSize < 1 || s.TrustedGroupSize < 1 || s.SplitFactor < 2 {
			t.Fatalf("sanitized config invalid: %+v", s)
		}
	}
}
