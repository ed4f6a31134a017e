package accltl

import (
	"context"
	"errors"
	"testing"
	"time"
)

// frozenSolve is one grid cell's answer from the serial bounded search this
// package ran before the sharded search became its only engine, recorded
// as a literal so the single-walker search stays pinned to it.
type frozenSolve struct {
	sat, truncated, respCapped bool
	// paths is PathsExplored, pinned on unsatisfiable cells only: a
	// satisfiable search stops at its first witness, and the serial DFS
	// and the shard order reach different first witnesses.
	paths int
}

// serialGridAnswers holds the serial engine's answers over the grid of
// TestSolveParallelMatchesSerialAcrossGrid, keyed "formula/options".
var serialGridAnswers = map[string]frozenSolve{
	"bind-then/plain":               {true, false, false, 0},
	"bind-then/grounded":            {false, false, false, 3},
	"bind-then/idempotent":          {true, false, false, 0},
	"bind-then/all-exact":           {true, false, false, 0},
	"bind-then/exact-subset":        {true, false, false, 0},
	"bind-then/resp-choices=1":      {true, false, false, 0},
	"bind-then/paths-capped":        {true, false, false, 0},
	"bind-then/grounded+idempotent": {false, false, false, 3},
	"bind-then/no-pruning":          {true, false, false, 0},
	"bind-then/exact+capped":        {true, false, false, 0},
	"bind-then/tight-cap":           {true, false, false, 0},
	"nested/plain":                  {true, false, false, 0},
	"nested/grounded":               {false, false, false, 11},
	"nested/idempotent":             {true, false, false, 0},
	"nested/all-exact":              {true, false, false, 0},
	"nested/exact-subset":           {true, false, false, 0},
	"nested/resp-choices=1":         {true, false, false, 0},
	"nested/paths-capped":           {true, false, false, 0},
	"nested/grounded+idempotent":    {false, false, false, 11},
	"nested/no-pruning":             {true, false, false, 0},
	"nested/exact+capped":           {true, false, false, 0},
	"nested/tight-cap":              {false, true, false, 5},
	"reach-R1/plain":                {true, false, false, 0},
	"reach-R1/grounded":             {false, false, false, 3},
	"reach-R1/idempotent":           {true, false, false, 0},
	"reach-R1/all-exact":            {true, false, false, 0},
	"reach-R1/exact-subset":         {true, false, false, 0},
	"reach-R1/resp-choices=1":       {true, false, false, 0},
	"reach-R1/paths-capped":         {true, false, false, 0},
	"reach-R1/grounded+idempotent":  {false, false, false, 4},
	"reach-R1/no-pruning":           {true, false, false, 0},
	"reach-R1/exact+capped":         {true, false, false, 0},
	"reach-R1/tight-cap":            {true, false, false, 0},
	"unsat/plain":                   {false, false, false, 9},
	"unsat/grounded":                {false, false, false, 5},
	"unsat/idempotent":              {false, false, false, 47},
	"unsat/all-exact":               {false, false, false, 7},
	"unsat/exact-subset":            {false, false, false, 7},
	"unsat/resp-choices=1":          {false, false, false, 9},
	"unsat/paths-capped":            {false, false, false, 9},
	"unsat/grounded+idempotent":     {false, false, false, 5},
	"unsat/no-pruning":              {false, false, false, 85},
	"unsat/exact+capped":            {false, false, false, 7},
	"unsat/tight-cap":               {false, true, false, 5},
}

// TestSolveParallelMatchesSerialAcrossGrid is the solver-level golden test
// of the sharded search over a formula × option grid. At W=1 (one walker,
// deterministic shard order) every cell must reproduce the serial engine's
// frozen answer field for field: verdict, Truncated, ResponsesCapped, and
// PathsExplored on unsatisfiable cells. Every W ∈ {2,4,8} must reproduce
// the frozen verdict whenever the search ran to exhaustion; path-capped
// searches visit a schedule-dependent subset of the space, so — exactly as
// with the pruning ablation — verdicts there may only diverge when a
// Truncated flag says so. Every witness must pass the direct semantics.
func TestSolveParallelMatchesSerialAcrossGrid(t *testing.T) {
	s := chainSchema(t)
	formulas := map[string]Formula{
		"reach-R1":  F(postNonEmpty("R1")),
		"nested":    F(Conj(postNonEmpty("R0"), F(postNonEmpty("R1")))),
		"unsat":     Conj(F(postNonEmpty("R0")), G(Not{F: postNonEmpty("R0")})),
		"bind-then": Conj(bind0("scanR0"), Next{F: bind0("chkR1")}),
	}
	grid := []struct {
		name string
		opts SolveOptions
	}{
		{"plain", SolveOptions{Schema: s, MaxDepth: 3}},
		{"grounded", SolveOptions{Schema: s, MaxDepth: 3, Grounded: true}},
		{"idempotent", SolveOptions{Schema: s, MaxDepth: 3, IdempotentOnly: true}},
		{"all-exact", SolveOptions{Schema: s, MaxDepth: 3, AllExact: true}},
		{"exact-subset", SolveOptions{Schema: s, MaxDepth: 3, ExactMethods: map[string]bool{"scanR0": true}}},
		{"resp-choices=1", SolveOptions{Schema: s, MaxDepth: 3, MaxResponseChoices: 1}},
		{"paths-capped", SolveOptions{Schema: s, MaxDepth: 3, MaxPaths: 30}},
		{"grounded+idempotent", SolveOptions{Schema: s, MaxDepth: 3, Grounded: true, IdempotentOnly: true}},
		{"no-pruning", SolveOptions{Schema: s, MaxDepth: 3, DisableLTLPruning: true}},
		{"exact+capped", SolveOptions{Schema: s, MaxDepth: 3, AllExact: true, MaxPaths: 30}},
		{"tight-cap", SolveOptions{Schema: s, MaxDepth: 3, MaxPaths: 5}},
	}
	for fname, f := range formulas {
		for _, g := range grid {
			want, ok := serialGridAnswers[fname+"/"+g.name]
			if !ok {
				t.Fatalf("no frozen answer for %s/%s", fname, g.name)
			}
			for _, w := range []int{1, 2, 4, 8} {
				f, g, w := f, g, w
				t.Run(fname+"/"+g.name+"/w="+string(rune('0'+w)), func(t *testing.T) {
					popts := g.opts
					popts.Parallelism = w
					res, err := SolveZeroAcc(f, popts)
					if err != nil {
						t.Fatal(err)
					}
					if res.Satisfiable {
						// Witnesses may differ from the serial engine's; each
						// must pass the direct semantics (the solver
						// self-checks, assert anyway).
						ts, err := res.Witness.Transitions(nil)
						if err != nil {
							t.Fatal(err)
						}
						ok, err := Satisfied(f, ts, ZeroAcc)
						if err != nil {
							t.Fatal(err)
						}
						if !ok {
							t.Errorf("witness rejected by direct semantics: %s", res.Witness)
						}
					}
					if w == 1 {
						got := frozenSolve{res.Satisfiable, res.Truncated, res.ResponsesCapped, 0}
						if !res.Satisfiable {
							got.paths = res.PathsExplored
						}
						if got != want {
							t.Errorf("W=1 answer %+v, serial engine answered %+v", got, want)
						}
						return
					}
					if res.Satisfiable != want.sat {
						if !res.Truncated && !want.truncated {
							t.Fatalf("verdicts diverge without truncation: frozen=%+v parallel=%+v", want, res)
						}
						return
					}
					// Unsat without a path cap: the honesty flags are
					// properties of the exhaustive space and must agree.
					if !res.Satisfiable && g.opts.MaxPaths == 0 {
						if res.Truncated != want.truncated || res.ResponsesCapped != want.respCapped {
							t.Errorf("honesty flags diverge: frozen trunc=%v caps=%v, parallel trunc=%v caps=%v",
								want.truncated, want.respCapped, res.Truncated, res.ResponsesCapped)
						}
						if res.PathsExplored != want.paths && !g.opts.IdempotentOnly && g.name != "no-pruning" {
							// Shared-memo timing can change how much the
							// walkers expand, but never the verdict; log for
							// visibility, don't fail.
							t.Logf("paths explored: frozen=%d parallel=%d", want.paths, res.PathsExplored)
						}
					}
				})
			}
		}
	}
}

// TestSolveParallelOtherEntryPoints smoke-tests that every bounded entry
// point honours Parallelism (they all share boundedSearch).
func TestSolveParallelOtherEntryPoints(t *testing.T) {
	s := chainSchema(t)
	f := F(Conj(postNonEmpty("R0"), F(postNonEmpty("R1"))))
	for name, run := range map[string]func() (SolveResult, error){
		"bounded": func() (SolveResult, error) {
			return SolveBounded(f, SolveOptions{Schema: s, MaxDepth: 3, Parallelism: 4})
		},
		"plus-direct": func() (SolveResult, error) {
			return SolvePlusDirect(f, SolveOptions{Schema: s, MaxDepth: 3, Parallelism: 4})
		},
		"x-fragment": func() (SolveResult, error) {
			return SolveX(Next{F: bind0("scanR0")}, SolveOptions{Schema: s, Parallelism: 4})
		},
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Satisfiable {
			t.Errorf("%s: unexpectedly unsatisfiable: %+v", name, res)
		}
	}
}

// TestSolveParallelContextCancellation: an expiring budget stops all
// walkers promptly with the context's error, never a wrong verdict.
func TestSolveParallelContextCancellation(t *testing.T) {
	s := chainSchema(t)
	// Unsatisfiable and deep: the search would exhaust a large space.
	f := Conj(F(postNonEmpty("R0")), G(Not{F: postNonEmpty("R0")}))
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := SolveZeroAcc(f, SolveOptions{Schema: s, MaxDepth: 8, Parallelism: 4, Context: ctx})
	if err == nil {
		// A machine fast enough to finish depth 8 in a millisecond is
		// acceptable; anything else must surface the deadline.
		t.Skip("search completed inside the budget")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %s", elapsed)
	}
}

// TestSolveParallelWitnessRepeatable: repeated parallel runs of the same
// satisfiable instance must each return a valid witness (stability of the
// *choice* is best-effort via the sorted shard order and deliberately not
// asserted — see SolveOptions.Parallelism).
func TestSolveParallelWitnessRepeatable(t *testing.T) {
	s := chainSchema(t)
	f := F(Conj(postNonEmpty("R0"), F(postNonEmpty("R1"))))
	for i := 0; i < 3; i++ {
		res, err := SolveZeroAcc(f, SolveOptions{Schema: s, MaxDepth: 3, Parallelism: 4})
		if err != nil || !res.Satisfiable {
			t.Fatalf("run %d: res=%+v err=%v", i, res, err)
		}
		ts, err := res.Witness.Transitions(nil)
		if err != nil {
			t.Fatal(err)
		}
		ok, err := Satisfied(f, ts, ZeroAcc)
		if err != nil || !ok {
			t.Fatalf("run %d: witness rejected: ok=%v err=%v", i, ok, err)
		}
	}
}
