package autom

import (
	"context"
	"errors"
	"testing"
	"time"

	"accltl/internal/accltl"
)

// frozenEmptiness is one grid cell's answer from the serial product search
// this package ran before the sharded search became its only engine.
type frozenEmptiness struct {
	empty, truncated, respCapped bool
	// paths is PathsExplored, pinned on empty cells only: a non-empty
	// search stops at its first witness, and the serial DFS and the shard
	// order reach different first witnesses.
	paths int
}

// TestIsEmptyParallelMatchesSerial pins the sharded product search, across
// formulas with both verdicts and across the W grid, to the serial engine's
// frozen answers. At W=1 (one walker, deterministic shard order) every cell
// must match field for field: Empty, Truncated, ResponsesCapped, and
// PathsExplored on empty cells. W ∈ {2,4,8} must match Empty and the
// honesty flags unless a path cap cut the search (then the verdict may
// only diverge under Truncated), and every witness must pass the run
// semantics.
func TestIsEmptyParallelMatchesSerial(t *testing.T) {
	s := twoRelSchema(t)
	formulas := []accltl.Formula{
		accltl.F(accltl.Atom{Sentence: postNE("R0")}),
		accltl.Conj(
			accltl.F(accltl.Atom{Sentence: postNE("R0")}),
			accltl.G(accltl.Not{F: accltl.Atom{Sentence: postNE("R0")}}),
		),
		accltl.Until{
			L: accltl.Not{F: accltl.Atom{Sentence: preNE("R1")}},
			R: accltl.Atom{Sentence: postNE("R0")},
		},
	}
	// MaxDepth 4 keeps the unsatisfiable instances' exhaustive searches
	// small while still spanning several levels of sharded fan-out (the
	// automaton-derived default bound blows the space up).
	grids := []EmptinessOptions{
		{MaxDepth: 4},
		{MaxDepth: 4, Grounded: true},
		{MaxDepth: 4, IdempotentOnly: true},
		{MaxDepth: 4, AllExact: true},
		{MaxDepth: 4, MaxPaths: 20},
		{MaxDepth: 4, MaxPaths: 3},
	}
	// frozen[formula][grid] is the serial engine's answer.
	frozen := [][]frozenEmptiness{
		{{false, false, false, 0}, {false, false, false, 0}, {false, false, false, 0}, {false, false, false, 0}, {false, false, false, 0}, {true, true, false, 3}},
		{{true, false, false, 5}, {true, false, false, 3}, {true, false, false, 31}, {true, false, false, 5}, {true, false, false, 5}, {true, true, false, 3}},
		{{false, false, false, 0}, {false, false, false, 0}, {false, false, false, 0}, {false, false, false, 0}, {false, false, false, 0}, {true, true, false, 3}},
	}
	for fi, f := range formulas {
		a, err := CompileAccLTLPlus(s, f)
		if err != nil {
			t.Fatalf("formula %d: %v", fi, err)
		}
		for gi, base := range grids {
			want := frozen[fi][gi]
			for _, w := range []int{1, 2, 4, 8} {
				popts := base
				popts.Parallelism = w
				res, err := a.IsEmpty(popts)
				if err != nil {
					t.Fatalf("formula %d grid %d w=%d: %v", fi, gi, w, err)
				}
				if !res.Empty {
					ok, err := a.Accepts(res.Witness)
					if err != nil || !ok {
						t.Errorf("formula %d grid %d w=%d: witness rejected: ok=%v err=%v", fi, gi, w, ok, err)
					}
				}
				if w == 1 {
					got := frozenEmptiness{res.Empty, res.Truncated, res.ResponsesCapped, 0}
					if res.Empty {
						got.paths = res.PathsExplored
					}
					if got != want {
						t.Errorf("formula %d grid %d: W=1 answer %+v, serial engine answered %+v", fi, gi, got, want)
					}
					continue
				}
				if res.Empty != want.empty {
					if !res.Truncated && !want.truncated {
						t.Errorf("formula %d grid %d w=%d: Empty=%v, frozen %v", fi, gi, w, res.Empty, want.empty)
					}
					continue
				}
				if res.Empty && (res.Truncated != want.truncated || res.ResponsesCapped != want.respCapped) {
					t.Errorf("formula %d grid %d w=%d: honesty flags diverge: frozen trunc=%v caps=%v, parallel trunc=%v caps=%v",
						fi, gi, w, want.truncated, want.respCapped, res.Truncated, res.ResponsesCapped)
				}
			}
		}
	}
}

// TestIsEmptyParallelContextCancellation: a tight deadline surfaces as the
// context's error from all walkers, promptly.
func TestIsEmptyParallelContextCancellation(t *testing.T) {
	s := twoRelSchema(t)
	f := accltl.Conj(
		accltl.F(accltl.Atom{Sentence: postNE("R0")}),
		accltl.G(accltl.Not{F: accltl.Atom{Sentence: postNE("R0")}}),
	)
	a, err := CompileAccLTLPlus(s, f)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = a.IsEmpty(EmptinessOptions{Context: ctx, MaxDepth: 9, Parallelism: 4})
	if err == nil {
		t.Skip("search completed inside the budget")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("cancellation took %s", elapsed)
	}
}
