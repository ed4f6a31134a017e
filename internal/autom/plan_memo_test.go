package autom

import (
	"fmt"
	"reflect"
	"testing"

	"accltl/internal/accltl"
	"accltl/internal/lts"
)

// sameEmptiness compares two deterministic emptiness results field for
// field; withPaths=false skips PathsExplored, which a warm dominance memo
// may legitimately shrink.
func sameEmptiness(t *testing.T, what string, got, want EmptinessResult, withPaths bool) {
	t.Helper()
	if !withPaths {
		got.PathsExplored, want.PathsExplored = 0, 0
	}
	gw, ww := "", ""
	if got.Witness != nil {
		gw = got.Witness.String()
	}
	if want.Witness != nil {
		ww = want.Witness.String()
	}
	got.Witness, want.Witness = nil, nil
	if gw != ww || !reflect.DeepEqual(got, want) {
		t.Errorf("%s: through the memo %+v (witness %q), fresh %+v (witness %q)", what, got, gw, want, ww)
	}
}

// TestShardedPlanThroughMemoMatchesFresh is the automaton twin of the
// solver's plan-reuse test: PlanShards into a memo, then a solve over the
// whole plan and a resumed shard-by-shard solve, must give the memo-less
// results; a second whole-plan solve through the warm memo must give the
// same answer with no more paths explored; one enumeration per memo.
func TestShardedPlanThroughMemoMatchesFresh(t *testing.T) {
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
	grid := map[string]EmptinessOptions{
		"plain":     {MaxDepth: 3},
		"grounded":  {MaxDepth: 3, Grounded: true},
		"all-exact": {MaxDepth: 3, AllExact: true},
	}
	for fi, f := range formulas {
		a, err := CompileAccLTLPlus(s, f)
		if err != nil {
			t.Fatalf("formula %d: %v", fi, err)
		}
		for gname, base := range grid {
			t.Run(fmt.Sprintf("%d/%s", fi, gname), func(t *testing.T) {
				plan, capped, err := a.PlanShards(base)
				if err != nil {
					t.Fatal(err)
				}
				all := make([]int, len(plan))
				for i := range all {
					all[i] = i
				}
				withShards := func(o EmptinessOptions, shards []int) EmptinessOptions {
					o.Shards = shards
					return o
				}
				isEmpty := func(o EmptinessOptions) EmptinessResult {
					t.Helper()
					res, err := a.IsEmpty(o)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				wantWhole := isEmpty(withShards(base, all))
				wantRounds := make([]EmptinessResult, len(all))
				for _, i := range all {
					wantRounds[i] = isEmpty(withShards(base, []int{i}))
				}

				before := lts.PlanBuilds()
				opts := base
				opts.Memo = NewEmptinessMemo()
				mplan, mcapped, err := a.PlanShards(opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(mplan, plan) || mcapped != capped {
					t.Fatalf("plan through the memo differs from a fresh plan")
				}
				cold := isEmpty(withShards(opts, all))
				sameEmptiness(t, "whole plan", cold, wantWhole, true)
				warm := isEmpty(opts)
				sameEmptiness(t, "warm whole plan", warm, cold, false)
				if warm.PathsExplored > cold.PathsExplored {
					t.Errorf("warm whole plan explored %d paths, cold %d", warm.PathsExplored, cold.PathsExplored)
				}

				opts.Memo = NewEmptinessMemo()
				if _, _, err := a.PlanShards(opts); err != nil {
					t.Fatal(err)
				}
				for _, i := range all {
					got := isEmpty(withShards(opts, []int{i}))
					sameEmptiness(t, fmt.Sprintf("round %d", i), got, wantRounds[i], false)
					if !got.Empty {
						break
					}
				}
				if n := lts.PlanBuilds() - before; n != 2 {
					t.Errorf("two memos enumerated %d times, want once each", n)
				}
			})
		}
	}
}
