package accltl

import (
	"fmt"
	"reflect"
	"testing"

	"accltl/internal/lts"
)

// sameSolve compares two deterministic solve results field for field;
// withPaths=false skips PathsExplored, which a warm dominance memo may
// legitimately shrink.
func sameSolve(t *testing.T, what string, got, want SolveResult, withPaths bool) {
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

// TestShardedPlanThroughMemoMatchesFresh: PlanShards into a memo followed
// by a solve through it — over the whole plan, or resumed shard by shard —
// must give the memo-less results; a second whole-plan solve through the
// now-warm memo must give the same answer with no more paths explored; and
// the memo must enumerate the root partition exactly once for all of it.
func TestShardedPlanThroughMemoMatchesFresh(t *testing.T) {
	s := chainSchema(t)
	formulas := map[string]Formula{
		"reach-R1":  F(postNonEmpty("R1")),
		"nested":    F(Conj(postNonEmpty("R0"), F(postNonEmpty("R1")))),
		"unsat":     Conj(F(postNonEmpty("R0")), G(Not{F: postNonEmpty("R0")})),
		"bind-then": Conj(bind0("scanR0"), Next{F: bind0("chkR1")}),
	}
	grid := map[string]SolveOptions{
		"plain":          {Schema: s, MaxDepth: 3},
		"grounded":       {Schema: s, MaxDepth: 3, Grounded: true},
		"resp-choices=1": {Schema: s, MaxDepth: 3, MaxResponseChoices: 1},
	}
	for fname, f := range formulas {
		for gname, base := range grid {
			t.Run(fname+"/"+gname, func(t *testing.T) {
				plan, capped, err := PlanShards(f, base)
				if err != nil {
					t.Fatal(err)
				}
				all := make([]int, len(plan))
				for i := range all {
					all[i] = i
				}
				withShards := func(o SolveOptions, shards []int) SolveOptions {
					o.Shards = shards
					return o
				}
				// Memo-less references: the whole plan at W=1 (one walker,
				// deterministic) and each shard alone.
				wantWhole := mustSolve(t, f, withShards(base, all))
				wantRounds := make([]SolveResult, len(all))
				for _, i := range all {
					wantRounds[i] = mustSolve(t, f, withShards(base, []int{i}))
				}

				before := lts.PlanBuilds()
				// Plan, then solve the whole plan cold, then again warm, all
				// through one memo.
				opts := base
				opts.Memo = NewSolverMemo()
				mplan, mcapped, err := PlanShards(f, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(mplan, plan) || mcapped != capped {
					t.Fatalf("plan through the memo differs from a fresh plan")
				}
				cold := mustSolve(t, f, withShards(opts, all))
				sameSolve(t, "whole plan", cold, wantWhole, true)
				warm := mustSolve(t, f, opts)
				sameSolve(t, "warm whole plan", warm, cold, false)
				if warm.PathsExplored > cold.PathsExplored {
					t.Errorf("warm whole plan explored %d paths, cold %d", warm.PathsExplored, cold.PathsExplored)
				}

				// A resumed chunked solve on a second memo: planned, then one
				// shard per round until a witness settles the check.
				opts.Memo = NewSolverMemo()
				if _, _, err := PlanShards(f, opts); err != nil {
					t.Fatal(err)
				}
				for _, i := range all {
					got := mustSolve(t, f, withShards(opts, []int{i}))
					sameSolve(t, fmt.Sprintf("round %d", i), got, wantRounds[i], false)
					if got.Satisfiable {
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

func mustSolve(t *testing.T, f Formula, opts SolveOptions) SolveResult {
	t.Helper()
	res, err := SolveZeroAcc(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}
