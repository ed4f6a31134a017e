package accesscheck_test

// Plan-once tests: a check plans its root partition once per process —
// CheckAnytime through its checkpoint, resumed rounds included, and a
// shard-subset Check only inside its solve — and every shard-restricted
// answer names the plan's size. Test names carry "Sharded" so CI's race
// pass picks them up.

import (
	"context"
	"fmt"
	"testing"

	"accltl/accesscheck"
	"accltl/internal/lts"
)

// TestShardedShardsTotalMatchesPlan: under WithShards(0, 1), Check and
// CheckAnytime — on its first and on its resumed chunked round — report
// ShardsTotal equal to the plan size, for a bounded engine and for the
// automaton engine.
func TestShardedShardsTotalMatchesPlan(t *testing.T) {
	for _, eng := range []accesscheck.Engine{accesscheck.EngineBounded, accesscheck.EngineAutomaton} {
		t.Run(eng.String(), func(t *testing.T) {
			base := []accesscheck.Option{accesscheck.WithEngine(eng)}
			sch, f, chk := anytimeFixture(t, parUnsatFormula, base...)
			plan, _, err := chk.ShardPlan(context.Background(), sch, f)
			if err != nil {
				t.Fatal(err)
			}

			sub := append(base, accesscheck.WithShards(0, 1))
			res, err := accesscheck.Check(context.Background(), sch, f, sub...)
			if err != nil {
				t.Fatal(err)
			}
			if res.ShardsTotal != len(plan) || res.ShardsCompleted != 2 {
				t.Errorf("Check: shards %d/%d, want 2/%d", res.ShardsCompleted, res.ShardsTotal, len(plan))
			}

			achk, err := accesscheck.NewChecker(append(sub, accesscheck.WithAnytimeChunk(1))...)
			if err != nil {
				t.Fatal(err)
			}
			var cp *accesscheck.Checkpoint
			for round := 1; round <= 2; round++ {
				res, cp, err = achk.CheckAnytime(context.Background(), sch, f, cp)
				if err != nil {
					t.Fatal(err)
				}
				if res.ShardsTotal != len(plan) {
					t.Errorf("CheckAnytime round %d: ShardsTotal %d, want %d (completed %d, coverage %v)",
						round, res.ShardsTotal, len(plan), res.ShardsCompleted, res.Coverage)
				}
				if cp == nil {
					t.Fatalf("CheckAnytime round %d: no checkpoint", round)
				}
				if cp.PlanSize() != len(plan) {
					t.Errorf("CheckAnytime round %d: checkpoint plan size %d, want %d", round, cp.PlanSize(), len(plan))
				}
			}
			if res.Resumable || res.Coverage != 1 {
				t.Errorf("two one-shard rounds over two shards did not settle: %+v", res)
			}
		})
	}
}

// TestShardedChecksPlanOnce counts root enumerations: a whole CheckAnytime
// driven through one-shard rounds to its answer enumerates once in total,
// a shard-subset Check once (inside its solve), and ShardPlanAnytime
// followed by CheckAnytime on the checkpoint it returns once.
func TestShardedChecksPlanOnce(t *testing.T) {
	for _, eng := range []accesscheck.Engine{accesscheck.EngineBounded, accesscheck.EngineAutomaton} {
		for _, w := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/w%d", eng, w), func(t *testing.T) {
				base := []accesscheck.Option{accesscheck.WithEngine(eng), accesscheck.WithParallelism(w)}
				sch, f, _ := anytimeFixture(t, parUnsatFormula, base...)

				chk, err := accesscheck.NewChecker(append(base, accesscheck.WithAnytimeChunk(1))...)
				if err != nil {
					t.Fatal(err)
				}
				before := lts.PlanBuilds()
				var cp *accesscheck.Checkpoint
				rounds := 0
				for {
					rounds++
					res, next, err := chk.CheckAnytime(context.Background(), sch, f, cp)
					if err != nil {
						t.Fatal(err)
					}
					cp = next
					if !res.Resumable {
						break
					}
				}
				if n := lts.PlanBuilds() - before; n != 1 || rounds < 2 {
					t.Errorf("CheckAnytime over %d rounds enumerated %d times, want once", rounds, n)
				}

				sub, err := accesscheck.NewChecker(append(base, accesscheck.WithShards(0, 1))...)
				if err != nil {
					t.Fatal(err)
				}
				before = lts.PlanBuilds()
				if _, err := sub.Check(context.Background(), sch, f); err != nil {
					t.Fatal(err)
				}
				if n := lts.PlanBuilds() - before; n != 1 {
					t.Errorf("shard-subset Check enumerated %d times, want once", n)
				}

				before = lts.PlanBuilds()
				plan, _, pcp, err := sub.ShardPlanAnytime(context.Background(), sch, f, nil)
				if err != nil {
					t.Fatal(err)
				}
				res, _, err := sub.CheckAnytime(context.Background(), sch, f, pcp)
				if err != nil {
					t.Fatal(err)
				}
				if n := lts.PlanBuilds() - before; n != 1 {
					t.Errorf("ShardPlanAnytime + CheckAnytime enumerated %d times, want once", n)
				}
				if res.ShardsTotal != len(plan) {
					t.Errorf("ShardsTotal %d, want %d", res.ShardsTotal, len(plan))
				}
			})
		}
	}
}

// TestShardedResumeAcrossReparsedChecks: a server resumes a stored
// checkpoint with a freshly parsed schema and formula, so the carried plan
// was built against other (equal) objects. Every round must answer exactly
// as the same rounds do when one parse is reused throughout.
func TestShardedResumeAcrossReparsedChecks(t *testing.T) {
	for name, src := range map[string]string{"sat": parSatFormula, "unsat": parUnsatFormula} {
		for _, eng := range []accesscheck.Engine{accesscheck.EngineBounded, accesscheck.EngineAutomaton} {
			t.Run(fmt.Sprintf("%s/%s", name, eng), func(t *testing.T) {
				opts := []accesscheck.Option{accesscheck.WithEngine(eng), accesscheck.WithAnytimeChunk(1)}
				sch, f, _ := anytimeFixture(t, src, opts...)
				chk, err := accesscheck.NewChecker(opts...)
				if err != nil {
					t.Fatal(err)
				}
				parse := func() (*accesscheck.Schema, accesscheck.Formula) {
					s, err := accesscheck.ParseSchema(parRelations, parMethods)
					if err != nil {
						t.Fatal(err)
					}
					g, err := accesscheck.ParseFormula(src)
					if err != nil {
						t.Fatal(err)
					}
					return s, g
				}
				summary := func(res *accesscheck.Result) string {
					w := ""
					if res.Witness != nil {
						w = res.Witness.String()
					}
					return fmt.Sprintf("sat=%v cov=%v paths=%d total=%d resumable=%v witness=%q",
						res.Satisfiable, res.Coverage, res.PathsExplored, res.ShardsTotal, res.Resumable, w)
				}
				var same, reparsed *accesscheck.Checkpoint
				for round := 1; ; round++ {
					want, next, err := chk.CheckAnytime(context.Background(), sch, f, same)
					if err != nil {
						t.Fatal(err)
					}
					same = next
					s, g := parse()
					got, next, err := chk.CheckAnytime(context.Background(), s, g, reparsed)
					if err != nil {
						t.Fatal(err)
					}
					reparsed = next
					if summary(got) != summary(want) {
						t.Fatalf("round %d: reparsed %s, same parse %s", round, summary(got), summary(want))
					}
					if !want.Resumable {
						break
					}
				}
			})
		}
	}
}
