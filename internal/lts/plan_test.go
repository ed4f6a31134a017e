package lts

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"accltl/internal/access"
	"accltl/internal/instance"
)

// planCases is the option grid of the plan-reuse tests: the golden
// equivalence grid plus a raised response cap that turns one access into a
// lazy whole-access shard (2^9 masks, past maxShardMasksPerAccess).
func planCases(t *testing.T) []equivCase {
	t.Helper()
	s := tinySchema(t)
	wide := instance.NewInstance(s)
	wide.MustAdd("R", instance.Int(1))
	for x := 2; x <= 10; x++ {
		wide.MustAdd("S", instance.Int(1), instance.Int(int64(x)))
	}
	return append(equivalenceGrid(t, s),
		equivCase{"whole-access", Options{Universe: wide, MaxDepth: 1, MaxResponseChoices: 9}})
}

// exploreCounting runs a sharded exploration whose visitors expand
// everything, so the Report alone describes the walk.
func exploreCounting(t *testing.T, o Options, plan *Plan) Report {
	t.Helper()
	expand := func(*access.Path, *instance.Instance, *instance.Instance) (bool, error) { return true, nil }
	rep, err := ExploreSharded(tinySchema(t), o, plan, expand, func(int) Visitor { return expand })
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// planSelections is the shard axis: the whole partition, and every other
// shard of it.
func planSelections(n int) map[string][]int {
	var odd []int
	for i := 1; i < n; i += 2 {
		odd = append(odd, i)
	}
	return map[string][]int{"all": nil, "odd": odd}
}

// TestShardedPlanReuseMatchesSelfEnumerating: walking a supplied plan —
// built up front, or built by the first walk and reused by the second —
// must reproduce the self-enumerating Report field for field on every
// exhaustive cell of the grid, at W ∈ {1, 2}, over the whole partition and
// over a shard subset.
func TestShardedPlanReuseMatchesSelfEnumerating(t *testing.T) {
	s := tinySchema(t)
	for _, c := range planCases(t) {
		if c.opts.MaxPaths > 0 {
			continue // capped walks stop at schedule-dependent shards
		}
		var built Plan
		if err := built.Build(s, c.opts); err != nil {
			t.Fatal(err)
		}
		for sel, shards := range planSelections(len(built.Shards())) {
			for _, w := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/%s/w=%d", c.name, sel, w), func(t *testing.T) {
					o := c.opts
					o.Parallelism = w
					o.Shards = shards
					want := exploreCounting(t, o, nil)
					if got := exploreCounting(t, o, &built); !reflect.DeepEqual(got, want) {
						t.Errorf("prebuilt plan: %+v, self-enumerating %+v", got, want)
					}
					var lazy Plan
					for round := 0; round < 2; round++ {
						if got := exploreCounting(t, o, &lazy); !reflect.DeepEqual(got, want) {
							t.Errorf("lazy plan round %d: %+v, self-enumerating %+v", round, got, want)
						}
					}
					if !reflect.DeepEqual(lazy.Shards(), built.Shards()) || lazy.ResponsesCapped() != built.ResponsesCapped() {
						t.Errorf("lazily built plan differs from Build's")
					}
				})
			}
		}
	}
}

// TestShardedPlanSuppliedEnumeratesNothing: once a plan is built, walking
// it (any W, any subset) and reading its descriptors enumerate nothing,
// while a nil plan enumerates once per exploration.
func TestShardedPlanSuppliedEnumeratesNothing(t *testing.T) {
	s := tinySchema(t)
	for _, c := range planCases(t) {
		t.Run(c.name, func(t *testing.T) {
			var p Plan
			before := PlanBuilds()
			if err := p.Build(s, c.opts); err != nil {
				t.Fatal(err)
			}
			if err := p.Build(s, c.opts); err != nil {
				t.Fatal(err)
			}
			if n := PlanBuilds() - before; n != 1 {
				t.Fatalf("two Builds enumerated %d times, want 1", n)
			}
			if c.name == "whole-access" && !hasWholeAccess(p.Shards()) {
				t.Fatal("no whole-access shard in the plan")
			}
			before = PlanBuilds()
			for _, shards := range planSelections(len(p.Shards())) {
				for _, w := range []int{1, 2} {
					o := c.opts
					o.Parallelism = w
					o.Shards = shards
					exploreCounting(t, o, &p)
				}
			}
			p.Shards()
			if n := PlanBuilds() - before; n != 0 {
				t.Fatalf("walking a built plan enumerated %d times", n)
			}
			if c.opts.MaxDepth > 0 {
				before = PlanBuilds()
				exploreCounting(t, c.opts, nil)
				if n := PlanBuilds() - before; n != 1 {
					t.Fatalf("self-enumerating walk enumerated %d times, want 1", n)
				}
			}
		})
	}
}

func hasWholeAccess(ids []ShardID) bool {
	for _, id := range ids {
		if id.WholeAccess {
			return true
		}
	}
	return false
}

// TestShardedSearchPrepConcurrentUse: explorations and planners racing on
// one unbuilt SearchPrep derive their options and build the plan once
// between them, and every exploration reports the same walk.
func TestShardedSearchPrepConcurrentUse(t *testing.T) {
	s := tinySchema(t)
	base := Options{Universe: tinyUniverse(t, s), MaxDepth: 3}
	want := exploreCounting(t, Options{Universe: base.Universe, MaxDepth: 3, Parallelism: 2}, nil)
	var prep SearchPrep
	derivations := make(chan struct{}, 8)
	before := PlanBuilds()
	var wg sync.WaitGroup
	reports := make([]Report, 8)
	for i := range reports {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			o, _, err := prep.Options(context.Background(), func() (Options, int, error) {
				derivations <- struct{}{}
				return base, base.MaxDepth, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if i%2 == 0 {
				if _, _, err := prep.Shards(s, o); err != nil {
					t.Error(err)
				}
			}
			o.Parallelism = 2
			expand := func(*access.Path, *instance.Instance, *instance.Instance) (bool, error) { return true, nil }
			rep, err := ExploreSharded(s, o, prep.Plan(), expand, func(int) Visitor { return expand })
			if err != nil {
				t.Error(err)
			}
			reports[i] = rep
		}(i)
	}
	wg.Wait()
	if n := PlanBuilds() - before; n != 1 {
		t.Errorf("racing users enumerated %d times, want once", n)
	}
	if len(derivations) == 0 {
		t.Error("options never derived")
	}
	for i, rep := range reports {
		if !reflect.DeepEqual(rep, want) {
			t.Errorf("exploration %d: %+v, want %+v", i, rep, want)
		}
	}
}
