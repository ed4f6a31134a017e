package lts

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"accltl/internal/access"
	"accltl/internal/instance"
	"accltl/internal/schema"
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

// widePlanFixture is a root fan-out large enough to measure: 4 binary
// string relations with an input-0 and an input-1 method each, and 16
// tuples over 32 distinct values, so every method has 32 bindings and the
// plan has 288 root shards (256 empty responses plus one singleton per
// tuple and side).
func widePlanFixture(t testing.TB) (*schema.Schema, Options) {
	t.Helper()
	s := schema.New()
	var rels []*schema.Relation
	for r := 0; r < 4; r++ {
		rel := schema.MustRelation(fmt.Sprintf("W%d", r), schema.TypeString, schema.TypeString)
		rels = append(rels, rel)
		for _, err := range []error{
			s.AddRelation(rel),
			s.AddMethod(schema.MustAccessMethod(fmt.Sprintf("w%dL", r), rel, 0)),
			s.AddMethod(schema.MustAccessMethod(fmt.Sprintf("w%dR", r), rel, 1)),
		} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	u := instance.NewInstance(s)
	for r, rel := range rels {
		for j := 0; j < 4; j++ {
			u.MustAdd(rel.Name(), instance.Str(fmt.Sprintf("a%d.%d", r, j)), instance.Str(fmt.Sprintf("b%d.%d", r, j)))
		}
	}
	return s, Options{Universe: u, MaxDepth: 2}
}

// escapePlanFixture exercises every corner of the shard keys: a string
// payload holding the 0x1f tuple-key separator, ints whose keys sort
// differently from their values (9, 10, -3), a two-input and a zero-input
// method, extra binding values outside the universe, a response cap of one,
// and an exact method whose two-tuple responses list their keys out of
// fingerprint order.
func escapePlanFixture(t testing.TB) (*schema.Schema, Options) {
	t.Helper()
	e := schema.MustRelation("E", schema.TypeString, schema.TypeInt)
	z := schema.MustRelation("Z", schema.TypeInt)
	s := schema.New()
	for _, err := range []error{
		s.AddRelation(e),
		s.AddRelation(z),
		s.AddMethod(schema.MustAccessMethod("eByName", e, 0)),
		s.AddMethod(schema.MustAccessMethod("eByNum", e, 1)),
		s.AddMethod(schema.MustAccessMethod("eBoth", e, 0, 1)),
		s.AddMethod(schema.MustAccessMethod("zScan", z)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	u := instance.NewInstance(s)
	u.MustAdd("E", instance.Str("a\x1fb"), instance.Int(9))
	u.MustAdd("E", instance.Str("a\x1fb"), instance.Int(10))
	u.MustAdd("E", instance.Str("a"), instance.Int(-3))
	u.MustAdd("E", instance.Str("b\x1f"), instance.Int(10))
	u.MustAdd("Z", instance.Int(9))
	u.MustAdd("Z", instance.Int(-3))
	return s, Options{Universe: u, MaxDepth: 2, MaxResponseChoices: 1,
		ExactMethods:       map[string]bool{"eByName": true},
		ExtraBindingValues: []instance.Value{instance.Str("\x1f"), instance.Int(10), instance.Int(11), instance.Str("a\x1e")}}
}

// partitionDigest renders a plan's descriptors and root truncation flag
// into a SHA-256, so a frozen partition fits in one literal.
func partitionDigest(ids []ShardID, capped bool) string {
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%d\x00%q\x00%t\n", id.Index, id.Key, id.WholeAccess)
	}
	fmt.Fprintf(h, "capped=%t\n", capped)
	return hex.EncodeToString(h.Sum(nil))
}

// TestShardedPlanFrozenPartition pins the canonical partition — every
// shard's Index, Key and WholeAccess, and the root ResponsesCapped — to
// literals captured before the plan build was rewritten over binding
// arenas. They are a wire contract: a fabric worker re-derives the plan and
// answers 409 when its shard disagrees with the coordinator's, so two
// builds of this package must never order or key shards differently. The
// determinism tests compare two runs of the same code and cannot catch a
// consistent reorder; this test can.
func TestShardedPlanFrozenPartition(t *testing.T) {
	type fixture struct {
		name string
		sch  *schema.Schema
		opts Options
	}
	s := tinySchema(t)
	var fixtures []fixture
	for _, c := range planCases(t) {
		fixtures = append(fixtures, fixture{c.name, s, c.opts})
	}
	ws, wo := widePlanFixture(t)
	es, eo := escapePlanFixture(t)
	fixtures = append(fixtures, fixture{"wide", ws, wo}, fixture{"escape", es, eo})
	want := map[string]struct {
		shards int
		digest string
	}{
		"plain/depth=2":          {6, "a0410f5b2eaefab4f97280aa3482122287c5166e4f2bede5831b8d48c1316564"},
		"plain/depth=3":          {6, "a0410f5b2eaefab4f97280aa3482122287c5166e4f2bede5831b8d48c1316564"},
		"grounded":               {4, "ef142928598501b5484092c9001bb0c975dc1cce949202ec527bcbacba858295"},
		"grounded/no-seed":       {0, "2759c36b2b1d75032591c1a31f3182e56dce80413eef714a08acf491b03c3da0"},
		"idempotent":             {6, "a0410f5b2eaefab4f97280aa3482122287c5166e4f2bede5831b8d48c1316564"},
		"idempotent/grounded":    {4, "ef142928598501b5484092c9001bb0c975dc1cce949202ec527bcbacba858295"},
		"all-exact":              {4, "befb95a474d1f2e2e307bbb8da1d9f5b0b1a29f48d6461c8bef9f3536712c3ec"},
		"exact-subset":           {5, "48cb0c1b259c97e69b8fcf19c6f1dcb8cec94f154d07f4cc901165628074bf27"},
		"resp-capped":            {12, "8f3bf39791fd08b20fa12ab97928921fb0af8728a51fe343059c1fabfcf11d2d"},
		"resp-choices=1":         {10, "33dc0e90a7e5c6851df1a863a4daf20c5172502968857cc487438c17756373f6"},
		"paths-capped":           {6, "a0410f5b2eaefab4f97280aa3482122287c5166e4f2bede5831b8d48c1316564"},
		"initial":                {6, "a0410f5b2eaefab4f97280aa3482122287c5166e4f2bede5831b8d48c1316564"},
		"extra-bindings":         {8, "6ac3ce1faaa2c7f80af0fd7ab539e959e94f5db4a477a4f8d09cbb6b9ce6737b"},
		"grounded/extra-ignored": {4, "ef142928598501b5484092c9001bb0c975dc1cce949202ec527bcbacba858295"},
		"everything":             {9, "b575da2d4521fc883e35cdb14dc067e83b7f8e137136077abe501ad3cfa3e0e5"},
		"whole-access":           {21, "110388cae87f18e9ecd8786f26b24154e195b6413d68c19a924cb98008ea884e"},
		"wide":                   {288, "6eec15338b97636a651efaf68cdd297b61252599e470653311e39cbf7cf44390"},
		"escape":                 {38, "871f537bc41906d870d0701a93fb2e874bf09dd25ccbc71b90b9b5f560f98840"},
	}
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			ids, capped, err := Shards(f.sch, f.opts)
			if err != nil {
				t.Fatal(err)
			}
			got := partitionDigest(ids, capped)
			w, ok := want[f.name]
			if !ok {
				t.Fatalf("no frozen partition for fixture %q", f.name)
			}
			if len(ids) != w.shards || got != w.digest {
				t.Errorf("partition changed: %d shards, digest %s; frozen %d shards, digest %s", len(ids), got, w.shards, w.digest)
			}
		})
	}
}

// expiresOnSecondPoll is a context whose Err reports an expired deadline
// from its second call on: the entry check passes, the first poll inside
// the enumeration fails.
type expiresOnSecondPoll struct {
	context.Context
	calls int
}

func (c *expiresOnSecondPoll) Err() error {
	c.calls++
	if c.calls >= 2 {
		return context.DeadlineExceeded
	}
	return nil
}

// TestPlanBuildHonoursBudgetInsideBindingProduct: the context is polled
// inside a binding product, not only between bindings. One 3-input method
// over a 30-value string pool has 27,000 bindings; polled only between
// them, a budget that expires on the first poll still paid for the whole
// product (several allocations per binding) before failing. Both Plan.Build
// and Successors must stop within the first 64 bindings.
func TestPlanBuildHonoursBudgetInsideBindingProduct(t *testing.T) {
	r := schema.MustRelation("T", schema.TypeString, schema.TypeString, schema.TypeString)
	s := schema.New()
	if err := s.AddRelation(r); err != nil {
		t.Fatal(err)
	}
	if err := s.AddMethod(schema.MustAccessMethod("tAll", r, 0, 1, 2)); err != nil {
		t.Fatal(err)
	}
	u := instance.NewInstance(s)
	for i := 0; i < 10; i++ {
		u.MustAdd("T", instance.Str(fmt.Sprintf("x%d", i)), instance.Str(fmt.Sprintf("y%d", i)), instance.Str(fmt.Sprintf("z%d", i)))
	}
	for name, run := range map[string]func(ctx context.Context) error{
		"Plan.Build": func(ctx context.Context) error {
			var p Plan
			return p.Build(s, Options{Universe: u, MaxDepth: 1, Context: ctx})
		},
		"Successors": func(ctx context.Context) error {
			_, _, err := Successors(s, Options{Universe: u, Context: ctx}, instance.NewInstance(s))
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			var err error
			allocs := testing.AllocsPerRun(1, func() {
				err = run(&expiresOnSecondPoll{Context: context.Background()})
			})
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("err = %v, want context.DeadlineExceeded", err)
			}
			t.Logf("%.0f allocations before the expired budget stopped the build", allocs)
			if allocs > 1000 {
				t.Errorf("%.0f allocations before the expired budget stopped the build: the 27,000-binding product ran to completion", allocs)
			}
		})
	}
}
