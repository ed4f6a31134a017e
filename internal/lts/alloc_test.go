package lts

import (
	"testing"

	"accltl/internal/access"
	"accltl/internal/instance"
	"accltl/internal/schema"
)

// TestExploreAllocsPerNode is the allocation-regression guard for the
// mutate-and-undo core: the clone-per-child engine spent ~25 allocations
// per visited prefix on this workload; the rewrite brought it to ~1.3. The
// bound has headroom for map growth and runtime noise but fails loudly if
// per-child cloning (path, configuration, response materialization, binding
// re-enumeration, per-node key builds) ever creeps back into the hot loop.
func TestExploreAllocsPerNode(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	opts := Options{Universe: u, MaxDepth: 3}
	// Visit count of the workload, for the per-node normalization.
	var nodes int
	if _, err := Explore(s, opts, func(_ *access.Path, _, _ *instance.Instance) (bool, error) {
		nodes++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if nodes < 100 {
		t.Fatalf("workload too small to be meaningful: %d nodes", nodes)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Explore(s, opts, func(_ *access.Path, _, _ *instance.Instance) (bool, error) {
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	perNode := avg / float64(nodes)
	t.Logf("%d nodes, %.0f allocs/run, %.2f allocs/node", nodes, avg, perNode)
	const maxPerNode = 8
	if perNode > maxPerNode {
		t.Errorf("exploration allocates %.2f per visited node (budget %d): per-child cloning is back in the hot loop", perNode, maxPerNode)
	}
}

// TestExploreAllocsPerNodeIdempotent covers the idempotent-mode hot loop,
// whose response fingerprinting is inherently a little more expensive.
func TestExploreAllocsPerNodeIdempotent(t *testing.T) {
	s := tinySchema(t)
	u := tinyUniverse(t, s)
	opts := Options{Universe: u, MaxDepth: 3, IdempotentOnly: true}
	var nodes int
	if _, err := Explore(s, opts, func(_ *access.Path, _, _ *instance.Instance) (bool, error) {
		nodes++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Explore(s, opts, func(_ *access.Path, _, _ *instance.Instance) (bool, error) {
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
	})
	perNode := avg / float64(nodes)
	t.Logf("%d nodes, %.0f allocs/run, %.2f allocs/node", nodes, avg, perNode)
	const maxPerNode = 12
	if perNode > maxPerNode {
		t.Errorf("idempotent exploration allocates %.2f per visited node (budget %d)", perNode, maxPerNode)
	}
}

// TestPlanBuildAllocs is the allocation guard for the root enumeration.
// Building the wide fixture's 288-shard plan once allocated about 8.75
// objects per shard (an access clone, a key string per value and per
// binding, two response copies and a sort key per shard, plus slice
// growth); binding and shard arenas brought it under 3. A budget of 4 per
// shard fails loudly if per-binding or per-shard allocation comes back.
func TestPlanBuildAllocs(t *testing.T) {
	s, o := widePlanFixture(t)
	var p Plan
	if err := p.Build(s, o); err != nil {
		t.Fatal(err)
	}
	shards := len(p.Shards())
	if shards != 288 {
		t.Fatalf("wide fixture plans %d shards, want 288", shards)
	}
	avg := testing.AllocsPerRun(10, func() {
		var p Plan
		if err := p.Build(s, o); err != nil {
			t.Fatal(err)
		}
	})
	perShard := avg / float64(shards)
	t.Logf("%d shards, %.0f allocs/build, %.2f allocs/shard", shards, avg, perShard)
	const maxPerShard = 4
	if perShard > maxPerShard {
		t.Errorf("plan build allocates %.2f per root shard (budget %d)", perShard, maxPerShard)
	}
}

// TestPlanWalkersReuseRootBindings: a walker over a built plan starts with
// the plan's root-pool bindings, so its version-0 binding lookups return
// the plan's own arenas and build no binding pool. A non-grounded pool
// never leaves version 0, so such a walker enumerates no binding at any
// depth; a grounded one enumerates only pools its responses grew.
func TestPlanWalkersReuseRootBindings(t *testing.T) {
	ws, wo := widePlanFixture(t)
	s := tinySchema(t)
	seed := instance.NewInstance(s)
	seed.MustAdd("R", instance.Int(1))
	for name, f := range map[string]struct {
		sch  *schema.Schema
		opts Options
	}{
		"wide":     {ws, wo},
		"grounded": {s, Options{Universe: tinyUniverse(t, s), MaxDepth: 3, GroundedOnly: true, Initial: seed}},
	} {
		t.Run(name, func(t *testing.T) {
			var p Plan
			if err := p.Build(f.sch, f.opts); err != nil {
				t.Fatal(err)
			}
			o := f.opts.withDefaults()
			e := newWalker(f.sch, o, &p, initialOf(f.sch, o))
			for mi, m := range f.sch.Methods() {
				bas, err := e.bindings(m)
				if err != nil {
					t.Fatal(err)
				}
				if len(bas) == 0 || &bas[0] != &p.root[mi][0] {
					t.Errorf("method %s: walker bindings are not the plan's root-pool bindings", m.Name())
				}
			}
			if len(e.pools) != 0 {
				t.Errorf("walker built %d binding pools over a built plan, want 0", len(e.pools))
			}
		})
	}
}
