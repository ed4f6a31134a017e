package lts

// Root-shard plans: the canonical partition of a sharded exploration as a
// value. A Plan materializes the root branching once — every (first access,
// first response) pair in the canonical sorted order, the root-level
// ResponsesCapped, and the read-only universe caches every walker shares —
// and ExploreSharded walks a supplied plan instead of enumerating it again.
// A caller that plans (to learn the partition's size, to verify a wire
// shard against it) and then searches, or that resumes a search over
// several rounds, therefore pays for one enumeration per check.
//
// Shards exposes a plan as serializable descriptors (ShardID), and
// Options.Shards executes any subset of it, so a distributed coordinator
// can ship each piece to a remote worker as data and have the worker
// re-derive the identical partition and run exactly the assigned slice.
// Everything identifying a shard is derived deterministically from
// (schema, options, initial, universe): identical inputs enumerate
// identical descriptors on every machine.

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"accltl/internal/instance"
	"accltl/internal/schema"
)

// ShardID identifies one root shard of a sharded exploration: its position
// in the canonical sorted order and its canonical key. The key is the
// access key (method name plus binding) for whole-access shards, or the
// access key joined to the response fingerprint (0x1e-separated) for
// per-response shards — exactly the sort key the enumeration orders by,
// so Index and Key always agree between two enumerations over the same
// inputs. WholeAccess marks a lazy-range shard: one covering every response
// of its access, enumerated lazily by the walker that executes it (see
// maxShardMasksPerAccess).
type ShardID struct {
	Index       int
	Key         string
	WholeAccess bool
}

// Plan is the materialized root partition of one sharded exploration. The
// zero value is an unbuilt plan: Build (or the first ExploreSharded that
// walks it) enumerates the partition, and every later use walks the
// materialized shards without enumerating again. A built plan is read-only
// and safe for concurrent use by any number of explorations.
//
// A plan belongs to one (schema, exploration options) pair: the
// enumeration reads the universe, the initial instance and the
// path-restriction options (grounding, exactness, the response-choice cap,
// extra binding values), and the first build fixes them. Walking it under
// different options is unchecked and wrong. MaxDepth, MaxPaths,
// Parallelism, Shards and Context do not enter the plan.
//
// Besides the shards, a built plan keeps the root-pool (version 0) bound
// accesses of every method, which its shards point into: each walker seeds
// its binding cache with them instead of enumerating the root pool again.
// That holds in grounded mode too, where version 0 is always the initial
// pool and versions are never reused.
type Plan struct {
	mu         sync.Mutex
	built      bool
	shards     []rootShard
	respCapped bool
	// root holds the root-pool bound accesses, one slice per method in
	// schema order.
	root [][]boundAccess
	// Read-only universe caches shared by every walker: relation contents
	// with canonical keys, and the active domain.
	uTuples map[string]*relCache
	uDomain []instance.Value
}

// planBuilds counts root enumerations in this process. The plan-reuse
// tests read it through PlanBuilds to pin "one enumeration per check".
var planBuilds atomic.Int64

// PlanBuilds reports how many root partitions this process has enumerated.
// It is a diagnostic counter: tests use it to check that a plan built once
// is walked, not re-enumerated.
func PlanBuilds() int64 { return planBuilds.Load() }

// Build enumerates the plan's partition for sch under opts unless it is
// already built. A failed build (context expiry, binding fault) leaves the
// plan unbuilt, so a later call can retry.
func (p *Plan) Build(sch *schema.Schema, opts Options) error {
	o := opts.withDefaults()
	if o.Universe == nil {
		return fmt.Errorf("lts: Plan.Build requires a Universe instance")
	}
	if o.Context != nil {
		if err := o.Context.Err(); err != nil {
			return err
		}
	}
	return p.build(sch, o, initialOf(sch, o))
}

// ResponsesCapped reports whether the root subset-response fan-out was
// truncated to MaxResponseChoices during enumeration.
func (p *Plan) ResponsesCapped() bool { return p.respCapped }

// Shards returns the built plan's descriptors in canonical order.
func (p *Plan) Shards() []ShardID {
	ids := make([]ShardID, len(p.shards))
	for i, sh := range p.shards {
		ids[i] = ShardID{Index: i, Key: sh.sortKey, WholeAccess: sh.wholeAccess}
	}
	return ids
}

// Shards enumerates the root shards a sharded exploration of sch under opts
// would partition the search into, in the canonical sorted order (the same
// order ExploreSharded assigns indexes in). The bool result reports whether
// the root subset-response fan-out was truncated to MaxResponseChoices
// during enumeration. Options.Shards and Parallelism are ignored here: the
// enumeration always describes the full partition.
//
// Determinism contract: the descriptors are a pure function of the schema,
// the universe, the initial instance and the path-restriction options, so
// two processes given the same inputs agree on every Index and Key — the
// property the distributed check fabric's wire shards rely on.
func Shards(sch *schema.Schema, opts Options) ([]ShardID, bool, error) {
	var p Plan
	if err := p.Build(sch, opts); err != nil {
		return nil, false, err
	}
	return p.Shards(), p.respCapped, nil
}

// initialOf is the exploration's initial instance (empty when unset).
func initialOf(sch *schema.Schema, o Options) *instance.Instance {
	if o.Initial != nil {
		return o.Initial
	}
	return instance.NewInstance(sch)
}

// build is the single root enumeration: it materializes every (first
// access, first response) pair reachable from init in the canonical order —
// sorted by access key, then response fingerprint — together with the
// root-pool bindings and the universe caches the walkers share. The sort
// makes shard indexes (and so the shard→walker assignment and any
// index-based witness preference) deterministic across runs, independent of
// schema method insertion order. o has defaults applied.
//
// The build allocates per plan, not per shard: a first pass over the
// root bindings counts the shards and response tuples, so the shards, their
// responses and their response keys are cut from three exactly sized
// arenas; every sort key is a slice of one string; and the sort orders
// indexes, then permutes the shards into place once.
func (p *Plan) build(sch *schema.Schema, o Options, init *instance.Instance) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.built {
		return nil
	}
	planBuilds.Add(1)
	uTuples, uDomain := universeCaches(sch, o.Universe)
	e := newExplorer(sch, o)
	// The walkers share these read-only caches; recomputing them per
	// walker would key and sort every universe tuple again.
	e.uTuples = uTuples
	e.uDomain = uDomain
	for _, v := range init.ActiveDomain() {
		e.known[v] = true
	}
	fr := &frame{}
	// respChoices is how many matching tuples a subset fan-out ranges
	// over, and whole whether the access becomes one lazy whole-access
	// shard instead of 2^n materialized ones.
	respChoices := func(n int) (choices int, whole bool) {
		choices = min(n, o.MaxResponseChoices)
		return choices, choices > 8 || 1<<choices > maxShardMasksPerAccess
	}

	// Pass 1: enumerate the root bindings and size the arenas. The context
	// is polled per binding here and inside the binding products, since the
	// whole root fan-out is materialized before any walker starts polling.
	methods := sch.Methods()
	root := make([][]boundAccess, len(methods))
	nShards, nTuples := 0, 0
	for mi, m := range methods {
		bas, err := e.bindings(m)
		if err != nil {
			return err
		}
		root[mi] = bas
		exact := e.exact(m)
		for i := range bas {
			if err := e.pollContext(); err != nil {
				return err
			}
			matching, _ := e.matching(fr, &bas[i])
			n := len(matching)
			if exact {
				nShards++
				nTuples += n
				continue
			}
			n, whole := respChoices(n)
			if whole {
				nShards++
				continue
			}
			// 2^n subsets, each tuple in half of them.
			nShards += 1 << n
			nTuples += n << n >> 1
		}
	}

	// Pass 2: materialize the shards.
	shards := make([]rootShard, 0, nShards)
	tuples := make([]instance.Tuple, nTuples)
	tupleKeys := make([]string, nTuples)
	for mi, m := range methods {
		exact := e.exact(m)
		for i := range root[mi] {
			if err := e.pollContext(); err != nil {
				return err
			}
			ba := &root[mi][i]
			matching, keys := e.matching(fr, ba)
			if !exact {
				n, whole := respChoices(len(matching))
				if n < len(matching) {
					e.respCapped = true
				}
				if whole {
					shards = append(shards, rootShard{ba: ba, wholeAccess: true, sortKey: ba.key})
					continue
				}
			}
			it := e.responsesOf(matching, keys, exact)
			for {
				resp, keys, ok := it.next(fr)
				if !ok {
					break
				}
				n := len(resp)
				sh := rootShard{ba: ba, resp: tuples[:n:n], keys: tupleKeys[:n:n]}
				copy(sh.resp, resp)
				copy(sh.keys, keys)
				tuples, tupleKeys = tuples[n:], tupleKeys[n:]
				shards = append(shards, sh)
			}
		}
	}

	// Pass 3: the per-response sort keys — access key, 0x1e, response
	// fingerprint — written into one exactly sized buffer.
	keyBytes := 0
	for i := range shards {
		if sh := &shards[i]; !sh.wholeAccess {
			keyBytes += len(sh.ba.key) + 1 + max(len(sh.keys)-1, 0)
			for _, k := range sh.keys {
				keyBytes += len(k)
			}
		}
	}
	var sk strings.Builder
	sk.Grow(keyBytes)
	for i := range shards {
		sh := &shards[i]
		if sh.wholeAccess {
			continue
		}
		start := sk.Len()
		sk.WriteString(sh.ba.key)
		sk.WriteByte(0x1e)
		fr.fpKeys = append(fr.fpKeys[:0], sh.keys...)
		slices.Sort(fr.fpKeys)
		for j, k := range fr.fpKeys {
			if j > 0 {
				sk.WriteByte(0x1f)
			}
			sk.WriteString(k)
		}
		// A string String returns is never written again, and the exact
		// Grow keeps every sort key in the one buffer.
		sh.sortKey = sk.String()[start:]
	}

	sortShards(shards)
	p.shards, p.respCapped, p.root = shards, e.respCapped, root
	p.uTuples, p.uDomain = uTuples, uDomain
	p.built = true
	return nil
}

// sortShards sorts shards by sort key. Sort keys are unique (an access key
// and a response fingerprint identify one shard), so the order is total.
// The sort runs over int32 indexes rather than the shard structs, and the
// shards are then permuted into place along the permutation's cycles, each
// moved once.
func sortShards(shards []rootShard) {
	order := make([]int32, len(shards))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int {
		return strings.Compare(shards[a].sortKey, shards[b].sortKey)
	})
	// Position j must receive the shard at order[j]; a visited position
	// is marked -1.
	for i := range order {
		if order[i] < 0 {
			continue
		}
		tmp := shards[i]
		j := i
		for {
			from := int(order[j])
			order[j] = -1
			if from == i {
				shards[j] = tmp
				break
			}
			shards[j] = shards[from]
			j = from
		}
	}
}

// universeCaches precomputes the per-relation universe contents (with
// canonical keys) and the active domain once, for read-only sharing across
// all walkers: the caches cover every relation of the schema, so no walker
// ever takes the lazy-fill path in matching concurrently.
func universeCaches(sch *schema.Schema, u *instance.Instance) (map[string]*relCache, []instance.Value) {
	uTuples := make(map[string]*relCache, sch.NumRelations())
	for _, r := range sch.Relations() {
		ts := u.Tuples(r.Name())
		rc := &relCache{tuples: ts, keys: make([]string, len(ts))}
		for i, t := range ts {
			rc.keys[i] = t.Key()
		}
		uTuples[r.Name()] = rc
	}
	dom := u.ActiveDomain()
	if dom == nil {
		dom = []instance.Value{}
	}
	return uTuples, dom
}

// shardSubset validates and canonicalizes Options.Shards against an
// enumeration of n shards: sorted ascending, deduplicated, every index in
// [0, n). The dispatch order over the subset is the canonical ascending
// order, preserving the deterministic shard-order semantics (witness
// preference, error priority) of the full partition.
func shardSubset(sel []int, n int) ([]int, error) {
	out := make([]int, len(sel))
	copy(out, sel)
	sort.Ints(out)
	w := 0
	for i, idx := range out {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("lts: Options.Shards index %d out of range [0,%d)", idx, n)
		}
		if i > 0 && idx == out[w-1] {
			continue
		}
		out[w] = idx
		w++
	}
	return out[:w], nil
}
