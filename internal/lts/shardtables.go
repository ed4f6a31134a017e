package lts

// Concurrent companion tables for solvers built on ExploreSharded: the
// striped dominance memo, the lowest-shard witness box, and the search prep
// a persistent memo carries from planning into every round. Both the AccLTL
// bounded-model solver and the automaton emptiness check need exactly these
// structures (their keys differ, their semantics do not), so they live here
// once instead of as twins in each engine.

import (
	"context"
	"sync"

	"accltl/accesscheck/cachetier"
	"accltl/internal/schema"
)

const shardTableStripes = 64

// DominanceMemo is a concurrent map from search states to the largest
// remaining depth budget a walker has committed to exploring them with,
// striped by a caller-supplied hash (solvers stripe on the configuration's
// incremental instance.Hash, so walkers covering overlapping configuration
// spaces land on the same stripes and prune against each other's work).
//
// Sharing the memo across walkers is sound: an entry means "a search from
// this state with at least this much budget was committed to", and verdicts are only produced by searches that
// ran to completion — errors and context expiries surface as errors, caps
// surface as truncation. It does make visited-path counts
// schedule-dependent (whether a walker reaches a node before or after a
// dominating entry lands decides whether the node expands), which is why
// only verdicts, not path counts, are pinned across Parallelism.
type DominanceMemo[K comparable] struct {
	stripeOf func(K) uint64
	stripes  [shardTableStripes]dominanceStripe[K]

	// neg, when armed via WithNegativeCache, is a Bloom filter over every
	// key ever offered to DominatedOrRecord (possibly shared with other
	// memos). A definite "never seen" answers the first sight of a key
	// lock-free; negKey derives the filter's two hash lanes from a key.
	neg    *cachetier.NegativeCache
	negKey func(K) (uint64, uint64)
}

type dominanceStripe[K comparable] struct {
	mu sync.Mutex
	m  map[K]int
}

// NewDominanceMemo builds an empty memo striped by stripeOf. A stripe's map
// is made on its first record, so a small search pays only for the stripes
// it touches.
func NewDominanceMemo[K comparable](stripeOf func(K) uint64) *DominanceMemo[K] {
	return &DominanceMemo[K]{stripeOf: stripeOf}
}

// WithNegativeCache arms the memo with a shared Bloom negative cache:
// before taking a stripe lock, DominatedOrRecord asks the filter whether
// the key was ever seen, and a definite "no" short-circuits lock-free.
// key derives the filter's two 64-bit hash lanes from a memo key. The
// filter may be shared across memos (the server shares one per engine
// across all requests); sharing only adds false positives, which cost a
// lock acquisition and never a verdict. Returns the memo for chaining.
func (t *DominanceMemo[K]) WithNegativeCache(neg *cachetier.NegativeCache, key func(K) (uint64, uint64)) *DominanceMemo[K] {
	t.neg, t.negKey = neg, key
	return t
}

// DominatedOrRecord reports whether k was already committed with at least
// remaining budget; if not, it records the new budget. The check and the
// update are one critical section, so two walkers racing on the same key
// cannot both conclude "dominated".
//
// With a negative cache armed, a key the filter has definitely never
// seen skips the critical section: the filter bits are set and the
// walker proceeds as not-dominated WITHOUT recording in the map. This is
// sound — "not dominated" only means the walker explores, exactly what
// an empty memo would answer — and keeps the fast path lock-free; the
// map-backed pruning then engages from a key's second sight onward. A
// filter false positive (or a bit left by another memo sharing the
// filter) merely falls through to the authoritative critical section.
// Remove cannot clear filter bits, which is equally harmless: a stale
// bit routes to the map, which no longer holds the key and re-records.
func (t *DominanceMemo[K]) DominatedOrRecord(k K, remaining int) bool {
	h := t.stripeOf(k)
	if t.neg != nil {
		h1, h2 := t.negKey(k)
		if !t.neg.MayContain(h, h1, h2) {
			t.neg.Insert(h, h1, h2)
			return false
		}
	}
	st := &t.stripes[h&(shardTableStripes-1)]
	st.mu.Lock()
	prev, ok := st.m[k]
	if ok && prev >= remaining {
		st.mu.Unlock()
		return true
	}
	if st.m == nil {
		st.m = make(map[K]int)
	}
	st.m[k] = remaining
	st.mu.Unlock()
	return false
}

// Remove deletes k's entry, if any. Checkpoint/resume uses it to invalidate
// commitments left by walks that were cut short: DominatedOrRecord records
// pre-order, so a killed walker leaves entries whose subtrees were never
// finished — sound within one run (the kill surfaces as an error or
// truncation), but not for a later run resuming against the same memo.
// Removing a live entry is always sound; it only costs pruning.
func (t *DominanceMemo[K]) Remove(k K) {
	st := &t.stripes[t.stripeOf(k)&(shardTableStripes-1)]
	st.mu.Lock()
	delete(st.m, k)
	st.mu.Unlock()
}

// WitnessBox collects candidate witnesses from concurrent walkers,
// preferring the lowest shard index: ExploreSharded's shards are sorted
// canonically, so the preference keeps the reported witness stable whenever
// scheduling lets the low shards finish (the residual nondeterminism is
// documented on the solvers' Parallelism options).
type WitnessBox[T any] struct {
	mu    sync.Mutex
	has   bool
	shard int
	val   T
}

// Offer submits a candidate found while processing the given shard.
func (w *WitnessBox[T]) Offer(shard int, v T) {
	w.mu.Lock()
	if !w.has || shard < w.shard {
		w.has, w.shard, w.val = true, shard, v
	}
	w.mu.Unlock()
}

// Take returns the best candidate, if any. Callers invoke it after the
// exploration joined, but it is safe concurrently with Offer.
func (w *WitnessBox[T]) Take() (T, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.val, w.has
}

// SearchPrep is one check's exploration setup carried across calls: the
// exploration options and depth bound an engine derives from the check (the
// witness universe and binding pool are the expensive part), and the
// root-shard Plan those options enumerate. Planning a check and then
// searching it through one SearchPrep, in any number of rounds, derives the
// options once and enumerates the partition once. The zero value is ready
// to use, and a nil *SearchPrep carries nothing: every call derives or
// enumerates afresh.
type SearchPrep struct {
	mu      sync.Mutex
	derived bool
	opts    Options
	depth   int
	plan    Plan
}

// Options returns the carried exploration options with ctx as their
// Context, running derive until one call succeeds. derive runs without the
// lock held; when two first calls race, both derive and the first to
// finish is kept, so every caller walks the options the plan is built from.
func (p *SearchPrep) Options(ctx context.Context, derive func() (Options, int, error)) (Options, int, error) {
	if p == nil {
		return derive()
	}
	p.mu.Lock()
	derived, o, depth := p.derived, p.opts, p.depth
	p.mu.Unlock()
	if !derived {
		var err error
		if o, depth, err = derive(); err != nil {
			return Options{}, 0, err
		}
		o.Context = nil
		p.mu.Lock()
		if p.derived {
			o, depth = p.opts, p.depth
		} else {
			p.opts, p.depth, p.derived = o, depth, true
		}
		p.mu.Unlock()
	}
	o.Context = ctx
	return o, depth, nil
}

// Plan is the carried root-shard plan for ExploreSharded: built by the
// first Shards call or sharded exploration, walked by every later one. Nil
// for a nil SearchPrep, so the exploration enumerates a fresh plan.
func (p *SearchPrep) Plan() *Plan {
	if p == nil {
		return nil
	}
	return &p.plan
}

// Shards is the package Shards through the carried plan: it enumerates only
// when the plan is not built yet.
func (p *SearchPrep) Shards(sch *schema.Schema, opts Options) ([]ShardID, bool, error) {
	if p == nil {
		return Shards(sch, opts)
	}
	if err := p.plan.Build(sch, opts); err != nil {
		return nil, false, err
	}
	return p.plan.Shards(), p.plan.ResponsesCapped(), nil
}
