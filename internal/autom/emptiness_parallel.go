package autom

// Shared table of the product search. IsEmpty shards the search over the
// root branching (lts.ExploreSharded); each root shard carries its own
// state-set stack (the simulation mirrors the DFS prefix chain), while the
// (configuration, state-set) dominance memo is shared across walkers behind
// striped locks keyed by the configuration Hash — the same sharing-soundness
// argument as the solver's (see internal/accltl/solver_parallel.go): an
// entry commits a search with at least that much budget, and verdicts only
// come from searches that ran to completion.

import (
	"accltl/accesscheck/cachetier"
	"accltl/internal/instance"
	"accltl/internal/lts"
)

// emptinessMemoKey keys the shared (configuration, state-set) dominance
// memo (lts.DominanceMemo, striped on the configuration hash).
type emptinessMemoKey struct {
	conf   instance.Hash
	states string
}

// EmptinessMemo carries the product search's dominance memo across calls so
// a budget-sliced emptiness check resumes warm. The cross-round soundness
// argument is the solver's (see accltl.SolverMemo): commitments of walks
// that were cut short are scrubbed before every search returns, so a
// surviving entry means some round finished that subtree without reaching
// an accepting state. A memo is tied to one (automaton, options) pair.
//
// Like the solver's memo it also carries the search prep (exploration
// options with the guard-derived universe, and the depth bound) and the
// root-shard plan, built by the first PlanShards or search through the memo
// and reused by every later one.
type EmptinessMemo struct {
	memo *lts.DominanceMemo[emptinessMemoKey]

	prep lts.SearchPrep
}

// searchPrep is the memo's carried prep, or nil for a nil memo.
func (m *EmptinessMemo) searchPrep() *lts.SearchPrep {
	if m == nil {
		return nil
	}
	return &m.prep
}

// NewEmptinessMemo builds an empty reusable memo.
func NewEmptinessMemo() *EmptinessMemo {
	return &EmptinessMemo{
		memo: lts.NewDominanceMemo[emptinessMemoKey](func(k emptinessMemoKey) uint64 { return k.conf.A }),
	}
}

// NewEmptinessMemoNeg is NewEmptinessMemo with the dominance memo fronted
// by a shared Bloom negative cache (nil = plain memo); the sharing
// contract is the solver's (accltl.NewSolverMemoNeg).
func NewEmptinessMemoNeg(neg *cachetier.NegativeCache) *EmptinessMemo {
	m := NewEmptinessMemo()
	if neg != nil {
		m.memo.WithNegativeCache(neg, emptinessNegHash)
	}
	return m
}

// emptinessNegHash derives the negative cache's two probe lanes from a
// memo key: the configuration's incremental instance hash, each lane
// mixed with a hash of the canonical state-set string.
func emptinessNegHash(k emptinessMemoKey) (uint64, uint64) {
	sh := cachetier.Hash64(k.states)
	return k.conf.A ^ sh, k.conf.B ^ (sh<<32 | sh>>32)
}

// emptinessSpine is one shard walk's live simulation stack, registered so
// the post-search sweep can scrub unfinished walks from a persistent memo.
type emptinessSpine struct {
	shard int
	stack []emptinessFrame
}

type emptinessFrame struct {
	states   map[int]bool
	length   int
	key      emptinessMemoKey
	recorded bool
}
