package accltl

// Shared tables of the bounded-model search. boundedSearch shards the search
// over the root branching (lts.ExploreSharded); each root shard gets its own
// visitor with its own obligation stack (obligations mirror the DFS prefix
// chain, so they can never be shared), while the three tables that make
// walkers share work instead of duplicating it are global:
//
//   - the obligation interner (mutex; hit once per *distinct* obligation);
//   - the progression cache (obligation id, letter bitmask) → next, striped;
//   - the (configuration Hash, obligation id) → remaining-depth memo,
//     striped by the hash so walkers exploring overlapping configuration
//     spaces prune against each other's work.
//
// Sharing the memo is sound because an entry means "a search from this
// (configuration, obligation) with at least this much depth budget was
// committed to", and verdicts are only produced by searches that ran to
// completion (errors and context expiries surface as errors, caps surface
// as Truncated). It does make PathsExplored schedule-dependent above one
// walker — whether a walker reaches a node before or after the dominating
// entry lands decides whether the node expands — which is why only
// verdicts, not path counts, are pinned across W.

import (
	"sync"

	"accltl/accesscheck/cachetier"
	"accltl/internal/instance"
	"accltl/internal/ltl"
	"accltl/internal/lts"
)

// obInterner assigns stable small ids to distinct obligations across all
// walkers; ids key the progression cache and the memo table, so they must
// be global. Interning happens once per distinct obligation (progression
// cache hits skip it entirely), so one mutex does not contend.
type obInterner struct {
	mu   sync.Mutex
	ids  map[string]int
	list []ltl.Formula
}

func newObInterner() *obInterner {
	return &obInterner{ids: make(map[string]int)}
}

// intern returns the id and canonical representative of f.
func (in *obInterner) intern(f ltl.Formula) (int, ltl.Formula) {
	s := f.String()
	in.mu.Lock()
	defer in.mu.Unlock()
	if id, ok := in.ids[s]; ok {
		return id, in.list[id]
	}
	id := len(in.list)
	in.ids[s] = id
	in.list = append(in.list, f)
	return id, f
}

const solverStripes = 64

// progStripe is one lock stripe of the shared progression cache.
type progStripe struct {
	mu sync.Mutex
	m  map[progKey]progVal
}

type progKey struct {
	ob     int
	letter uint64
}

type progVal struct {
	next   ltl.Formula
	nextID int
	accept bool
}

// progTable is the striped progression cache. A stripe's map is made on
// its first put, so a small search pays only for the stripes it touches.
type progTable struct {
	stripes [solverStripes]progStripe
}

func (t *progTable) stripe(k progKey) *progStripe {
	h := uint64(k.ob)*0x9e3779b97f4a7c15 ^ k.letter*0xbf58476d1ce4e5b9
	return &t.stripes[(h>>33)&(solverStripes-1)]
}

func (t *progTable) get(k progKey) (progVal, bool) {
	st := t.stripe(k)
	st.mu.Lock()
	v, ok := st.m[k]
	st.mu.Unlock()
	return v, ok
}

func (t *progTable) put(k progKey, v progVal) {
	st := t.stripe(k)
	st.mu.Lock()
	if st.m == nil {
		st.m = make(map[progKey]progVal)
	}
	st.m[k] = v
	st.mu.Unlock()
}

// solverMemoKey keys the shared (configuration, obligation) dominance memo
// (lts.DominanceMemo, striped on the configuration hash).
type solverMemoKey struct {
	conf instance.Hash
	ob   int
}

// obState is the per-prefix obligation bookkeeping of one shard walk.
// key/recorded remember the dominance-memo entry the push committed, so a
// persistent-memo search can scrub the commitments of a walk that was cut
// short (see SolverMemo).
type obState struct {
	ob       ltl.Formula
	id       int
	len      int
	key      solverMemoKey
	recorded bool
}

// solverSpine is one shard walk's live obligation stack, registered so the
// post-search sweep can reach it. The stack mirrors the DFS prefix chain:
// when a walk is aborted (deadline, cap, early-cancel), the frames still on
// the stack are exactly the subtrees that were entered but not finished —
// their memo commitments must not survive into a resumed round. Frames of
// already-completed sibling subtrees may linger on the stack too (pops are
// lazy); scrubbing those as well is sound, it only costs pruning.
type solverSpine struct {
	shard int
	stack []obState
}

// SolverMemo carries the solver's shared tables across calls, so a
// budget-sliced search resumes warm: the obligation interner and progression
// cache are pure (always reusable), and the dominance memo is kept sound
// across rounds by scrubbing unfinished walks' commitments after every
// search (an entry that survives means some round finished that subtree
// without finding a witness, so pruning against it later is sound). A memo
// is tied to one (formula, options) pair; callers key it accordingly.
//
// The memo also carries the check's search prep — the exploration options
// with the witness universe, the depth bound and the binding pool — and its
// root-shard plan, each built by the first PlanShards or search through the
// memo and reused by every later one. Planning a check and then solving it
// through one memo therefore enumerates the root partition once.
type SolverMemo struct {
	in   *obInterner
	prog *progTable
	memo *lts.DominanceMemo[solverMemoKey]

	prep lts.SearchPrep
}

// searchPrep is the memo's carried prep, or nil for a nil memo.
func (m *SolverMemo) searchPrep() *lts.SearchPrep {
	if m == nil {
		return nil
	}
	return &m.prep
}

// NewSolverMemo builds an empty reusable table set.
func NewSolverMemo() *SolverMemo {
	return &SolverMemo{
		in:   newObInterner(),
		prog: &progTable{},
		memo: lts.NewDominanceMemo[solverMemoKey](func(k solverMemoKey) uint64 { return k.conf.A }),
	}
}

// NewSolverMemoNeg is NewSolverMemo with the dominance memo fronted by a
// shared Bloom negative cache (nil = plain memo). The filter is typically
// process-wide and long-lived while the memo is per search or per
// checkpoint: filter bits from other searches are only false positives,
// which route to the authoritative memo and never change a verdict.
func NewSolverMemoNeg(neg *cachetier.NegativeCache) *SolverMemo {
	m := NewSolverMemo()
	if neg != nil {
		m.memo.WithNegativeCache(neg, solverNegHash)
	}
	return m
}

// solverNegHash derives the negative cache's two 64-bit probe lanes from
// a memo key: the configuration's incremental instance hash, each lane
// mixed with the interned obligation id so distinct obligations of one
// configuration probe distinct bits.
func solverNegHash(k solverMemoKey) (uint64, uint64) {
	ob := (uint64(k.ob) + 1) * 0x9e3779b97f4a7c15
	return k.conf.A ^ ob, k.conf.B ^ (ob<<32 | ob>>32)
}
