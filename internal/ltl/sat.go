package ltl

import (
	"fmt"
)

// Satisfiability of LTL over finite words via formula progression: a state
// is the residual obligation formula; reading a letter progresses it; a run
// accepts when the residual is "satisfied by the empty continuation". States
// are deduplicated by their simplified canonical string, which keeps the
// search finite (progression only ever produces boolean combinations of
// subformulas of the input).

// progress computes the residual obligation after reading letter l in the
// first position: the formula that the rest of the word must satisfy. The
// input must be in NNF.
func progress(f Formula, l Letter) Formula {
	switch g := f.(type) {
	case Truth:
		return g
	case Prop:
		return Truth(l[g])
	case Not:
		// NNF guarantees negation only over props.
		if p, ok := g.F.(Prop); ok {
			return Truth(!l[p])
		}
		if t, ok := progress(g.F, l).(Truth); ok {
			return Truth(!bool(t))
		}
		return Truth(false)
	case And:
		return mkAnd(progress(g.L, l), progress(g.R, l))
	case Or:
		return mkOr(progress(g.L, l), progress(g.R, l))
	case Next:
		return markNext(g.F) // obligation for the next position, strong
	case WeakNext:
		return markWeakNext(g.F)
	case Until:
		// l U r ≡ r ∨ (l ∧ X(l U r))   (strong next: r must occur)
		return mkOr(progress(g.R, l), mkAnd(progress(g.L, l), markNext(g)))
	case Release:
		// l R r ≡ r ∧ (l ∨ WX(l R r))
		return mkAnd(progress(g.R, l), mkOr(progress(g.L, l), markWeakNext(g)))
	default:
		return Truth(false)
	}
}

// nextOb wraps an obligation pending for the following position. After
// progressing the whole formula we strip one level of these markers.
type nextOb struct {
	F    Formula
	weak bool
}

func (nextOb) isLTL() {}
func (n nextOb) String() string {
	if n.weak {
		return "wx:" + n.F.String()
	}
	return "x:" + n.F.String()
}

func markNext(f Formula) Formula     { return nextOb{F: f} }
func markWeakNext(f Formula) Formula { return nextOb{F: f, weak: true} }

// mkAnd and mkOr build one progression node, folding truth constants and
// collapsing identical operands. Identity is structural: every Formula type
// is comparable, so l == r is an allocation-free deep compare that stops at
// the first difference. Rendering both operands instead cost their full
// size at every node, which made progression quadratic in obligation size.
// The two notions agree whenever proposition names render unambiguously,
// as the solvers' q0, q1, … skeletons do.
func mkAnd(l, r Formula) Formula {
	if lt, ok := l.(Truth); ok {
		if !bool(lt) {
			return Truth(false)
		}
		return r
	}
	if rt, ok := r.(Truth); ok {
		if !bool(rt) {
			return Truth(false)
		}
		return l
	}
	if l == r {
		return l
	}
	return And{L: l, R: r}
}

func mkOr(l, r Formula) Formula {
	if lt, ok := l.(Truth); ok {
		if bool(lt) {
			return Truth(true)
		}
		return r
	}
	if rt, ok := r.(Truth); ok {
		if bool(rt) {
			return Truth(true)
		}
		return l
	}
	if l == r {
		return l
	}
	return Or{L: l, R: r}
}

// stripNext converts the progressed formula (a boolean combination of Truth
// and nextOb markers) into the obligation for the next position, plus
// whether the word may stop here (the formula is satisfied if the word ends
// now: strong obligations fail, weak succeed).
func stripNext(f Formula) (next Formula, acceptNow bool) {
	switch g := f.(type) {
	case Truth:
		return g, bool(g)
	case nextOb:
		if g.weak {
			return g.F, true
		}
		return g.F, false
	case And:
		ln, la := stripNext(g.L)
		rn, ra := stripNext(g.R)
		return mkAnd(ln, rn), la && ra
	case Or:
		ln, la := stripNext(g.L)
		rn, ra := stripNext(g.R)
		// A disjunction's next obligation is the disjunction of branches;
		// acceptance now if either branch accepts now. (Choosing the
		// disjunction as the obligation is sound: either branch satisfying
		// the remainder satisfies it.)
		return mkOr(ln, rn), la || ra
	default:
		return f, false
	}
}

// Step reads one letter: given the current obligation (NNF), it returns the
// next obligation and whether a word ending right after this letter is
// accepted. The obligation is canonicalized (boolean operands flattened,
// sorted and deduplicated) so that progression reaches a finite set of
// distinct obligation strings — the property the automaton compilation and
// the memoized searches rely on for termination.
func Step(f Formula, l Letter) (next Formula, acceptAfter bool) {
	n, a := stripNext(progress(f, l))
	return Canon(n), a
}

// Canon returns a canonical form of a boolean combination: And/Or trees are
// flattened, operands deduplicated and sorted by rendering, truth constants
// absorbed. Temporal operators are treated as leaves (their bodies are
// already canonical when produced by Step).
func Canon(f Formula) Formula {
	switch g := f.(type) {
	case And:
		ops := flattenCanon(f, true)
		return rebuild(ops, true)
	case Or:
		ops := flattenCanon(f, false)
		return rebuild(ops, false)
	case Not:
		return Not{F: Canon(g.F)}
	default:
		return f
	}
}

func flattenCanon(f Formula, isAnd bool) []Formula {
	switch g := f.(type) {
	case And:
		if isAnd {
			return append(flattenCanon(g.L, true), flattenCanon(g.R, true)...)
		}
	case Or:
		if !isAnd {
			return append(flattenCanon(g.L, false), flattenCanon(g.R, false)...)
		}
	}
	return []Formula{Canon(f)}
}

func rebuild(ops []Formula, isAnd bool) Formula {
	// Absorb constants, dedupe by rendering, sort.
	seen := make(map[string]Formula, len(ops))
	keys := make([]string, 0, len(ops))
	for _, op := range ops {
		if t, ok := op.(Truth); ok {
			if bool(t) == isAnd {
				continue // neutral element
			}
			return t // absorbing element
		}
		k := op.String()
		if _, dup := seen[k]; !dup {
			seen[k] = op
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return Truth(isAnd)
	}
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	out := seen[keys[len(keys)-1]]
	for i := len(keys) - 2; i >= 0; i-- {
		if isAnd {
			out = And{L: seen[keys[i]], R: out}
		} else {
			out = Or{L: seen[keys[i]], R: out}
		}
	}
	return out
}

// SatResult reports the outcome of a satisfiability search.
type SatResult struct {
	Satisfiable bool
	// Witness is a satisfying word when Satisfiable.
	Witness Word
	// StatesExplored counts distinct (obligation) states visited.
	StatesExplored int
}

// DefaultMaxStates bounds the progression search; exceeded only by
// adversarial formulas far larger than anything this repository generates.
const DefaultMaxStates = 1 << 18

// Satisfiable searches for a nonempty word over the given alphabet (a slice
// of candidate letters) satisfying f, using progression with memoization.
// maxLen bounds the witness length (0 = no bound beyond state dedup; the
// search is still finite because revisited obligations are pruned).
func Satisfiable(f Formula, alphabet []Letter, maxLen int) (SatResult, error) {
	if len(alphabet) == 0 {
		return SatResult{}, fmt.Errorf("ltl: empty alphabet")
	}
	start := NNF(f)
	type node struct {
		ob   Formula
		word Word
	}
	seen := map[string]bool{start.String(): true}
	queue := []node{{ob: start}}
	states := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		states++
		if states > DefaultMaxStates {
			return SatResult{StatesExplored: states}, fmt.Errorf("ltl: state budget exhausted")
		}
		if maxLen > 0 && len(cur.word) >= maxLen {
			continue
		}
		for _, l := range alphabet {
			next, accept := Step(cur.ob, l)
			w := make(Word, len(cur.word)+1)
			copy(w, cur.word)
			w[len(cur.word)] = l
			if accept {
				return SatResult{Satisfiable: true, Witness: w, StatesExplored: states}, nil
			}
			if t, ok := next.(Truth); ok && !bool(t) {
				continue
			}
			key := next.String()
			// Word length matters only against maxLen; when bounded, allow
			// revisits at shorter lengths by keying on length too.
			if maxLen > 0 {
				key = fmt.Sprintf("%d|%s", len(w), key)
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			queue = append(queue, node{ob: next, word: w})
		}
	}
	return SatResult{StatesExplored: states}, nil
}

// SatisfiableBrute is the naive baseline (ablation D3): enumerate all words
// up to maxLen over the alphabet and model-check each.
func SatisfiableBrute(f Formula, alphabet []Letter, maxLen int) (SatResult, error) {
	if len(alphabet) == 0 {
		return SatResult{}, fmt.Errorf("ltl: empty alphabet")
	}
	if maxLen <= 0 {
		return SatResult{}, fmt.Errorf("ltl: brute-force search requires a length bound")
	}
	var cur Word
	checked := 0
	var rec func(depth int) *Word
	rec = func(depth int) *Word {
		if len(cur) > 0 {
			checked++
			if Satisfies(f, cur) {
				w := make(Word, len(cur))
				copy(w, cur)
				return &w
			}
		}
		if depth == maxLen {
			return nil
		}
		for _, l := range alphabet {
			cur = append(cur, l)
			if w := rec(depth + 1); w != nil {
				cur = cur[:len(cur)-1]
				return w
			}
			cur = cur[:len(cur)-1]
		}
		return nil
	}
	if w := rec(0); w != nil {
		return SatResult{Satisfiable: true, Witness: *w, StatesExplored: checked}, nil
	}
	return SatResult{StatesExplored: checked}, nil
}

// FullAlphabet enumerates all 2^n letters over the given propositions;
// usable only for small n.
func FullAlphabet(props []Prop) []Letter {
	n := len(props)
	out := make([]Letter, 0, 1<<n)
	for mask := 0; mask < 1<<n; mask++ {
		l := make(Letter, n)
		for i, p := range props {
			if mask&(1<<i) != 0 {
				l[p] = true
			}
		}
		out = append(out, l)
	}
	return out
}
