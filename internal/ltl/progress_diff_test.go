package ltl

import (
	"math/rand"
	"testing"
)

// The differential below pins Step against a reference progression that
// identifies boolean operands by rendering (l.String() == r.String()), the
// definition the structural compare in mkAnd/mkOr replaced. Both sides share
// Canon, so any divergence comes from the operand identity alone.

// refProgression is progress/stripNext with rendering-equality mkAnd/mkOr.
// dedups counts how often the identical-operand branch fired, so the test
// can insist its inputs exercise it.
type refProgression struct{ dedups int }

func (r *refProgression) mkAnd(a, b Formula) Formula {
	if at, ok := a.(Truth); ok {
		if !bool(at) {
			return Truth(false)
		}
		return b
	}
	if bt, ok := b.(Truth); ok {
		if !bool(bt) {
			return Truth(false)
		}
		return a
	}
	if a.String() == b.String() {
		r.dedups++
		return a
	}
	return And{L: a, R: b}
}

func (r *refProgression) mkOr(a, b Formula) Formula {
	if at, ok := a.(Truth); ok {
		if bool(at) {
			return Truth(true)
		}
		return b
	}
	if bt, ok := b.(Truth); ok {
		if bool(bt) {
			return Truth(true)
		}
		return a
	}
	if a.String() == b.String() {
		r.dedups++
		return a
	}
	return Or{L: a, R: b}
}

func (r *refProgression) progress(f Formula, l Letter) Formula {
	switch g := f.(type) {
	case Truth:
		return g
	case Prop:
		return Truth(l[g])
	case Not:
		if p, ok := g.F.(Prop); ok {
			return Truth(!l[p])
		}
		if t, ok := r.progress(g.F, l).(Truth); ok {
			return Truth(!bool(t))
		}
		return Truth(false)
	case And:
		return r.mkAnd(r.progress(g.L, l), r.progress(g.R, l))
	case Or:
		return r.mkOr(r.progress(g.L, l), r.progress(g.R, l))
	case Next:
		return markNext(g.F)
	case WeakNext:
		return markWeakNext(g.F)
	case Until:
		return r.mkOr(r.progress(g.R, l), r.mkAnd(r.progress(g.L, l), markNext(g)))
	case Release:
		return r.mkAnd(r.progress(g.R, l), r.mkOr(r.progress(g.L, l), markWeakNext(g)))
	default:
		return Truth(false)
	}
}

func (r *refProgression) stripNext(f Formula) (Formula, bool) {
	switch g := f.(type) {
	case Truth:
		return g, bool(g)
	case nextOb:
		return g.F, g.weak
	case And:
		ln, la := r.stripNext(g.L)
		rn, ra := r.stripNext(g.R)
		return r.mkAnd(ln, rn), la && ra
	case Or:
		ln, la := r.stripNext(g.L)
		rn, ra := r.stripNext(g.R)
		return r.mkOr(ln, rn), la || ra
	default:
		return f, false
	}
}

func (r *refProgression) step(f Formula, l Letter) (Formula, bool) {
	n, a := r.stripNext(r.progress(f, l))
	return Canon(n), a
}

// randomSkeleton draws an NNF formula over props. pool collects every
// subformula drawn so far; a quarter of the inner draws reuse one, so
// identical operands meet under And/Or/Until/Release and progression's
// dedup branch fires.
func randomSkeleton(r *rand.Rand, props []Prop, depth int, pool *[]Formula) Formula {
	if len(*pool) > 0 && r.Intn(4) == 0 {
		return (*pool)[r.Intn(len(*pool))]
	}
	var f Formula
	if depth == 0 {
		switch r.Intn(6) {
		case 0:
			f = Not{F: props[r.Intn(len(props))]}
		case 1:
			f = Truth(r.Intn(2) == 0)
		default:
			f = props[r.Intn(len(props))]
		}
	} else {
		sub := func() Formula { return randomSkeleton(r, props, depth-1, pool) }
		switch r.Intn(8) {
		case 0:
			f = And{L: sub(), R: sub()}
		case 1:
			f = Or{L: sub(), R: sub()}
		case 2:
			f = Next{F: sub()}
		case 3:
			f = WeakNext{F: sub()}
		case 4, 5:
			f = Until{L: sub(), R: sub()}
		case 6:
			f = Release{L: sub(), R: sub()}
		default:
			x := sub()
			f = Or{L: x, R: And{L: x, R: sub()}}
		}
	}
	*pool = append(*pool, f)
	return f
}

// TestStepMatchesRenderingEqualityReference progresses seeded random
// skeletons over q0..q5 — and the obligations they reach in two further
// steps — under every letter of the full alphabet, and demands the same
// rendering and accept flag from Step and from the reference.
func TestStepMatchesRenderingEqualityReference(t *testing.T) {
	props := []Prop{"q0", "q1", "q2", "q3", "q4", "q5"}
	alphabet := FullAlphabet(props)
	const (
		formulasPerSeed = 40
		levels          = 3
		frontierCap     = 4
	)
	ref := &refProgression{}
	steps := 0
	for _, seed := range []int64{1, 7, 42} {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < formulasPerSeed; i++ {
			var pool []Formula
			f := NNF(randomSkeleton(r, props, 4, &pool))
			frontier := []Formula{f}
			for lvl := 0; lvl < levels && len(frontier) > 0; lvl++ {
				seen := map[string]bool{}
				var next []Formula
				for _, ob := range frontier {
					for _, l := range alphabet {
						got, gotAcc := Step(ob, l)
						want, wantAcc := ref.step(ob, l)
						steps++
						if got.String() != want.String() || gotAcc != wantAcc {
							t.Fatalf("seed %d formula %d level %d: Step(%s, {%s}) = (%s, %v), reference (%s, %v)",
								seed, i, lvl, ob, l.Key(), got, gotAcc, want, wantAcc)
						}
						if _, isT := got.(Truth); !isT && !seen[got.String()] && len(next) < frontierCap {
							seen[got.String()] = true
							next = append(next, got)
						}
					}
				}
				frontier = next
			}
		}
	}
	if ref.dedups == 0 {
		t.Fatalf("no identical-operand dedup fired in %d steps: the generator no longer exercises it", steps)
	}
	t.Logf("%d steps, %d reference dedups", steps, ref.dedups)
}
