package accltl

import (
	"fmt"

	"accltl/internal/access"
	"accltl/internal/fo"
)

// Vocabulary selects which view of transitions the embedded sentences see.
type Vocabulary int

const (
	// FullAcc is Sch_Acc: IsBind_AcM carries the binding tuple.
	FullAcc Vocabulary = iota
	// ZeroAcc is Sch_0-Acc: IsBind_AcM is 0-ary.
	ZeroAcc
)

// Holds decides (p, i) ⊧ ϕ per Definition 2.1 over the LTS path induced by
// the access path's transitions. Positions are 0-based; i must be within
// the path. Paths of length zero satisfy no formula with a leading atom —
// but Holds requires a nonempty path and errors otherwise, matching the
// convention that formulas are evaluated at position 1 (our 0).
func Holds(f Formula, ts []access.Transition, i int, voc Vocabulary) (bool, error) {
	if len(ts) == 0 {
		return false, fmt.Errorf("accltl: Holds on empty path")
	}
	if i < 0 || i >= len(ts) {
		return false, fmt.Errorf("accltl: position %d out of range [0,%d)", i, len(ts))
	}
	structs := make([]fo.Structure, len(ts))
	for j, t := range ts {
		structs[j] = fo.ShareDomain(structureOf(t, voc))
	}
	return holds(prepare(f), structs, i)
}

// Satisfied decides whether the whole path satisfies ϕ, i.e. (p, 1) ⊧ ϕ.
func Satisfied(f Formula, ts []access.Transition, voc Vocabulary) (bool, error) {
	return Holds(f, ts, 0, voc)
}

// prepared mirrors a formula with each embedded sentence prepared once, so
// evaluating it at every position of a path does no per-position
// compilation. Operands sit in kids in field order (L before R).
type prepared struct {
	f        Formula
	sentence *fo.Prepared
	kids     []*prepared
}

func prepare(f Formula) *prepared {
	p := &prepared{f: f}
	var ops []Formula
	switch g := f.(type) {
	case Atom:
		p.sentence = fo.Prepare(g.Sentence)
	case Not:
		ops = []Formula{g.F}
	case And:
		ops = g.Conj
	case Or:
		ops = g.Disj
	case Next:
		ops = []Formula{g.F}
	case Until:
		ops = []Formula{g.L, g.R}
	case Prev:
		ops = []Formula{g.F}
	case Since:
		ops = []Formula{g.L, g.R}
	}
	for _, o := range ops {
		p.kids = append(p.kids, prepare(o))
	}
	return p
}

func holds(p *prepared, structs []fo.Structure, i int) (bool, error) {
	switch p.f.(type) {
	case Atom:
		return p.sentence.Eval(structs[i])
	case Not:
		v, err := holds(p.kids[0], structs, i)
		return !v, err
	case And:
		for _, c := range p.kids {
			v, err := holds(c, structs, i)
			if err != nil {
				return false, err
			}
			if !v {
				return false, nil
			}
		}
		return true, nil
	case Or:
		for _, d := range p.kids {
			v, err := holds(d, structs, i)
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
		}
		return false, nil
	case Next:
		if i+1 >= len(structs) {
			return false, nil
		}
		return holds(p.kids[0], structs, i+1)
	case Until:
		// (p,i) ⊧ ϕ U ψ iff ∃j ≥ i: (p,j) ⊧ ψ and ∀ i ≤ k < j: (p,k) ⊧ ϕ.
		for j := i; j < len(structs); j++ {
			v, err := holds(p.kids[1], structs, j)
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
			v, err = holds(p.kids[0], structs, j)
			if err != nil {
				return false, err
			}
			if !v {
				return false, nil
			}
		}
		return false, nil
	case Prev:
		if i == 0 {
			return false, nil
		}
		return holds(p.kids[0], structs, i-1)
	case Since:
		for j := i; j >= 0; j-- {
			v, err := holds(p.kids[1], structs, j)
			if err != nil {
				return false, err
			}
			if v {
				return true, nil
			}
			v, err = holds(p.kids[0], structs, j)
			if err != nil {
				return false, err
			}
			if !v {
				return false, nil
			}
		}
		return false, nil
	default:
		return false, fmt.Errorf("accltl: unknown formula node %T", p.f)
	}
}
