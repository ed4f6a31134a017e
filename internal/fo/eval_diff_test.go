package fo

import (
	"fmt"
	"math/rand"
	"testing"

	"accltl/internal/instance"
	"accltl/internal/schema"
)

// refDomain is the eager quantification domain: the structure's active
// domain, the formula's constants, then one fresh int and string per
// quantified variable and both booleans.
func refDomain(f Formula, st Structure) []instance.Value {
	seen := make(map[instance.Value]bool)
	var dom []instance.Value
	add := func(v instance.Value) {
		if !seen[v] {
			seen[v] = true
			dom = append(dom, v)
		}
	}
	for _, v := range st.Domain() {
		add(v)
	}
	for _, v := range Constants(f) {
		add(v)
	}
	if n := quantifiedVars(f); n > 0 {
		var minInt int64
		for v := range seen {
			if v.Kind() == schema.TypeInt && v.AsInt() < minInt {
				minInt = v.AsInt()
			}
		}
		for i := 1; i <= n; i++ {
			add(instance.Int(minInt - int64(i) - 1000000007))
		}
		for i := 0; i < n; i++ {
			add(instance.Str(fmt.Sprintf("$fresh%d", i)))
		}
		add(instance.Bool(true))
		add(instance.Bool(false))
	}
	return dom
}

// quantifiedVars counts the variables f's quantifiers bind: the size of the
// fresh reserve per type.
func quantifiedVars(f Formula) int {
	switch g := f.(type) {
	case And:
		n := 0
		for _, c := range g.Conj {
			n += quantifiedVars(c)
		}
		return n
	case Or:
		n := 0
		for _, d := range g.Disj {
			n += quantifiedVars(d)
		}
		return n
	case Not:
		return quantifiedVars(g.F)
	case Exists:
		return len(g.Vars) + quantifiedVars(g.Body)
	}
	return 0
}

// refEval is the textbook evaluator the prepared one must agree with:
// every quantified variable ranges over the whole eager domain, and an
// inner quantifier shadows an outer binding of the same name.
func refEval(f Formula, st Structure, dom []instance.Value, env map[string]instance.Value) bool {
	val := func(t Term) instance.Value {
		if t.IsVar() {
			v, ok := env[t.Name()]
			if !ok {
				panic("unbound variable " + t.Name())
			}
			return v
		}
		return t.Value()
	}
	switch g := f.(type) {
	case Truth:
		return g.Val
	case Atom:
		tup := make(instance.Tuple, len(g.Args))
		for i, a := range g.Args {
			tup[i] = val(a)
		}
		return st.Holds(g.Pred, tup)
	case Eq:
		return val(g.L) == val(g.R)
	case Neq:
		return val(g.L) != val(g.R)
	case And:
		for _, c := range g.Conj {
			if !refEval(c, st, dom, env) {
				return false
			}
		}
		return true
	case Or:
		for _, d := range g.Disj {
			if refEval(d, st, dom, env) {
				return true
			}
		}
		return false
	case Not:
		return !refEval(g.F, st, dom, env)
	case Exists:
		return refExists(g.Vars, g.Body, st, dom, env)
	}
	panic(fmt.Sprintf("unknown formula %T", f))
}

func refExists(vars []string, body Formula, st Structure, dom []instance.Value, env map[string]instance.Value) bool {
	if len(vars) == 0 {
		return refEval(body, st, dom, env)
	}
	inner := make(map[string]instance.Value, len(env)+1)
	for k, v := range env {
		inner[k] = v
	}
	for _, v := range dom {
		inner[vars[0]] = v
		if refExists(vars[1:], body, st, dom, inner) {
			return true
		}
	}
	return false
}

// countingStructure counts Domain calls on the structure it wraps.
type countingStructure struct {
	Structure
	domains int
}

func (c *countingStructure) Domain() []instance.Value {
	c.domains++
	return c.Structure.Domain()
}

var (
	diffValues = []instance.Value{instance.Int(1), instance.Int(2), instance.Int(-3), instance.Str("a"), instance.Str("b")}
	diffPreds  = []struct {
		pred  Pred
		arity int
	}{{PlainPred("R"), 2}, {PlainPred("S"), 1}, {PrePred("R"), 2}, {PostPred("T"), 1}}
	diffNames = []string{"x", "y", "z"}
)

func randomStructure(r *rand.Rand) *MapStructure {
	st := NewMapStructure()
	for _, p := range diffPreds {
		for n := r.Intn(4); n > 0; n-- {
			tup := make(instance.Tuple, p.arity)
			for i := range tup {
				tup[i] = diffValues[r.Intn(len(diffValues))]
			}
			st.Add(p.pred, tup)
		}
	}
	return st
}

// formulaGen draws closed formulas. Quantifiers pick names from a pool of
// three, so nested quantifiers often rebind a name already in scope, and a
// quantified body is sometimes only a disjunction or an (in)equality, so
// the variable has no generator atom and ranges over the full domain.
type formulaGen struct{ r *rand.Rand }

func (g formulaGen) term(scope []string) Term {
	if len(scope) > 0 && g.r.Intn(4) != 0 {
		return Var(scope[g.r.Intn(len(scope))])
	}
	return Const(diffValues[g.r.Intn(len(diffValues))])
}

func (g formulaGen) atom(scope []string) Atom {
	p := diffPreds[g.r.Intn(len(diffPreds))]
	args := make([]Term, p.arity)
	for i := range args {
		args[i] = g.term(scope)
	}
	return Atom{Pred: p.pred, Args: args}
}

func (g formulaGen) formula(scope []string, depth int) Formula {
	k := g.r.Intn(10)
	if depth == 0 || (k == 9 && len(scope) > 0) {
		k = g.r.Intn(3)
	}
	switch k {
	case 0:
		return g.atom(scope)
	case 9:
		// A conjunctive join block: several variables generated by
		// different atoms that share them. Only at the top level, where
		// the reference's full-domain enumeration stays cheap.
		vars := append([]string(nil), diffNames[:2+g.r.Intn(2)]...)
		inner := append(append([]string(nil), scope...), vars...)
		conj := []Formula{g.atom(inner), g.atom(inner)}
		if g.r.Intn(2) == 0 {
			conj = append(conj, g.atom(inner))
		}
		if g.r.Intn(3) == 0 {
			conj = append(conj, Neq{L: g.term(inner), R: g.term(inner)})
		}
		return Exists{Vars: vars, Body: And{Conj: conj}}
	case 1:
		return Eq{L: g.term(scope), R: g.term(scope)}
	case 2:
		return Neq{L: g.term(scope), R: g.term(scope)}
	case 3, 4:
		return And{Conj: []Formula{g.formula(scope, depth-1), g.formula(scope, depth-1)}}
	case 5:
		return Or{Disj: []Formula{g.formula(scope, depth-1), g.formula(scope, depth-1)}}
	case 6:
		return Not{F: g.formula(scope, depth-1)}
	default:
		vars := []string{diffNames[g.r.Intn(len(diffNames))]}
		if g.r.Intn(3) == 0 {
			vars = append(vars, diffNames[g.r.Intn(len(diffNames))])
		}
		inner := append(append([]string(nil), scope...), vars...)
		return Exists{Vars: vars, Body: g.formula(inner, depth-1)}
	}
}

// TestEvalMatchesEagerReference: on seeded random structures and closed
// formulas (negation, rebinding, fallback variables included) the prepared
// evaluator agrees with the full-domain reference, and builds the domain
// only for formulas that reach a variable without a generator atom.
func TestEvalMatchesEagerReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42} {
		r := rand.New(rand.NewSource(seed))
		gen := formulaGen{r: r}
		var truths, domainBuilds, lazy int
		for i := 0; i < 400; i++ {
			st := randomStructure(r)
			f := gen.formula(nil, 3)
			want := refEval(f, st, refDomain(f, st), map[string]instance.Value{})
			cs := &countingStructure{Structure: st}
			got, err := Eval(f, cs)
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, f, err)
			}
			if got != want {
				t.Fatalf("seed %d: %s on %v: prepared evaluator says %v, reference %v", seed, f, st.Preds(), got, want)
			}
			if cs.domains > 1 {
				t.Fatalf("seed %d: %s built the domain %d times in one evaluation", seed, f, cs.domains)
			}
			if got {
				truths++
			}
			if cs.domains == 1 {
				domainBuilds++
			} else if quantifiedVars(f) > 0 {
				lazy++
			}
		}
		t.Logf("seed %d: %d true, %d domain builds, %d quantified without one", seed, truths, domainBuilds, lazy)
		// The corpus must exercise both verdicts and both variable kinds.
		if truths == 0 || truths == 400 || domainBuilds == 0 || lazy == 0 {
			t.Errorf("seed %d: degenerate corpus: %d true, %d domain builds, %d quantified without one", seed, truths, domainBuilds, lazy)
		}
	}
}

// TestEvalNestedRebindingShadows: an inner quantifier rebinding a name
// ranges afresh instead of reusing the outer binding.
func TestEvalNestedRebindingShadows(t *testing.T) {
	st := NewMapStructure()
	st.Add(rP, instance.Tuple{instance.Int(1)})
	st.Add(sP, instance.Tuple{instance.Int(2)})
	f := Exists{Vars: []string{"x"}, Body: Conj(atom(rP, "x"), Exists{Vars: []string{"x"}, Body: atom(sP, "x")})}
	if got, err := Eval(f, st); err != nil || !got {
		t.Errorf("%s = %v, %v; want true", f, got, err)
	}
	// An inner rebinding must not leak into the outer scope either.
	g := Exists{Vars: []string{"x"}, Body: Conj(Exists{Vars: []string{"x"}, Body: atom(sP, "x")}, atom(rP, "x"), Neq{Var("x"), Const(instance.Int(2))})}
	if got, err := Eval(g, st); err != nil || !got {
		t.Errorf("%s = %v, %v; want true", g, got, err)
	}
}

// TestPreparedReusableAcrossStructures: one Prepared evaluates correctly
// on many structures, including concurrently.
func TestPreparedReusableAcrossStructures(t *testing.T) {
	f := Exists{Vars: []string{"x", "y"}, Body: Conj(atom(rP, "x", "y"), Neq{Var("x"), Var("y")})}
	p := Prepare(f)
	r := rand.New(rand.NewSource(9))
	structs := make([]*MapStructure, 50)
	want := make([]bool, len(structs))
	for i := range structs {
		structs[i] = randomStructure(r)
		want[i] = refEval(f, structs[i], refDomain(f, structs[i]), map[string]instance.Value{})
	}
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i, st := range structs {
				if got, err := p.Eval(st); err != nil || got != want[i] {
					t.Errorf("structure %d: got %v, %v; want %v", i, got, err, want[i])
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
}

// TestShareDomainBuildsOnce: sentences evaluated through one ShareDomain
// wrapper build the structure's domain at most once between them.
func TestShareDomainBuildsOnce(t *testing.T) {
	st := NewMapStructure()
	st.Add(rP, instance.Tuple{instance.Int(1), instance.Int(2)})
	cs := &countingStructure{Structure: st}
	shared := ShareDomain(cs)
	fallback := []Formula{
		Exists{Vars: []string{"x"}, Body: Neq{Var("x"), Const(instance.Int(1))}},
		Exists{Vars: []string{"x"}, Body: Disj(atom(rP, "x", "$a"), atom(sP, "x"))},
	}
	for _, f := range fallback {
		if _, err := Prepare(f).Eval(shared); err != nil {
			t.Fatal(err)
		}
	}
	if cs.domains != 1 {
		t.Errorf("two fallback sentences built the domain %d times, want 1", cs.domains)
	}
}
