package accltl

import (
	"testing"

	"accltl/internal/access"
	"accltl/internal/fo"
	"accltl/internal/instance"
	"accltl/internal/schema"
)

// letterSchema carries the relation shapes of the benchmark's letters:
// the phone directory (Mobile#, bound by AcM1), a chain relation R0 and a
// wide binary relation Email.
func letterSchema(t testing.TB) *schema.Schema {
	t.Helper()
	mobile := schema.MustRelation("Mobile#", schema.TypeString, schema.TypeString, schema.TypeString, schema.TypeInt)
	email := schema.MustRelation("Email", schema.TypeString, schema.TypeString)
	r0 := schema.MustRelation("R0", schema.TypeInt)
	s := schema.New()
	for _, err := range []error{
		s.AddRelation(mobile), s.AddRelation(email), s.AddRelation(r0),
		s.AddMethod(schema.MustAccessMethod("AcM1", mobile, 0)),
		s.AddMethod(schema.MustAccessMethod("AcM3", email, 0)),
		s.AddMethod(schema.MustAccessMethod("scanR0", r0)),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// letterTransitions is a three-step path touching every relation, so each
// letter shape is true on some transition and false on another.
func letterTransitions(t testing.TB, s *schema.Schema) []access.Transition {
	t.Helper()
	m1, _ := s.Method("AcM1")
	m3, _ := s.Method("AcM3")
	scan, _ := s.Method("scanR0")
	p := access.NewPath(s)
	p.MustAppend(access.MustAccess(m1, instance.Str("Smith")),
		instance.Tuple{instance.Str("Smith"), instance.Str("OX13QD"), instance.Str("Parks Rd"), instance.Int(5551212)})
	p.MustAppend(access.MustAccess(m3, instance.Str("smith")),
		instance.Tuple{instance.Str("smith"), instance.Str("ox.ac.uk")},
		instance.Tuple{instance.Str("smith"), instance.Str("cs.ox.ac.uk")})
	p.MustAppend(access.MustAccess(scan),
		instance.Tuple{instance.Int(1)}, instance.Tuple{instance.Int(2)})
	return trans(t, p)
}

func prepareLetters(t testing.TB, srcs ...string) []letterEntry {
	t.Helper()
	out := make([]letterEntry, len(srcs))
	for i, src := range srcs {
		f, err := ParseFO(src)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = letterEntry{sentence: fo.Prepare(f)}
	}
	return out
}

// generatedLetters are the benchmark's letter shapes: every variable is
// generated by a conjunctive atom.
var generatedLetters = []string{
	`exists n,p,s,ph. pre Mobile#(n,p,s,ph)`,
	`exists n. bind AcM1(n)`,
	`exists x. post R0(x)`,
	`exists a,b. pre Email(a,b)`,
	`exists a,b. post Email(a,b) & a != b`,
}

// fallbackLetters each have a variable no conjunctive atom generates.
var fallbackLetters = []string{
	`exists x. (pre R0(x) | post R0(x))`,
	`exists x. x != 7`,
}

// domainCounter counts Domain calls on the transition structure it wraps.
type domainCounter struct {
	fo.Structure
	calls int
}

func (d *domainCounter) Domain() []instance.Value {
	d.calls++
	return d.Structure.Domain()
}

// TestEvalLetterMaskDomainWork: the hot path builds no quantification
// domain for generated letters, and exactly one per transition however
// many letters need one. The masks match one-at-a-time evaluation.
func TestEvalLetterMaskDomainWork(t *testing.T) {
	s := letterSchema(t)
	ts := letterTransitions(t, s)
	for _, tc := range []struct {
		name    string
		letters []string
		domains int
	}{
		{"generated", generatedLetters, 0},
		{"fallback", append(append([]string(nil), generatedLetters...), fallbackLetters...), 1},
	} {
		letters := prepareLetters(t, tc.letters...)
		for i, tr := range ts {
			for _, voc := range []Vocabulary{FullAcc, ZeroAcc} {
				st := &domainCounter{Structure: structureOf(tr, voc)}
				mask, err := evalLetterMask(letters, st)
				if err != nil {
					t.Fatal(err)
				}
				if st.calls != tc.domains {
					t.Errorf("%s letters, transition %d, vocabulary %d: %d Domain calls, want %d", tc.name, i, voc, st.calls, tc.domains)
				}
				for j, e := range letters {
					want, err := fo.Eval(e.sentence.Formula(), structureOf(tr, voc))
					if err != nil {
						t.Fatal(err)
					}
					if got := mask&(1<<uint(j)) != 0; got != want {
						t.Errorf("%s, transition %d: mask bit %d = %v, direct Eval = %v", tc.letters[j], i, j, got, want)
					}
				}
			}
		}
	}
}

// TestEvalLetterAllocs is the allocation-regression guard for letter
// evaluation on an all-generated transition. Rebuilding the quantification
// domain for every letter cost about 55 allocations a letter here; now the
// only allocations are the structure wrappers and one tuple listing per
// predicate. The budget fails if per-letter domain builds, per-call
// evaluator state or membership probes come back.
func TestEvalLetterAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops evaluator state at random")
	}
	s := letterSchema(t)
	ts := letterTransitions(t, s)
	letters := prepareLetters(t, generatedLetters...)
	last := ts[len(ts)-1]
	avg := testing.AllocsPerRun(200, func() {
		if _, err := evalLetterMask(letters, structureOf(last, FullAcc)); err != nil {
			t.Fatal(err)
		}
	})
	perLetter := avg / float64(len(letters))
	t.Logf("%.1f allocs per transition, %.2f per letter", avg, perLetter)
	const maxPerLetter = 2
	if perLetter > maxPerLetter {
		t.Errorf("letter evaluation allocates %.2f per letter (budget %d)", perLetter, maxPerLetter)
	}
}
