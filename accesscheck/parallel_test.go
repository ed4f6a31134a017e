package accesscheck_test

import (
	"context"
	"runtime"
	"testing"

	"accltl/accesscheck"
)

var parRelations = []string{
	"Mobile#:string,string,string,int",
	"Address:string,string,string,int",
}

var parMethods = []string{
	"AcM1:Mobile#:0",
	"AcM2:Address:0,1",
}

const (
	parSatFormula   = `(![exists n,p,s,ph. pre Mobile#(n,p,s,ph)]) U [exists n. bind AcM1(n)]`
	parUnsatFormula = `[exists n,p,s,ph. pre Mobile#(n,p,s,ph)] & (![exists n,p,s,ph. pre Mobile#(n,p,s,ph)])`
)

func TestWithParallelismValidation(t *testing.T) {
	if _, err := accesscheck.NewChecker(accesscheck.WithParallelism(-1)); err == nil {
		t.Error("negative parallelism accepted")
	}
	for _, n := range []int{0, 1, 8} {
		if _, err := accesscheck.NewChecker(accesscheck.WithParallelism(n)); err != nil {
			t.Errorf("WithParallelism(%d) rejected: %v", n, err)
		}
	}
}

// TestCheckParallelMatchesSerialVerdicts: the facade-level slice of the
// engine equivalence — serial and parallel checkers agree on both verdicts,
// and parallel witnesses satisfy the formula under the direct semantics.
func TestCheckParallelMatchesSerialVerdicts(t *testing.T) {
	sch, err := accesscheck.ParseSchema(parRelations, parMethods)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"sat": parSatFormula, "unsat": parUnsatFormula} {
		f, err := accesscheck.ParseFormula(src)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := accesscheck.Check(context.Background(), sch, f)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, w := range []int{2, 4} {
			par, err := accesscheck.Check(context.Background(), sch, f, accesscheck.WithParallelism(w))
			if err != nil {
				t.Fatalf("%s w=%d: %v", name, w, err)
			}
			if par.Satisfiable != serial.Satisfiable && !par.Truncated && !serial.Truncated {
				t.Errorf("%s w=%d: verdict %v, serial %v", name, w, par.Satisfiable, serial.Satisfiable)
			}
			if par.Satisfiable {
				ok, err := accesscheck.Holds(f, par.Witness)
				if err != nil || !ok {
					t.Errorf("%s w=%d: witness rejected by direct semantics: %v %v", name, w, ok, err)
				}
			}
		}
	}
}

// TestFingerprintIgnoresParallelism pins the documented cache-identity
// rule: parallelism is an execution strategy, so checkers differing only in
// it must collapse onto one cache entry.
func TestFingerprintIgnoresParallelism(t *testing.T) {
	sch, err := accesscheck.ParseSchema(parRelations, parMethods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(parSatFormula)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := accesscheck.NewChecker()
	if err != nil {
		t.Fatal(err)
	}
	par, err := accesscheck.NewChecker(accesscheck.WithParallelism(8))
	if err != nil {
		t.Fatal(err)
	}
	if serial.Fingerprint(sch, f) != par.Fingerprint(sch, f) {
		t.Error("Fingerprint differs across parallelism")
	}
	other, err := accesscheck.NewChecker(accesscheck.WithParallelism(8), accesscheck.WithGrounded())
	if err != nil {
		t.Fatal(err)
	}
	if par.Fingerprint(sch, f) == other.Fingerprint(sch, f) {
		t.Error("Fingerprint must still separate real option differences")
	}
}

// TestWithParallelismZeroMeansGOMAXPROCS: the auto value must produce a
// working checker whatever the machine's shape.
func TestWithParallelismZeroMeansGOMAXPROCS(t *testing.T) {
	sch, err := accesscheck.ParseSchema(parRelations, parMethods)
	if err != nil {
		t.Fatal(err)
	}
	f, err := accesscheck.ParseFormula(parSatFormula)
	if err != nil {
		t.Fatal(err)
	}
	res, err := accesscheck.Check(context.Background(), sch, f, accesscheck.WithParallelism(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Satisfiable {
		t.Errorf("auto parallelism (GOMAXPROCS=%d) changed the verdict: %+v", runtime.GOMAXPROCS(0), res)
	}
}

// TestCheckAnytimeShardedAgreesWithCheck: on one checker at the default
// parallelism, Check and a single uninterrupted CheckAnytime round run the
// same search, so they must return the same verdict, the same witness and
// the same honesty flags.
func TestCheckAnytimeShardedAgreesWithCheck(t *testing.T) {
	sch, err := accesscheck.ParseSchema(parRelations, parMethods)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, src string
		opts      []accesscheck.Option
	}{
		{"sat", parSatFormula, nil},
		{"unsat", parUnsatFormula, nil},
		{"sat/automaton", parSatFormula, []accesscheck.Option{accesscheck.WithEngine(accesscheck.EngineAutomaton)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := accesscheck.ParseFormula(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			chk, err := accesscheck.NewChecker(tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := chk.Check(context.Background(), sch, f)
			if err != nil {
				t.Fatal(err)
			}
			anytime, _, err := chk.CheckAnytime(context.Background(), sch, f, nil)
			if err != nil {
				t.Fatal(err)
			}
			witness := func(r *accesscheck.Result) string {
				if r.Witness == nil {
					return ""
				}
				return r.Witness.String()
			}
			if plain.Satisfiable != anytime.Satisfiable || witness(plain) != witness(anytime) ||
				plain.Truncated != anytime.Truncated || plain.ResponsesCapped != anytime.ResponsesCapped {
				t.Errorf("Check: sat=%v witness %q trunc=%v caps=%v; CheckAnytime: sat=%v witness %q trunc=%v caps=%v",
					plain.Satisfiable, witness(plain), plain.Truncated, plain.ResponsesCapped,
					anytime.Satisfiable, witness(anytime), anytime.Truncated, anytime.ResponsesCapped)
			}
		})
	}
}
