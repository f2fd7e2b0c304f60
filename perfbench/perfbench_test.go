package main

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/satgen"
)

// TestGuardReproducesEngine runs the equivalence guard on a few instances
// of every family the benchmark uses: the traced loop must match
// core.Process (and, on the batch pipeline, the facade) exactly.
func TestGuardReproducesEngine(t *testing.T) {
	simon, err := simonInputs(3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	bitcoin, err := bitcoinInputs(3, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	daemon, err := daemonInputs(3, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		p      pipeline
		inputs []input
	}{
		{batchPipeline, simon[:2]},
		{batchPipeline, bitcoin[:1]},
		{jobPipeline, daemon[:12]},
	}
	tr := newTracer()
	for _, c := range cases {
		for _, in := range c.inputs {
			g := runGuarded(tr, in, c.p, "instance")
			if g.failure != "" {
				t.Errorf("%s: %s", in.name, g.failure)
			}
			if g.mismatch != "" {
				t.Errorf("guard: %s", g.mismatch)
			}
		}
	}
	seen := map[string]bool{}
	for _, s := range tr.spans {
		seen[s.Name] = true
	}
	for _, name := range []string{"anf.parse", "cnf.parse", "conv.cnf2anf", "core.propagate", "core.xl",
		"core.elimlin", "core.satstep", "conv.anf2cnf", "core.output"} {
		if !seen[name] {
			t.Errorf("no %s span recorded", name)
		}
	}
}

// TestSeededInputs: one seed gives byte-identical inputs twice, another
// seed gives different ones.
func TestSeededInputs(t *testing.T) {
	for name, w := range workloads {
		a, err := w.setup(5, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.setup(5, time.Second)
		c, _ := w.setup(6, time.Second)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 5 gave different inputs on a second call", name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 5 and 6 gave the same inputs", name)
		}
	}
}

// TestProgramSeesOnlyText: an input is text plus what the checks need;
// it holds no generator object the program could read instead, and the
// program's answer does not depend on the name or truth.
func TestProgramSeesOnlyText(t *testing.T) {
	typ := reflect.TypeOf(input{})
	for i := 0; i < typ.NumField(); i++ {
		if k := typ.Field(i).Type.Kind(); k != reflect.String && k != reflect.Int {
			t.Errorf("input.%s is a %v; inputs must be serialized", typ.Field(i).Name, k)
		}
	}
	daemon, err := daemonInputs(4, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range daemon[:4] {
		want, _ := solveInput(nil, nil, in, jobPipeline)
		got, _ := solveInput(nil, nil, input{format: in.format, text: in.text}, jobPipeline)
		if d := want.diff(got); d != "" {
			t.Errorf("%s: answer depends on more than the text: %s", in.name, d)
		}
	}
}

// TestCheckAnswerRejectsWrongAnswers: a model that breaks the input and
// an UNSAT verdict on a planted-SAT instance are both failures.
func TestCheckAnswerRejectsWrongAnswers(t *testing.T) {
	inputs, err := simonInputs(7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	in := inputs[0]
	out, v := solveInput(nil, nil, in, batchPipeline)
	if v.failure != "" || v.status != "SAT" {
		t.Fatalf("%s: want a checked SAT answer, got %+v", in.name, v)
	}
	sys, _, err := parseInput(nil, nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if f := checkAnswer(in, sys, nil, "UNSAT", nil); f == "" {
		t.Error("UNSAT on a planted-SAT instance passed the check")
	}
	bad := append([]bool(nil), out.Solution...)
	broken := false
	for i := range bad {
		bad[i] = !bad[i]
		if checkAnswer(in, sys, nil, "SAT", bad) != "" {
			broken = true
			break
		}
		bad[i] = !bad[i]
	}
	if !broken {
		t.Error("no single flipped bit of the model was caught")
	}
	unsat := input{name: "php", format: "dimacs", truth: satgen.StatusUnsat}
	if f := checkAnswer(unsat, nil, nil, "UNSAT", nil); f != "" {
		t.Errorf("UNSAT on a known-UNSAT instance failed the check: %s", f)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct{ n, want int }{{5, 50}, {25, 60}, {100, 90}, {200, 95}, {5000, 99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", c.n, got, c.want)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if q := quantile(xs, 0.5); q != 3 {
		t.Errorf("median = %v, want 3", q)
	}
}
