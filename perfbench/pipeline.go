package main

import (
	"fmt"
	"slices"
	"strings"

	"repro"
	"repro/internal/anf"
	"repro/internal/cnf"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/sat"
	"repro/internal/satgen"
)

// finalConflicts caps the final CDCL solve so every run ends; an instance
// it leaves open counts as undecided, not as failed.
const finalConflicts = 1_000_000

// outcome is what the equivalence guard compares between core.Process
// (or the facade) and the traced loop.
type outcome struct {
	Status                      string
	Iterations                  int
	XL, ElimLin, SAT, Propagate int
	Solution                    []bool
}

func facadeOutcome(r *bosphorus.Result) outcome {
	return outcome{
		Status: r.Status.String(), Iterations: r.Iterations,
		XL: r.FactsXL, ElimLin: r.FactsElimLin, SAT: r.FactsSAT, Propagate: r.FactsPropagation,
		Solution: r.Solution,
	}
}

func coreOutcome(r *core.Result) outcome {
	return outcome{
		Status: r.Status.String(), Iterations: r.Iterations,
		XL: r.XL.NewFacts, ElimLin: r.ElimLin.NewFacts, SAT: r.SAT.NewFacts,
		Propagate: r.PropagationFacts, Solution: r.Solution,
	}
}

// diff describes how b departs from a, or returns "".
func (a outcome) diff(b outcome) string {
	if a.Status != b.Status || a.Iterations != b.Iterations || a.XL != b.XL ||
		a.ElimLin != b.ElimLin || a.SAT != b.SAT || a.Propagate != b.Propagate {
		return fmt.Sprintf("engine %+v, traced loop %+v", a.withoutSolution(), b.withoutSolution())
	}
	if !slices.Equal(a.Solution, b.Solution) {
		return "the traced loop found a different solution"
	}
	return ""
}

func (a outcome) withoutSolution() outcome {
	a.Solution = nil
	return a
}

// verdict is the checked answer for one instance or job.
type verdict struct {
	status  string // SAT, UNSAT, PROCESSED, or UNKNOWN when the final solve hit its cap
	failure string // why the answer is wrong; "" when it checks out
}

func (v verdict) decided() bool {
	return v.failure == "" && (v.status == "SAT" || v.status == "UNSAT")
}

// pipeline selects what runs after parsing.
type pipeline int

const (
	// batchPipeline is the facade's Solve (loop, then its ANF and CNF
	// output) followed by a final CDCL solve of the CNF when the loop
	// ends without a verdict.
	batchPipeline pipeline = iota
	// jobPipeline is what a bosphorusd solve job runs: core.Process, then
	// the processed ANF rendered as text.
	jobPipeline
)

// solveInput runs one input from text to a checked verdict. With a nil
// tracer it runs the program as shipped (the facade or core.Process);
// with a tracer it runs tracedProcess and records a span per layer call
// under parent. A panic is reported as a failure.
func solveInput(t *tracer, parent *span, in input, p pipeline) (out outcome, v verdict) {
	defer func() {
		if r := recover(); r != nil {
			v = verdict{status: "PANIC", failure: fmt.Sprint("panic: ", r)}
		}
	}()
	sys, f, err := parseInput(t, parent, in)
	if err != nil {
		return out, verdict{status: "ERROR", failure: err.Error()}
	}
	cfg := core.DefaultConfig()
	var outCNF *cnf.Formula
	if t == nil && p == batchPipeline {
		r := bosphorus.Solve(sys, bosphorus.DefaultOptions())
		out, outCNF = facadeOutcome(r), r.CNF
	} else {
		var res *core.Result
		if t == nil {
			res = core.Process(sys, cfg)
		} else {
			res = tracedProcess(t, parent, sys, cfg)
		}
		out = coreOutcome(res)
		t.do(parent, "core.output", func(*span) {
			if p == jobPipeline {
				var b strings.Builder
				_ = anf.WriteSystem(&b, res.OutputANF()) // a strings.Builder never fails
				return
			}
			_ = res.OutputANF()
			outCNF, _ = res.OutputCNF(cfg.Conv)
		})
	}
	status, solution := out.Status, out.Solution
	if p == batchPipeline && status == "PROCESSED" {
		t.do(parent, "sat.final", func(*span) {
			s := sat.New(sat.DefaultOptions(sat.ProfileCMS))
			st := sat.Unsat
			if s.AddFormula(outCNF) {
				st = s.SolveLimited(finalConflicts)
			}
			switch st {
			case sat.Sat:
				status, solution = "SAT", s.Model()
			case sat.Unsat:
				status = "UNSAT"
			default:
				status = "UNKNOWN"
			}
		})
	}
	return out, verdict{status: status, failure: checkAnswer(in, sys, f, status, solution)}
}

// parseInput reads the input text; DIMACS input is also translated to ANF
// the way bosphorusd does.
func parseInput(t *tracer, parent *span, in input) (*anf.System, *cnf.Formula, error) {
	var (
		sys *anf.System
		f   *cnf.Formula
		err error
	)
	if in.format == "anf" {
		t.do(parent, "anf.parse", func(*span) { sys, err = anf.ReadSystem(strings.NewReader(in.text)) })
		return sys, nil, err
	}
	t.do(parent, "cnf.parse", func(*span) { f, err = cnf.ReadDimacs(strings.NewReader(in.text)) })
	if err != nil {
		return nil, nil, err
	}
	t.do(parent, "conv.cnf2anf", func(*span) { sys = conv.CNFToANF(f, conv.DefaultOptions()) })
	return sys, f, nil
}

// checkAnswer judges an answer against the original input: a model must
// satisfy it (Formula.Eval for DIMACS, VerifyANF for ANF), and UNSAT must
// not contradict the generator's truth. It returns "" when the answer
// holds. PROCESSED and UNKNOWN make no claim and always hold.
func checkAnswer(in input, sys *anf.System, f *cnf.Formula, status string, solution []bool) string {
	switch status {
	case "SAT":
		ok := false
		if f != nil {
			ok = f.Eval(func(v cnf.Var) bool { return int(v) < len(solution) && solution[v] })
		} else {
			ok = bosphorus.VerifyANF(sys, solution)
		}
		if !ok {
			return in.name + ": the model does not satisfy the input"
		}
	case "UNSAT":
		if in.truth == satgen.StatusSat {
			return in.name + ": UNSAT on a satisfiable instance"
		}
	case "PROCESSED", "UNKNOWN":
	default:
		return in.name + ": unexpected status " + status
	}
	return ""
}
