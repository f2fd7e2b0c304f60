package main

import (
	"context"
	"runtime/metrics"
	"time"

	"repro/internal/anf"
	"repro/internal/conv"
	"repro/internal/core"
	"repro/internal/sat"
)

// span is one timed call into a layer's public function. Spans of one
// instance or job share its root span as Parent.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Input  string `json:"input,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Alloc  uint64 `json:"alloc_bytes"`
	// Counts read at the boundary; which apply depends on Name.
	Facts      int    `json:"facts,omitempty"` // facts the call returned
	New        int    `json:"new,omitempty"`   // of those, new to the master system
	Conflicts  uint64 `json:"conflicts,omitempty"`
	Clauses    int    `json:"clauses,omitempty"`
	Iterations int    `json:"iterations,omitempty"`
	// Extra marks a standalone call made only to time a layer another
	// call runs internally; it is left out of the traced total.
	Extra bool `json:"extra,omitempty"`
}

// tracer keeps spans in memory. A nil *tracer records nothing, so one
// code path serves the untraced and the traced run.
type tracer struct {
	start  time.Time
	spans  []*span
	sample []metrics.Sample
}

func newTracer() *tracer {
	return &tracer{start: time.Now(), sample: []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}}
}

func (t *tracer) allocs() uint64 {
	metrics.Read(t.sample)
	return t.sample[0].Value.Uint64()
}

// begin opens a span under parent (nil for a root).
func (t *tracer) begin(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	s := &span{ID: len(t.spans) + 1, Name: name}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	s.Alloc = t.allocs()
	s.Start = time.Since(t.start).Nanoseconds()
	return s
}

func (t *tracer) end(s *span) {
	if t == nil {
		return
	}
	s.Dur = time.Since(t.start).Nanoseconds() - s.Start
	s.Alloc = t.allocs() - s.Alloc
}

// do runs fn inside a span; fn may fill the span's counts. Untraced, fn
// gets a scratch span.
func (t *tracer) do(parent *span, name string, fn func(s *span)) *span {
	if t == nil {
		s := &span{}
		fn(s)
		return s
	}
	s := t.begin(parent, name)
	fn(s)
	t.end(s)
	return s
}

// tracedProcess is core.Process's default sequential loop (no snapshot
// pipeline, provenance, Gröbner, extra techniques, routing or time budget)
// rebuilt from the layers' public functions, one span per call. It keeps
// Process's order: one RNG shared by XL and ElimLin, the conflict budget
// grows only after a SAT step with no new facts, and the SAT step sees
// the master polynomials plus the state's fact polynomials. Every traced
// run compares it with the engine on each instance (see runGuarded).
func tracedProcess(t *tracer, parent *span, input *anf.System, cfg core.Config) *core.Result {
	ctx := context.Background()
	rng := core.NewRNG(cfg.Seed)
	sys := input.Clone()
	res := &core.Result{System: sys}
	var prop *core.Propagator
	ok := true
	t.do(parent, "core.propagate", func(s *span) {
		prop = core.NewPropagator(sys)
		res.PropagationFacts, ok = prop.Propagate()
		s.Facts = res.PropagationFacts
	})
	res.State = prop.State
	if !ok {
		res.Status = core.SolvedUNSAT
		return res
	}

	budget := cfg.ConflictBudget
	for iter := 0; iter < cfg.MaxIterations; iter++ {
		res.Iterations = iter + 1
		newThisIter := 0
		// merge folds a technique's facts into the master system and
		// propagates, crediting the technique's stats and span.
		merge := func(stats *core.PhaseStats, tech *span, facts []anf.Poly) bool {
			added, ok := 0, true
			t.do(parent, "core.propagate", func(*span) { added, ok = prop.AddFacts(facts) })
			stats.NewFacts += added
			newThisIter += added
			tech.Facts, tech.New = len(facts), added
			return ok
		}

		var facts []anf.Poly
		xl := t.do(parent, "core.xl", func(*span) {
			facts = core.RunXL(sys, core.XLConfig{M: cfg.M, DeltaM: cfg.DeltaM, Deg: cfg.XLDeg, Context: ctx, Rand: rng})
		})
		if !merge(&res.XL, xl, facts) {
			res.Status = core.SolvedUNSAT
			return res
		}
		el := t.do(parent, "core.elimlin", func(*span) {
			facts = core.RunElimLin(sys, core.ElimLinConfig{M: cfg.M, Context: ctx, Rand: rng})
		})
		if !merge(&res.ElimLin, el, facts) {
			res.Status = core.SolvedUNSAT
			return res
		}

		out := res.OutputANF()
		var step *core.SATStepResult
		st := t.do(parent, "core.satstep", func(s *span) {
			step = core.RunSATStep(out, core.SATStepConfig{
				ConflictBudget:   budget,
				Profile:          cfg.Profile,
				Conv:             cfg.Conv,
				Preprocess:       cfg.Preprocess,
				HarvestMonomials: cfg.HarvestMonomials,
				Seed:             cfg.Seed + int64(iter) + 1,
				Context:          ctx,
			})
			s.Conflicts = step.Conflicts
			// A step that ends the run with a model merges nothing: its
			// harvest counts as learnt but not new.
			s.Facts = len(step.Facts)
		})
		// RunSATStep converts internally; time the same conversion once
		// more on its own.
		t.do(parent, "conv.anf2cnf", func(s *span) {
			s.Extra = true
			f, _ := conv.ANFToCNF(out, satStepConv(cfg))
			s.Clauses = len(f.Clauses)
		})
		if step.Status == sat.Sat && cfg.StopOnSolution {
			res.Solution = liftModel(input, prop.State, step.Model)
			res.Status = core.SolvedSAT
			return res
		}
		if !merge(&res.SAT, st, step.Facts) {
			res.Status = core.SolvedUNSAT
			return res
		}
		if st.New == 0 && budget < cfg.ConflictBudgetMax {
			budget = min(budget+cfg.ConflictBudgetStep, cfg.ConflictBudgetMax)
		}
		if sys.HasContradiction() {
			res.Status = core.SolvedUNSAT
			return res
		}
		if newThisIter == 0 {
			break
		}
	}
	res.Status = core.Processed
	return res
}

// satStepConv is the conversion RunSATStep applies: native parity clauses
// unless the CNF-cut baseline is selected on a non-CMS profile.
func satStepConv(cfg core.Config) conv.Options {
	o := cfg.Conv
	if !cfg.NoNativeXor || cfg.Profile == sat.ProfileCMS {
		o.NativeXor = true
	}
	return o
}

// liftModel maps a SAT-step model back to the input's variables through
// the determined values and equivalences, as core.Process does.
func liftModel(input *anf.System, st *core.VarState, model []bool) []bool {
	n := max(input.NumVars(), st.NumVars())
	out := make([]bool, n)
	for v := 0; v < n; v++ {
		if b, ok := st.Value(anf.Var(v)); ok {
			out[v] = b
			continue
		}
		r := st.Find(anf.Var(v))
		if int(r.V) < len(model) {
			out[v] = model[r.V] != r.Neg
		}
	}
	return out
}
