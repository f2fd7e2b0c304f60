package main

import (
	"fmt"
	"os"
	"time"
)

// guarded is one input run twice: as shipped and untraced, then through
// the traced loop.
type guarded struct {
	failure    string // a wrong answer from either run
	mismatch   string // how the traced loop departed from the engine
	untracedNs int64
	tracedNs   int64 // the root span less its extra spans
}

// runGuarded is the traced-loop equivalence guard: the traced loop must
// reproduce the engine's status, iteration count, per-phase new-fact
// counts and solution on every input, or the run is not correct.
func runGuarded(t *tracer, in input, p pipeline, rootName string) guarded {
	start := time.Now()
	ref, refV := solveInput(nil, nil, in, p)
	untraced := time.Since(start)

	root := t.begin(nil, rootName)
	root.Input = in.name
	got, v := solveInput(t, root, in, p)
	t.end(root)
	root.Iterations = got.Iterations

	g := guarded{untracedNs: untraced.Nanoseconds(), tracedNs: root.Dur - extraNs(t.spans[root.ID:])}
	switch {
	case refV.failure != "":
		g.failure = refV.failure
	case v.failure != "":
		g.failure = v.failure
	default:
		if d := ref.diff(got); d != "" {
			g.mismatch = in.name + ": " + d
		}
	}
	return g
}

func extraNs(spans []*span) int64 {
	var ns int64
	for _, s := range spans {
		if s.Extra {
			ns += s.Dur
		}
	}
	return ns
}

// traceTotals sums the guarded runs of a traced run.
type traceTotals struct {
	instances  int
	mismatches int
	untracedNs int64
	tracedNs   int64
}

func (tot *traceTotals) add(rep *report, g guarded) {
	rep.Attempted++
	tot.instances++
	tot.untracedNs += g.untracedNs
	tot.tracedNs += g.tracedNs
	if g.failure != "" {
		rep.Failed++
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", g.failure)
	}
	if g.mismatch != "" {
		tot.mismatches++
		rep.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: GUARD traced loop differs from core.Process:", g.mismatch)
	}
}

// layerAgg sums the spans of one layer.
type layerAgg struct {
	ns, alloc  float64
	facts, new int
	conflicts  uint64
	clauses    int
	calls      int
}

// setLayerMetrics reports per-layer self time, allocations and counts
// from the spans of a traced run, per traced instance, plus each layer's
// share of the traced total and the tracing overhead.
func setLayerMetrics(rep *report, spans []*span, tot traceTotals) {
	by := map[string]*layerAgg{}
	childNs := map[int]int64{}
	iterations := 0
	for _, s := range spans {
		a := by[s.Name]
		if a == nil {
			a = &layerAgg{}
			by[s.Name] = a
		}
		a.ns += float64(s.Dur)
		a.alloc += float64(s.Alloc)
		a.facts += s.Facts
		a.new += s.New
		a.conflicts += s.Conflicts
		a.clauses += s.Clauses
		a.calls++
		if s.Parent != 0 {
			childNs[s.Parent] += s.Dur
		}
		iterations += s.Iterations
	}
	get := func(name string) *layerAgg {
		if a := by[name]; a != nil {
			return a
		}
		return &layerAgg{}
	}
	var loopNs float64 // root self time: the loop's own glue and the checks
	for _, s := range spans {
		if s.Parent == 0 {
			loopNs += float64(s.Dur - childNs[s.ID])
		}
	}

	n := float64(max(tot.instances, 1))
	total := float64(max(tot.tracedNs, 1))
	ms := func(ns float64) float64 { return ns / 1e6 / n }
	mb := func(b float64) float64 { return b / (1 << 20) / n }
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}

	parse, cparse, c2a := get("anf.parse"), get("cnf.parse"), get("conv.cnf2anf")
	prop, xl, el := get("core.propagate"), get("core.xl"), get("core.elimlin")
	step, a2c := get("core.satstep"), get("conv.anf2cnf")
	output, final := get("core.output"), get("sat.final")
	stepSelf := step.ns - a2c.ns

	rep.set("anf.parse_ms", ms(parse.ns), "ms")
	rep.set("cnf.parse_ms", ms(cparse.ns), "ms")
	rep.set("conv.cnf2anf_ms", ms(c2a.ns), "ms")
	rep.set("core.propagate_ms", ms(prop.ns), "ms")
	rep.set("core.propagate_facts", float64(prop.facts)/n, "count")
	rep.set("core.xl_ms", ms(xl.ns), "ms")
	rep.set("core.xl_alloc_mb", mb(xl.alloc), "MB")
	rep.set("core.xl_new_ratio", ratio(xl.new, xl.facts), "ratio")
	rep.set("core.elimlin_ms", ms(el.ns), "ms")
	rep.set("core.elimlin_alloc_mb", mb(el.alloc), "MB")
	rep.set("core.elimlin_new_ratio", ratio(el.new, el.facts), "ratio")
	rep.set("core.satstep_ms", ms(step.ns), "ms")
	rep.set("core.satstep_alloc_mb", mb(step.alloc), "MB")
	rep.set("core.satstep_harvested", float64(step.facts)/n, "count")
	rep.set("core.satstep_new_ratio", ratio(step.new, step.facts), "ratio")
	rep.set("sat.conflicts", float64(step.conflicts)/n, "count")
	rep.set("conv.anf2cnf_ms", ms(a2c.ns), "ms")
	rep.set("conv.cnf_clauses", float64(a2c.clauses)/float64(max(a2c.calls, 1)), "count")
	rep.set("core.output_ms", ms(output.ns), "ms")
	rep.set("sat.final_ms", ms(final.ns), "ms")
	rep.set("sat.final_calls", float64(final.calls), "count")
	rep.set("core.iterations", float64(iterations)/n, "count")
	rep.set("loop.self_ms", ms(loopNs), "ms")

	rep.set("share.parse", (parse.ns+cparse.ns)/total, "ratio")
	rep.set("share.cnf2anf", c2a.ns/total, "ratio")
	rep.set("share.propagate", prop.ns/total, "ratio")
	rep.set("share.xl", xl.ns/total, "ratio")
	rep.set("share.elimlin", el.ns/total, "ratio")
	rep.set("share.anf2cnf", a2c.ns/total, "ratio")
	rep.set("share.satstep_self", stepSelf/total, "ratio")
	rep.set("share.output", output.ns/total, "ratio")
	rep.set("share.final", final.ns/total, "ratio")
	rep.set("share.loop", loopNs/total, "ratio")

	rep.set("trace.instances", float64(tot.instances), "count")
	rep.set("trace.guard_mismatches", float64(tot.mismatches), "count")
	rep.set("trace.overhead_ms", float64(tot.tracedNs-tot.untracedNs)/1e6/n, "ms")
	rep.set("trace.overhead_ratio", float64(tot.tracedNs)/float64(max(tot.untracedNs, 1))-1, "ratio")
}
