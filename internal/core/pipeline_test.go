package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/anf"
	"repro/internal/ciphers/simon"
	"repro/internal/ciphers/sr"
)

func TestDeriveSeedDecorrelated(t *testing.T) {
	seen := map[int64]bool{}
	for iter := 0; iter < 8; iter++ {
		for job := 0; job < 8; job++ {
			s := deriveSeed(42, iter, job)
			if seen[s] {
				t.Fatalf("seed collision at iter=%d job=%d", iter, job)
			}
			seen[s] = true
		}
	}
	if deriveSeed(42, 3, 2) != deriveSeed(42, 3, 2) {
		t.Fatal("deriveSeed not a pure function")
	}
}

// resultFingerprint renders everything about a Result that the pipeline
// promises to keep Workers-independent.
func resultFingerprint(t *testing.T, r *Result) string {
	t.Helper()
	s := r.Status.String()
	s += "|" + r.State.String()
	for _, p := range r.System.Polys() {
		s += "|" + p.String()
	}
	for _, b := range r.Solution {
		if b {
			s += "1"
		} else {
			s += "0"
		}
	}
	return s
}

// TestProcessWorkersBitIdentical is the tentpole determinism contract: with
// the snapshot pipeline enabled, the entire Result — verdict, solution,
// learnt-fact counts, final system and variable state — must be bit-identical
// for every Workers value ≥ 1.
func TestProcessWorkersBitIdentical(t *testing.T) {
	instances := []*anf.System{
		simon.GenerateInstance(simon.Params{NPlaintexts: 2, Rounds: 5},
			rand.New(rand.NewSource(77))).Sys,
		sr.GenerateInstance(sr.Params{N: 1, R: 1, C: 2, E: 4},
			rand.New(rand.NewSource(5))).Sys,
	}
	for i, sys := range instances {
		cfg := DefaultConfig()
		cfg.Seed = 9
		cfg.EnableGroebner = true
		cfg.Workers = 1
		base := Process(sys, cfg)
		want := resultFingerprint(t, base)
		for _, w := range []int{2, 4} {
			cfg.Workers = w
			got := Process(sys, cfg)
			if base.Status != got.Status || base.Iterations != got.Iterations {
				t.Fatalf("instance %d: Workers=1 gave %v/%d, Workers=%d gave %v/%d",
					i, base.Status, base.Iterations, w, got.Status, got.Iterations)
			}
			if base.XL != got.XL || base.ElimLin != got.ElimLin ||
				base.SAT != got.SAT || base.Groebner != got.Groebner ||
				base.Extra != got.Extra ||
				base.PropagationFacts != got.PropagationFacts {
				t.Fatalf("instance %d: phase stats differ between Workers=1 and Workers=%d", i, w)
			}
			if fp := resultFingerprint(t, got); fp != want {
				t.Fatalf("instance %d: result fingerprint differs between Workers=1 and Workers=%d", i, w)
			}
		}
	}
}

// TestProcessWorkersSolves checks the snapshot pipeline still recovers the
// key, i.e. parallelism does not cost solving power on the standard cases.
func TestProcessWorkersSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inst := sr.GenerateInstance(sr.Params{N: 1, R: 1, C: 2, E: 4}, rng)
	cfg := DefaultConfig()
	cfg.Workers = 4
	res := Process(inst.Sys, cfg)
	if res.Status != SolvedSAT {
		t.Fatalf("status %v, want SAT", res.Status)
	}
	if !VerifySolution(inst.Sys, res.Solution) {
		t.Fatal("solution does not satisfy the system")
	}
}

// TestOccIndexConsistent runs randomized ElimLin rounds through the
// occurrence index and, after every substitution, checks each variable's
// count and live list against a naive recount over rest. Alongside, it
// replays the round the way the rescan loop did — count by ContainsVar,
// substitute into every polynomial — and requires the same picks and the
// same polynomials.
func TestOccIndexConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	randPoly := func(nvars int) anf.Poly {
		p := anf.Zero()
		for k := 0; k < 1+rng.Intn(10); k++ {
			vs := make([]anf.Var, rng.Intn(4))
			for j := range vs {
				vs[j] = anf.Var(rng.Intn(nvars))
			}
			p = p.Add(anf.FromMonomials(anf.NewMonomial(vs...)))
		}
		return p
	}
	naivePick := func(vs []anf.Var, rest []anf.Poly) anf.Var {
		best, bestCount := vs[0], int(^uint(0)>>1)
		for _, v := range vs {
			count := 0
			for _, p := range rest {
				if p.ContainsVar(v) {
					count++
				}
			}
			if count < bestCount {
				best, bestCount = v, count
			}
		}
		return best
	}
	checkIndex := func(trial int, idx *occIndex, rest []anf.Poly) {
		t.Helper()
		for v := range idx.count {
			var want []int32
			for i, p := range rest {
				if p.ContainsVar(anf.Var(v)) {
					want = append(want, int32(i))
				}
			}
			if int(idx.count[v]) != len(want) {
				t.Fatalf("trial %d: count[x%d]=%d, recount %d", trial, v, idx.count[v], len(want))
			}
			var live []int32
			for _, i := range idx.occ[v] {
				if rest[i].ContainsVar(anf.Var(v)) && !slices.Contains(live, i) {
					live = append(live, i)
				}
			}
			slices.Sort(live)
			if !slices.Equal(live, want) {
				t.Fatalf("trial %d: live occ[x%d]=%v, recount %v", trial, v, live, want)
			}
		}
		for i, p := range rest {
			if !slices.Equal(idx.vars[i], p.Vars()) {
				t.Fatalf("trial %d: vars[%d]=%v, polynomial has %v", trial, i, idx.vars[i], p.Vars())
			}
		}
	}
	var idx occIndex // reused across trials, as across rounds
	subs := 0
	for trial := 0; trial < 300; trial++ {
		nvars := 3 + rng.Intn(12)
		work := make([]anf.Poly, 2+rng.Intn(40))
		for i := range work {
			work[i] = randPoly(nvars)
		}
		for round := 0; round < 8; round++ {
			var linear, rest []anf.Poly
			reduced, _ := gjeRows(work, false)
			for _, p := range reduced {
				switch {
				case p.IsZero() || p.IsOne():
				case p.IsLinear():
					linear = append(linear, p)
				default:
					rest = append(rest, p)
				}
			}
			if len(linear) == 0 {
				break
			}
			naive := slices.Clone(rest)
			idx.build(rest, linear)
			checkIndex(trial, &idx, rest)
			for _, l := range linear {
				vs := l.LinearVars()
				v := idx.pick(vs)
				if want := naivePick(vs, naive); v != want {
					t.Fatalf("trial %d: pick %v, rescan picks %v (vs=%v)", trial, v, want, vs)
				}
				rhs := l.Add(anf.VarPoly(v))
				idx.substitute(rest, v, rhs, nil)
				subs++
				for i, p := range naive {
					naive[i] = p.SubstituteVar(v, rhs)
				}
				checkIndex(trial, &idx, rest)
				for i := range rest {
					if !rest[i].Equal(naive[i]) {
						t.Fatalf("trial %d: rest[%d]=%v, substituting everywhere gives %v", trial, i, rest[i], naive[i])
					}
				}
			}
			work = rest
		}
	}
	if subs < 1000 {
		t.Fatalf("only %d substitutions exercised", subs)
	}
}

// BenchmarkPickElimVar measures the eliminate-variable choice as a round
// pays it: building the occurrence index over rest, then reading the
// counts for one linear equation's variables.
func BenchmarkPickElimVar(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const nvars = 256
	rest := make([]anf.Poly, 400)
	for i := range rest {
		p := anf.Zero()
		for t := 0; t < 6; t++ {
			m := anf.NewMonomial(anf.Var(rng.Intn(nvars)), anf.Var(rng.Intn(nvars)))
			p = p.Add(anf.FromMonomials(m))
		}
		rest[i] = p
	}
	vs := []anf.Var{3, 17, 40, 99, 180, 220}
	var idx occIndex
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.build(rest, nil)
		_ = idx.pick(vs)
	}
}

// BenchmarkProcessWorkers runs the whole loop on the Simon instance under
// the snapshot pipeline — the end-to-end number the -j flag moves.
func BenchmarkProcessWorkers(b *testing.B) {
	sys := simon.GenerateInstance(simon.Params{NPlaintexts: 2, Rounds: 5},
		rand.New(rand.NewSource(77))).Sys
	for _, w := range []int{1, 4} {
		b.Run(map[int]string{1: "w1", 4: "w4"}[w], func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Seed = 9
			cfg.Workers = w
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = Process(sys, cfg)
			}
		})
	}
}
