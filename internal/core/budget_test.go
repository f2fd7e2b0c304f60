package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/ciphers/sha256"
	"repro/internal/ciphers/simon"
)

// A near-zero time budget must stop the loop quickly with a Processed
// status rather than running to the fixed point.
func TestTimeBudgetExpiry(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := simon.GenerateInstance(simon.Params{NPlaintexts: 8, Rounds: 8}, rng)
	cfg := DefaultConfig()
	cfg.TimeBudget = time.Millisecond
	cfg.StopOnSolution = true
	start := time.Now()
	res := Process(inst.Sys, cfg)
	if time.Since(start) > 30*time.Second {
		t.Fatal("time budget grossly overrun")
	}
	// With ~1ms the loop cannot finish its phases; whatever status comes
	// back, the result must be internally consistent.
	if res.Status == SolvedSAT && !VerifySolution(inst.Sys, res.Solution) {
		t.Fatal("invalid solution under time pressure")
	}
}

// TimeBudget is a deadline on the run's context, so it stops a SAT step in
// the middle of its conflict budget too. On a Bitcoin-[12] instance (the
// first one `anfgen -family bitcoin -k 12 -rounds 16 -seed 7` writes) the
// first SAT step alone runs for seconds; with a 200 ms budget Process must
// return within twice that (slack for a slow host), and must not report
// the budget as a caller interruption.
func TestTimeBudgetStopsSATStep(t *testing.T) {
	inst := sha256.GenerateBitcoin(sha256.BitcoinParams{K: 12, Rounds: 16}, rand.New(rand.NewSource(7)))
	cfg := DefaultConfig()
	const budget = 200 * time.Millisecond
	cfg.TimeBudget = budget
	start := time.Now()
	res := Process(inst.Sys, cfg)
	elapsed := time.Since(start)
	if res.Interrupted {
		t.Fatal("running out of TimeBudget reported as Interrupted")
	}
	if res.Status == SolvedSAT && !VerifySolution(inst.Sys, res.Solution) {
		t.Fatal("invalid solution under time pressure")
	}
	if raceEnabled {
		return // the race detector's slowdown makes the wall-clock bound meaningless
	}
	if elapsed > 2*budget {
		t.Fatalf("Process took %v with a %v TimeBudget (bound %v)", elapsed, budget, 2*budget)
	}
}

func TestMaxIterationsCap(t *testing.T) {
	sys := sysFrom(t, "x0*x1 + x2\nx1*x2 + x0\n")
	cfg := DefaultConfig()
	cfg.MaxIterations = 2
	cfg.StopOnSolution = false
	cfg.DisableSAT = true // keep it from solving outright
	res := Process(sys, cfg)
	if res.Iterations > 2 {
		t.Fatalf("iterations = %d, cap was 2", res.Iterations)
	}
}

func TestConflictBudgetEscalation(t *testing.T) {
	// With StopOnSolution off and a tiny starting budget, the budget must
	// escalate (visible through the log).
	rng := rand.New(rand.NewSource(3))
	inst := simon.GenerateInstance(simon.Params{NPlaintexts: 2, Rounds: 5}, rng)
	var log bytes.Buffer
	cfg := DefaultConfig()
	cfg.StopOnSolution = false
	cfg.ConflictBudget = 1
	cfg.ConflictBudgetStep = 1
	cfg.ConflictBudgetMax = 3
	cfg.MaxIterations = 6
	cfg.Log = &log
	res := Process(inst.Sys, cfg)
	if res.SAT.Runs == 0 {
		t.Fatal("SAT step never ran")
	}
	if log.Len() == 0 {
		t.Fatal("no log output")
	}
}

func TestOutputANFCarriesEquivalences(t *testing.T) {
	sys := sysFrom(t, "x0 + x1\nx2 + 1\nx0*x3 + x3\n")
	cfg := DefaultConfig()
	cfg.StopOnSolution = false
	cfg.MaxIterations = 1
	res := Process(sys, cfg)
	out := res.OutputANF()
	// The output must contain the equivalence x0 ⊕ x1 and the unit x2 ⊕ 1
	// as fact polynomials.
	foundEq, foundUnit := false, false
	for _, p := range out.Polys() {
		switch p.String() {
		case "x0 + x1":
			foundEq = true
		case "x2 + 1":
			foundUnit = true
		}
	}
	if !foundEq || !foundUnit {
		t.Fatalf("output ANF missing facts: %v", out.Polys())
	}
}

func TestResultSummary(t *testing.T) {
	sys := sysFrom(t, paperExample)
	res := Process(sys, DefaultConfig())
	s := res.Summary()
	for _, want := range []string{"iteration", "xl=", "propagation="} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q: %s", want, s)
		}
	}
}
