package core

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/anf"
	"repro/internal/ciphers/sha256"
	"repro/internal/ciphers/simon"
	"repro/internal/ciphers/sr"
)

// The plain (provenance-off) ElimLin path has its own golden: the learnt
// lists RunElimLin returns on fixed-seed subsamples of the Table II
// families, captured before the occurrence-indexed substitution loop
// replaced the rescan-per-equation loop. Any change to the picks, the
// substitution or the normal form shows up here as a diff. Regenerate
// only for a deliberate change of the learnt facts, with
//
//	go test ./internal/core -run TestElimLinGolden -update-elimlin-golden

var updateElimLinGolden = flag.Bool("update-elimlin-golden", false,
	"rewrite testdata/elimlin_golden.json from the current RunElimLin")

type elimLinRecord struct {
	Case   string   `json:"case"`
	Learnt []string `json:"learnt"`
}

type namedSystem struct {
	name string
	sys  *anf.System
}

// elimLinGoldenSystems returns each family's instance twice: as generated,
// and after ANF propagation (the state ElimLin sees inside Process).
func elimLinGoldenSystems(t testing.TB) []namedSystem {
	gens := []struct {
		name string
		gen  func() *anf.System
	}{
		{"simon-8-8", func() *anf.System {
			return simon.GenerateInstance(simon.Params{NPlaintexts: 8, Rounds: 8},
				rand.New(rand.NewSource(101))).Sys
		}},
		{"sr-1-2-2-4", func() *anf.System {
			return sr.GenerateInstance(sr.Params{N: 1, R: 2, C: 2, E: 4},
				rand.New(rand.NewSource(102))).Sys
		}},
		{"bitcoin-8-r16", func() *anf.System {
			return sha256.GenerateBitcoin(sha256.BitcoinParams{K: 8, Rounds: 16},
				rand.New(rand.NewSource(103))).Sys
		}},
	}
	var out []namedSystem
	for _, g := range gens {
		prop := g.gen()
		if _, ok := NewPropagator(prop).Propagate(); !ok {
			t.Fatalf("%s: propagation found a contradiction", g.name)
		}
		out = append(out, namedSystem{g.name + "/raw", g.gen()}, namedSystem{g.name + "/propagated", prop})
	}
	return out
}

func TestElimLinGolden(t *testing.T) {
	var got []elimLinRecord
	for _, s := range elimLinGoldenSystems(t) {
		for _, m := range []int{12, 16, 20} {
			for _, seed := range []int64{1, 2} {
				learnt := RunElimLin(s.sys, ElimLinConfig{M: m, Rand: rand.New(rand.NewSource(seed))})
				rec := elimLinRecord{Case: fmt.Sprintf("%s/M%d/seed%d", s.name, m, seed)}
				for _, p := range learnt {
					rec.Learnt = append(rec.Learnt, p.String())
				}
				got = append(got, rec)
			}
		}
	}
	path := filepath.Join("testdata", "elimlin_golden.json")
	if *updateElimLinGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("elimlin golden rewritten: %d records", len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (%v); run with -update-elimlin-golden", err)
	}
	var want []elimLinRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d records, run produced %d", len(want), len(got))
	}
	for i := range want {
		if want[i].Case != got[i].Case {
			t.Fatalf("record %d: golden case %q, run case %q", i, want[i].Case, got[i].Case)
		}
		if len(want[i].Learnt) != len(got[i].Learnt) {
			t.Errorf("%s: %d learnt facts, golden has %d", got[i].Case, len(got[i].Learnt), len(want[i].Learnt))
			continue
		}
		for j := range want[i].Learnt {
			if want[i].Learnt[j] != got[i].Learnt[j] {
				t.Errorf("%s: fact %d is %q, golden has %q", got[i].Case, j, got[i].Learnt[j], want[i].Learnt[j])
				break
			}
		}
	}
}
