package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/anf"
	"repro/internal/ciphers/sha256"
	"repro/internal/ciphers/simon"
	"repro/internal/ciphers/sr"
	"repro/internal/cnf"
	"repro/internal/satgen"
)

// input is one serialized instance. The program under test only ever sees
// text; truth is the generator's ground truth (cipher instances are
// planted SAT).
type input struct {
	name   string
	format string // "anf" or "dimacs"
	text   string
	truth  satgen.Status
}

func anfInput(name string, sys *anf.System) (input, error) {
	var b strings.Builder
	if err := anf.WriteSystem(&b, sys); err != nil {
		return input{}, fmt.Errorf("serialize %s: %w", name, err)
	}
	return input{name: name, format: "anf", text: b.String(), truth: satgen.StatusSat}, nil
}

func dimacsInput(inst *satgen.Instance) (input, error) {
	var b strings.Builder
	if err := cnf.WriteDimacs(&b, inst.Formula); err != nil {
		return input{}, fmt.Errorf("serialize %s: %w", inst.Name, err)
	}
	return input{name: inst.Name, format: "dimacs", text: b.String(), truth: inst.Status}, nil
}

// poolSize is how many distinct instances a closed-loop run gets: enough
// for perSecond instances a second over d. A faster program cycles the
// pool again.
func poolSize(d time.Duration, perSecond float64) int {
	return int(d.Seconds()*perSecond) + 1
}

// Simon-[8,8] key recovery: the Table II quick-scale row where plain CDCL
// times out and the fact-learning loop solves every instance.
var simonParams = simon.Params{NPlaintexts: 8, Rounds: 8}

func simonInputs(seed int64, d time.Duration) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]input, poolSize(d, 7))
	for i := range out {
		in, err := anfInput(fmt.Sprintf("simon-8-8-%03d", i), simon.GenerateInstance(simonParams, rng).Sys)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// Bitcoin-[8] nonce finding at 16 rounds: the SAT step does the work.
var bitcoinParams = sha256.BitcoinParams{K: 8, Rounds: 16}

func bitcoinInputs(seed int64, d time.Duration) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	out := make([]input, poolSize(d, 4))
	for i := range out {
		in, err := anfInput(fmt.Sprintf("bitcoin-8-r16-%03d", i), sha256.GenerateBitcoin(bitcoinParams, rng).Sys)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// The daemon's traffic: one request every 1/daemonRate seconds, open
// loop. Every block of daemonBlock requests has the same mix, shuffled by
// the seed: new SR-[1,2,2,4] and Simon-[4,7] instances as ANF, new
// SAT-2017-substitute instances as DIMACS, repeats of an input sent 20 to
// 100 requests earlier (still in the 128-entry cache, so hits), and one
// repeat of an input last sent at least 180 requests earlier: any 180
// requests in a row hold at least 130 new inputs, so it has left the
// cache and misses. A fixed mix keeps the latency quantiles steady from
// seed to seed. The rate keeps the two workers under 40% busy even when
// the host halves their speed, so queueing does not swamp the tail.
const daemonRate = 8.0

type reqKind int

const (
	newSR reqKind = iota
	newSimon
	newCNF
	nearRepeat
	farRepeat
)

var daemonBlock = []reqKind{
	newSR, newSR, newSR, newSR, newSR, newSR,
	newSimon, newSimon, newSimon, newSimon, newSimon, newSimon,
	newCNF, newCNF, newCNF,
	nearRepeat, nearRepeat, nearRepeat, nearRepeat,
	farRepeat,
}

var (
	srParams      = sr.Params{N: 1, R: 2, C: 2, E: 4}
	smallSimon    = simon.Params{NPlaintexts: 4, Rounds: 7}
	satSuiteShape = satgen.SuiteConfig{Scale: 1, PerFamily: 2}
)

// daemonInputs returns the request schedule: element i is sent at
// i/daemonRate seconds after the start.
func daemonInputs(seed int64, d time.Duration) ([]input, error) {
	rng := rand.New(rand.NewSource(seed))
	n := int(d.Seconds() * daemonRate)
	var (
		sched    []input
		lastSent = map[string]int{}
		cnfQueue []input
		distinct int
	)
	newInput := func(k reqKind) (input, error) {
		distinct++
		switch k {
		case newSR:
			return anfInput(fmt.Sprintf("sr-1-2-2-4-%03d", distinct), sr.GenerateInstance(srParams, rng).Sys)
		case newSimon:
			return anfInput(fmt.Sprintf("simon-4-7-%03d", distinct), simon.GenerateInstance(smallSimon, rng).Sys)
		}
		for len(cnfQueue) == 0 {
			suite := satSuiteShape
			suite.Seed = rng.Int63()
			for _, inst := range satgen.Suite(suite) {
				in, err := dimacsInput(inst)
				if err != nil {
					return input{}, err
				}
				if _, dup := lastSent[in.text]; !dup {
					cnfQueue = append(cnfQueue, in)
				}
			}
		}
		in := cnfQueue[0]
		cnfQueue = cnfQueue[1:]
		return in, nil
	}
	// repeat picks an input whose last send lies in [i-hi, i-lo].
	repeat := func(i, lo, hi int) (input, bool) {
		var cands []input
		seen := map[string]bool{}
		for j := max(i-hi, 0); j <= i-lo; j++ {
			in := sched[j]
			if last := lastSent[in.text]; last == j && !seen[in.text] {
				seen[in.text] = true
				cands = append(cands, in)
			}
		}
		if len(cands) == 0 {
			return input{}, false
		}
		return cands[rng.Intn(len(cands))], true
	}
	block := append([]reqKind(nil), daemonBlock...)
	for i := 0; i < n; i++ {
		if i%len(block) == 0 {
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		k := block[i%len(block)]
		var (
			in  input
			ok  bool
			err error
		)
		if k == farRepeat {
			in, ok = repeat(i, 180, i)
		}
		if k == nearRepeat || (k == farRepeat && !ok) {
			in, ok = repeat(i, 20, 100)
		}
		if !ok {
			if k >= nearRepeat {
				k = reqKind(i % 3) // no earlier input to repeat yet
			}
			for {
				if in, err = newInput(k); err != nil {
					return nil, err
				}
				if _, dup := lastSent[in.text]; !dup {
					break
				}
			}
		}
		lastSent[in.text] = i
		sched = append(sched, in)
	}
	return sched, nil
}
