// Command perfbench is the end-to-end benchmark of record: the paper's
// pipeline (parse → ANF propagation → XL → ElimLin → ANF→CNF → SAT step →
// final solve) on Table II families, and an in-process bosphorusd under
// open-loop load.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload simon|bitcoin|daemon --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. An untraced run (--trace 0)
// reports the end-to-end metrics; a traced run (--trace 1) rebuilds the
// engine's sequential loop from the layers' public functions, checks it
// against core.Process on every instance, and reports per-layer metrics.
// A human-readable summary goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"time"
)

// setupReps is how many times a run generates its inputs; setup_s is the
// median and every repetition must produce byte-identical inputs.
const setupReps = 3

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// runConfig is what a workload needs from the command line.
type runConfig struct {
	seed     int64
	duration time.Duration
	trace    bool
	outDir   string
}

// workload builds its inputs (setup) and then runs for cfg.duration.
type workload struct {
	// setup generates and serializes the inputs from the seed; it is run
	// setupReps times and must be deterministic.
	setup func(seed int64, d time.Duration) (inputs []input, err error)
	// run measures; it fills rep with end-to-end metrics (untraced) or
	// per-layer metrics (traced) and returns the spans of a traced run.
	run func(cfg runConfig, inputs []input, rep *report) []*span
}

var workloads = map[string]workload{
	"simon":   {setup: simonInputs, run: runBatch(2 * time.Second)},
	"bitcoin": {setup: bitcoinInputs, run: runBatch(10 * time.Second)},
	"daemon":  {setup: daemonInputs, run: runDaemon},
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		name    = flag.String("workload", "", "workload: simon | bitcoin | daemon")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 30, "measurement time in seconds")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run, 0 = untraced end-to-end run")
		outDir  = flag.String("out-dir", ".bench_build", "directory for the span dump of a traced run")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	// One process generates the load; never schedule it on more threads
	// than there are CPUs.
	if runtime.GOMAXPROCS(0) > runtime.NumCPU() {
		runtime.GOMAXPROCS(runtime.NumCPU())
	}
	cfg := runConfig{
		seed:     *seed,
		duration: time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		outDir:   *outDir,
	}

	inputs, release, setupS, err := setupInputs(w, cfg)
	if err != nil {
		return err
	}
	defer release()
	// peak_rss_mb is the run's high-water mark, not setup's.
	debug.FreeOSMemory()
	resetPeakRSS()
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	spans := w.run(cfg, inputs, rep)
	if rep.Attempted < 1 {
		return fmt.Errorf("no operation completed in %v", cfg.duration)
	}
	if cfg.trace {
		rep.set("error_ratio", float64(rep.Failed)/float64(rep.Attempted), "ratio")
		if err := writeSpans(cfg, *name, spans); err != nil {
			return err
		}
	} else {
		rep.set("setup_s", setupS, "s")
		rep.set("ok_ratio", 1-float64(rep.Failed)/float64(rep.Attempted), "ratio")
		rep.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	fmt.Fprintf(os.Stderr, "perfbench: workload=%s seed=%d trace=%t nproc=%d GOMAXPROCS=%d attempted=%d failed=%d correct=%t\n",
		*name, cfg.seed, cfg.trace, runtime.NumCPU(), runtime.GOMAXPROCS(0), rep.Attempted, rep.Failed, rep.Correct)
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupInputs generates the workload's inputs setupReps times, checks that
// every repetition is byte-identical, and returns the inputs (moved off
// the heap; call release when done with them) with the median setup time
// in seconds.
func setupInputs(w workload, cfg runConfig) (inputs []input, release func(), setupS float64, err error) {
	times := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		got, err := w.setup(cfg.seed, cfg.duration)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(start).Seconds())
		if i == 0 {
			if inputs, release, err = offHeap(got); err != nil {
				return nil, nil, 0, err
			}
		} else if !slices.Equal(inputs, got) {
			release()
			return nil, nil, 0, fmt.Errorf("setup: seed %d produced different inputs on repetition %d", cfg.seed, i)
		}
		got = nil
		runtime.GC()
	}
	sort.Float64s(times)
	return inputs, release, times[len(times)/2], nil
}

// writeSpans dumps a traced run's spans as JSON lines.
func writeSpans(cfg runConfig, name string, spans []*span) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), path)
	return nil
}
