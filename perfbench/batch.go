package main

import (
	"fmt"
	"os"
	"time"
)

// runBatch is a closed-loop workload: one instance at a time, from ANF
// text to a checked verdict. limit is the per-instance latency limit for
// within_limit_ratio, judged after the fact; nothing inside the engine
// watches the clock.
func runBatch(limit time.Duration) func(runConfig, []input, *report) []*span {
	return func(cfg runConfig, inputs []input, rep *report) []*span {
		if cfg.trace {
			return tracedBatch(cfg, inputs, rep)
		}
		untracedBatch(limit, cfg, inputs, rep)
		return nil
	}
}

func untracedBatch(limit time.Duration, cfg runConfig, inputs []input, rep *report) {
	warmUp(inputs)
	var latencies []float64
	within := 0
	start := time.Now()
	deadline := start.Add(cfg.duration)
	for i := 0; time.Now().Before(deadline); i++ {
		in := inputs[i%len(inputs)]
		t0 := time.Now()
		_, v := solveInput(nil, nil, in, batchPipeline)
		d := time.Since(t0)
		rep.Attempted++
		if v.failure != "" {
			rep.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: FAILED", v.failure)
		} else if v.decided() && d <= limit {
			within++
		}
		latencies = append(latencies, float64(d.Nanoseconds())/1e6)
	}
	elapsed := time.Since(start)
	tail := tailPercentile(len(latencies))
	rep.set("throughput_per_s", float64(rep.Attempted)/elapsed.Seconds(), "1/s")
	rep.set("latency_p50_ms", quantile(latencies, 0.5), "ms")
	rep.set("latency_tail_ms", quantile(latencies, float64(tail)/100), "ms")
	rep.set("within_limit_ratio", float64(within)/float64(rep.Attempted), "ratio")
	fmt.Fprintf(os.Stderr, "perfbench: %d instances in %.1fs; latency_tail_ms is p%d\n", len(latencies), elapsed.Seconds(), tail)
}

func tracedBatch(cfg runConfig, inputs []input, rep *report) []*span {
	warmUp(inputs)
	t := newTracer()
	var tot traceTotals
	deadline := time.Now().Add(cfg.duration)
	for i := 0; time.Now().Before(deadline); i++ {
		tot.add(rep, runGuarded(t, inputs[i%len(inputs)], batchPipeline, "instance"))
	}
	setLayerMetrics(rep, t.spans, tot)
	setServerMetrics(rep, loadStats{})
	return t.spans
}

// warmUp solves the last input once, unmeasured, so the heap and the
// runtime's pools have grown before timing starts; the measured loop
// starts from the first input.
func warmUp(inputs []input) {
	solveInput(nil, nil, inputs[len(inputs)-1], batchPipeline)
}
