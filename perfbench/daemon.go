package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

const (
	// sloLimit is the daemon's latency limit: a request counts toward
	// within_limit_ratio when it is answered correctly within this time of
	// its scheduled send.
	sloLimit = time.Second
	// maxLagP95 invalidates a run whose generator sent its requests this
	// late (95th percentile): its latencies would understate the load.
	maxLagP95 = 20 * time.Millisecond
)

// sent is the client's record of one request.
type sent struct {
	lag     time.Duration // actual send time less scheduled send time
	latency time.Duration // response time less scheduled send time
	code    int
	resp    server.Response
	err     string
}

// loadStats are the daemon's per-layer figures; zero on batch workloads.
type loadStats struct {
	runP50, runP95, waitP50, waitP95 float64 // ms
	cacheHit, reject, lagP95         float64
}

func setServerMetrics(rep *report, s loadStats) {
	rep.set("server.run_p50_ms", s.runP50, "ms")
	rep.set("server.run_p95_ms", s.runP95, "ms")
	rep.set("server.queue_wait_p50_ms", s.waitP50, "ms")
	rep.set("server.queue_wait_p95_ms", s.waitP95, "ms")
	rep.set("server.cache_hit_ratio", s.cacheHit, "ratio")
	rep.set("server.reject_ratio", s.reject, "ratio")
	rep.set("gen.lag_p95_ms", s.lagP95, "ms")
}

// runDaemon drives an in-process bosphorusd (default pool, 128-entry
// cache) through ServeHTTP at daemonRate requests a second, open loop:
// request i is due at start + i/daemonRate whether or not earlier ones
// have been answered, and is timed from that due time. A traced run then
// replays the distinct inputs that were solved through the traced loop.
func runDaemon(cfg runConfig, sched []input, rep *report) []*span {
	bodies := make([][]byte, len(sched))
	for i, in := range sched {
		b, err := json.Marshal(server.Request{Format: in.format, Input: in.text, Mode: "solve"})
		if err != nil {
			panic(err) // a Request of strings always marshals
		}
		bodies[i] = b
	}
	srv := server.New(server.Config{Engine: core.DefaultConfig()})
	results := make([]sent, len(sched))
	interval := time.Duration(float64(time.Second) / daemonRate)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sched {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			r := &results[i]
			r.lag = time.Since(due)
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/solve", bytes.NewReader(bodies[i])))
			r.latency = time.Since(due)
			r.code = rec.Code
			if rec.Code == http.StatusOK {
				if err := json.Unmarshal(rec.Body.Bytes(), &r.resp); err != nil {
					r.err = "undecodable response: " + err.Error()
				}
			}
		}(i, due)
	}
	wg.Wait()
	elapsed := time.Since(start)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		rep.Correct = false
		fmt.Fprintln(os.Stderr, "perfbench: server did not drain:", err)
	}

	stats := tallyLoad(sched, results, elapsed, srv.Metrics(), rep, !cfg.trace)
	if !cfg.trace {
		return nil
	}
	setServerMetrics(rep, stats)
	return replayJobs(cfg, sched, results, rep)
}

// tallyLoad checks every response, reports the end-to-end metrics when
// endToEnd is set, and cross-checks the client's counts against the
// server's own.
func tallyLoad(sched []input, results []sent, elapsed time.Duration, m *server.Metrics, rep *report, endToEnd bool) loadStats {
	var (
		latency, run, wait, lag []float64
		within, answered        int
		cached, rejected, other int
	)
	for i, r := range results {
		in := sched[i]
		rep.Attempted++
		lag = append(lag, ms(r.lag))
		failure := r.err
		switch {
		case failure != "":
		case r.code == http.StatusTooManyRequests:
			rejected++
			failure = in.name + ": rejected with 429"
		case r.code != http.StatusOK:
			other++
			failure = fmt.Sprintf("%s: HTTP %d", in.name, r.code)
		case r.resp.Status == "CANCELED":
			failure = in.name + ": job canceled"
		default:
			failure = checkResponse(in, r.resp)
		}
		if r.code == http.StatusOK && r.resp.Cached {
			cached++
		}
		if failure != "" {
			rep.Failed++
			fmt.Fprintln(os.Stderr, "perfbench: FAILED", failure)
			continue
		}
		answered++
		latency = append(latency, ms(r.latency))
		if r.latency <= sloLimit {
			within++
		}
		if !r.resp.Cached {
			run = append(run, float64(r.resp.ElapsedMS))
			wait = append(wait, ms(r.latency)-float64(r.resp.ElapsedMS))
		}
	}

	n := float64(len(results))
	tail := tailPercentile(len(latency))
	if endToEnd {
		rep.set("throughput_per_s", float64(answered)/elapsed.Seconds(), "1/s")
		rep.set("latency_p50_ms", quantile(latency, 0.5), "ms")
		rep.set("latency_tail_ms", quantile(latency, float64(tail)/100), "ms")
		rep.set("within_limit_ratio", float64(within)/n, "ratio")
	}
	s := loadStats{
		runP50: quantile(run, 0.5), runP95: quantile(run, 0.95),
		waitP50: quantile(wait, 0.5), waitP95: quantile(wait, 0.95),
		cacheHit: float64(cached) / n, reject: float64(rejected) / n,
		lagP95: quantile(lag, 0.95),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d requests at %.0f/s in %.1fs; latency_tail_ms is p%d of %d answered; cached=%d rejected=%d lag_p95=%.2fms\n",
		len(results), daemonRate, elapsed.Seconds(), tail, len(latency), cached, rejected, s.lagP95)

	// Open-loop honesty: a generator that fell behind understates latency.
	if s.lagP95 > ms(maxLagP95) {
		rep.Correct = false
		fmt.Fprintf(os.Stderr, "perfbench: INVALID run: generator lag p95 %.2fms exceeds %v\n", s.lagP95, maxLagP95)
	}
	// The client's counts must match the server's.
	accepted := len(results) - cached - rejected - other
	for _, c := range []struct {
		name           string
		client, server int64
	}{
		{"accepted", int64(accepted), m.JobsAccepted.Load()},
		{"rejected", int64(rejected), m.JobsRejected.Load()},
		{"cached", int64(cached), m.CacheHits.Load()},
		{"failed", int64(other), m.JobsFailed.Load()},
	} {
		if c.client != c.server {
			rep.Correct = false
			fmt.Fprintf(os.Stderr, "perfbench: client counted %d %s requests, server %d\n", c.client, c.name, c.server)
		}
	}
	return s
}

// checkResponse judges one answered job against its input text.
func checkResponse(in input, resp server.Response) string {
	sys, f, err := parseInput(nil, nil, in)
	if err != nil {
		return in.name + ": " + err.Error()
	}
	return checkAnswer(in, sys, f, resp.Status, resp.Solution)
}

// replayJobs runs the distinct inputs the daemon solved, in the order it
// first saw them, through runGuarded for at most half of cfg.duration, so
// a traced run takes about as long as an untraced one plus half.
func replayJobs(cfg runConfig, sched []input, results []sent, rep *report) []*span {
	t := newTracer()
	var tot traceTotals
	seen := map[string]bool{}
	deadline := time.Now().Add(cfg.duration / 2)
	for i, in := range sched {
		if !time.Now().Before(deadline) {
			break
		}
		if seen[in.text] || results[i].resp.Cached || results[i].code != http.StatusOK {
			continue
		}
		seen[in.text] = true
		tot.add(rep, runGuarded(t, in, jobPipeline, "job"))
	}
	setLayerMetrics(rep, t.spans, tot)
	return t.spans
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
