package server

import (
	"testing"
	"time"
)

// feedMetrics drives every series Render writes with fixed values,
// including observations exactly on bucket bounds, past the last bound
// (+Inf), and fractional sums.
func feedMetrics() *Metrics {
	m := NewMetrics()
	m.JobsAccepted.Add(7)
	m.JobsRejected.Add(1)
	m.JobsCompleted.Add(5)
	m.JobsCanceled.Add(1)
	m.JobsFailed.Add(1)
	m.CacheHits.Add(2)
	m.QueueDepth.Add(3)
	m.ProofVerified.Add(11)
	m.ProofFailed.Add(1)
	m.CubesDispatched.Add(4)
	m.CubeResults.Add(4)
	m.CubesRequeued.Add(1)
	m.CubesReaped.Add(1)
	m.CubeJobsActive.Add(1)
	m.NodeCubesSolved.Add(2)
	m.AddFacts("xl", 2)
	m.AddFacts("sat", 5)
	m.AddFacts("elimlin", 3)
	for _, d := range []time.Duration{
		3 * time.Millisecond, 10 * time.Millisecond, 42 * time.Millisecond,
		1500 * time.Millisecond, 60 * time.Second, 90 * time.Second,
	} {
		m.ObserveLatency(d)
	}
	for _, o := range []struct {
		frag string
		ns   int64
	}{{"2sat", 500}, {"", 1000}, {"horn", 123456}, {"xor", 2e9}, {"", 7e6}} {
		m.ObserveRoute(o.frag, o.ns)
	}
	return m
}

// The /metrics text of feedMetrics' observations. The exposition format is
// an interface (scrapers, dashboards, the smoke tests), so it must stay
// byte-identical.
const metricsGolden = `# TYPE bosphorusd_jobs_accepted_total counter
bosphorusd_jobs_accepted_total 7
# TYPE bosphorusd_jobs_rejected_total counter
bosphorusd_jobs_rejected_total 1
# TYPE bosphorusd_jobs_completed_total counter
bosphorusd_jobs_completed_total 5
# TYPE bosphorusd_jobs_canceled_total counter
bosphorusd_jobs_canceled_total 1
# TYPE bosphorusd_jobs_failed_total counter
bosphorusd_jobs_failed_total 1
# TYPE bosphorusd_cache_hits_total counter
bosphorusd_cache_hits_total 2
# TYPE bosphorusd_proof_verified_total counter
bosphorusd_proof_verified_total 11
# TYPE bosphorusd_proof_failed_total counter
bosphorusd_proof_failed_total 1
# TYPE bosphorusd_cubes_dispatched_total counter
bosphorusd_cubes_dispatched_total 4
# TYPE bosphorusd_cube_results_total counter
bosphorusd_cube_results_total 4
# TYPE bosphorusd_cubes_requeued_total counter
bosphorusd_cubes_requeued_total 1
# TYPE bosphorusd_cubes_reaped_total counter
bosphorusd_cubes_reaped_total 1
# TYPE bosphorusd_node_cubes_solved_total counter
bosphorusd_node_cubes_solved_total 2
# TYPE bosphorusd_queue_depth gauge
bosphorusd_queue_depth 3
# TYPE bosphorusd_cube_jobs_active gauge
bosphorusd_cube_jobs_active 1
# TYPE bosphorusd_facts_learnt_total counter
bosphorusd_facts_learnt_total{technique="elimlin"} 3
bosphorusd_facts_learnt_total{technique="sat"} 5
bosphorusd_facts_learnt_total{technique="xl"} 2
# TYPE bosphorusd_routed_total counter
bosphorusd_routed_total{fragment="2sat"} 1
bosphorusd_routed_total{fragment="horn"} 1
bosphorusd_routed_total{fragment="xor"} 1
# TYPE bosphorusd_route_ns histogram
bosphorusd_route_ns_bucket{le="1000"} 2
bosphorusd_route_ns_bucket{le="10000"} 2
bosphorusd_route_ns_bucket{le="100000"} 2
bosphorusd_route_ns_bucket{le="1e+06"} 3
bosphorusd_route_ns_bucket{le="1e+07"} 4
bosphorusd_route_ns_bucket{le="1e+08"} 4
bosphorusd_route_ns_bucket{le="1e+09"} 4
bosphorusd_route_ns_bucket{le="+Inf"} 5
bosphorusd_route_ns_sum 2.007124956e+09
bosphorusd_route_ns_count 5
# TYPE bosphorusd_solve_seconds histogram
bosphorusd_solve_seconds_bucket{le="0.005"} 1
bosphorusd_solve_seconds_bucket{le="0.01"} 2
bosphorusd_solve_seconds_bucket{le="0.025"} 2
bosphorusd_solve_seconds_bucket{le="0.05"} 3
bosphorusd_solve_seconds_bucket{le="0.1"} 3
bosphorusd_solve_seconds_bucket{le="0.25"} 3
bosphorusd_solve_seconds_bucket{le="0.5"} 3
bosphorusd_solve_seconds_bucket{le="1"} 3
bosphorusd_solve_seconds_bucket{le="2.5"} 4
bosphorusd_solve_seconds_bucket{le="5"} 4
bosphorusd_solve_seconds_bucket{le="10"} 4
bosphorusd_solve_seconds_bucket{le="30"} 4
bosphorusd_solve_seconds_bucket{le="60"} 5
bosphorusd_solve_seconds_bucket{le="+Inf"} 6
bosphorusd_solve_seconds_sum 151.555
bosphorusd_solve_seconds_count 6
`

func TestMetricsRenderGolden(t *testing.T) {
	if got := feedMetrics().Render(); got != metricsGolden {
		t.Fatalf("Render output changed:\n--- got\n%s\n--- want\n%s", got, metricsGolden)
	}
}
