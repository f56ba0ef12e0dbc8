package main

import (
	"encoding/json"
	"fmt"
	"math"
	"regexp"
)

// metricSpec names one reported metric. The lists below are the
// benchmark's contract and must match BENCHMARK.json (a test checks it).
type metricSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a fleet client sees, measured with tracing off.
var endToEnd = []metricSpec{
	{"throughput_rps", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"p99_ms", "ms", "lower"},
	{"success_ratio", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
}

// perLayer are the traced run's metrics, named <layer>.<quantity>. A
// layer that does no work on a workload reports 0.
var perLayer = []metricSpec{
	{"loadgen.cpu_ms_per_req", "ms", "lower"},
	{"router.cpu_ms_per_req", "ms", "lower"},
	{"router.added_ms", "ms", "lower"},
	{"router.retried", "count", "lower"},
	{"router.max_shard_share", "ratio", "lower"},
	{"serve.cpu_ms_per_req", "ms", "lower"},
	{"serve.front_ms", "ms", "lower"},
	{"serve.stage_coverage", "ratio", "higher"},
	{"mmlp.decode_ms", "ms", "lower"},
	{"mmlp.encode_ms", "ms", "lower"},
	{"mmlp.request_bytes", "bytes", "lower"},
	{"mmlp.response_bytes", "bytes", "lower"},
	{"canon.canonicalize_ms", "ms", "lower"},
	{"canon.hash_ms", "ms", "lower"},
	{"canon.hash_bytes_ms", "ms", "lower"},
	{"canon.hash_allocs_cold_pool", "count", "lower"},
	{"canon.hash_allocs_warm_pool", "count", "lower"},
	{"cache.hit_ratio", "ratio", "higher"},
	{"cache.evictions_per_req", "1/req", "lower"},
	{"cache.resident_mib", "MiB", "lower"},
	{"cache.lookup_ms", "ms", "lower"},
	{"batch.queue_wait_p50_ms", "ms", "lower"},
	{"batch.queue_wait_p99_ms", "ms", "lower"},
	{"batch.allocs_per_job", "count", "lower"},
	{"batch.jobs", "count", "higher"},
	{"engine.solve_ms", "ms", "lower"},
	{"transform.ms", "ms", "lower"},
	{"engine.back_map_ms", "ms", "lower"},
	{"core.kernel_ms", "ms", "lower"},
	{"core.kernel_ns_per_agent", "ns", "lower"},
	{"core.agents_per_solve", "count", "higher"},
	{"delta.apply_ms", "ms", "lower"},
	{"delta.bfs_ms", "ms", "lower"},
	{"delta.plan_ms", "ms", "lower"},
	{"delta.kernel_ms", "ms", "lower"},
	{"delta.splice_ms", "ms", "lower"},
	{"delta.allocs_per_req", "count", "lower"},
	{"delta.dirty_ratio", "ratio", "lower"},
	{"delta.spliced_ratio", "ratio", "higher"},
	{"setup.boot_s", "s", "lower"},
	{"setup.prime_s", "s", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render builds the metrics object for specs from values, refusing a
// missing or non-finite value so that no metric is silently dropped.
func render(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not in the benchmark's list", name)
		}
	}
	return out, nil
}

func (r *result) line() string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // render refused non-finite values
	}
	return string(b)
}
