package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// bodies returns the first n timed request bodies and the priming bodies
// of a workload.
func bodies(t *testing.T, name string, seed int64, n int) [][]byte {
	t.Helper()
	w, err := newWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for i := 0; i < n; i++ {
		out = append(out, w.request(streamTimed, i).body)
	}
	for _, phase := range w.prime() {
		for _, r := range phase {
			out = append(out, r.body)
		}
	}
	return out
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, name := range workloadNames {
		a, b := bodies(t, name, 7, 40), bodies(t, name, 7, 40)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave different request bodies on two generations", name)
		}
		c := bodies(t, name, 8, 40)
		if reflect.DeepEqual(a[:40], c[:40]) {
			t.Errorf("%s: seeds 7 and 8 gave identical timed request bodies", name)
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i)
		}
		return out
	}
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false}, {1000, 0.99, true}, {19, 0.5, false}, {20, 0.5, true}, {5, 0.5, false},
	} {
		_, err := percentile(xs(c.n), c.q)
		if (err == nil) != c.ok {
			t.Errorf("percentile(n=%d, q=%g): err=%v, want ok=%v", c.n, c.q, err, c.ok)
		}
	}
	if v, _ := percentile(xs(1000), 0.99); v != 989 {
		t.Errorf("p99 of 0..999 = %v, want nearest rank 989", v)
	}
}

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, code prints %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %+v, code prints %+v", b.PerLayer, perLayer)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads = %v, code runs %v", names, workloadNames)
	}
	seen := map[string]bool{}
	for _, m := range append(append(append([]metricSpec(nil), endToEnd...), perLayer...), metricsOf(names)...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("name %q breaks the grammar or repeats", m.Name)
		}
		seen[m.Name] = true
		if m.Unit != "" && !unitRE.MatchString(m.Unit) {
			t.Errorf("unit %q of %s breaks the grammar", m.Unit, m.Name)
		}
	}
	if len(b.Command) < 2 || b.Command[1] != filepath.Join(b.Paths[0], "run.sh") {
		t.Errorf("command %v does not run %s/run.sh", b.Command, b.Paths[0])
	}
}

// metricsOf wraps workload names as unitless specs, so the name grammar
// check covers them too.
func metricsOf(names []string) []metricSpec {
	out := make([]metricSpec, len(names))
	for i, n := range names {
		out[i] = metricSpec{Name: n}
	}
	return out
}

func TestRenderRefusesUnknownAndMissing(t *testing.T) {
	values := map[string]float64{}
	for _, m := range endToEnd {
		values[m.Name] = 1
	}
	if _, err := render(endToEnd, values); err != nil {
		t.Fatal(err)
	}
	values["bogus"] = 1
	if _, err := render(endToEnd, values); err == nil {
		t.Error("render accepted a metric outside the list")
	}
	delete(values, "bogus")
	delete(values, "p99_ms")
	if _, err := render(endToEnd, values); err == nil {
		t.Error("render accepted a missing metric")
	}
}

func TestResultRecordsRunIdentity(t *testing.T) {
	w, err := newWorkload("cold", 1)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := sourceDigest("..")
	if err != nil {
		t.Fatal(err)
	}
	m := newMeta(&config{workload: "cold", seed: 1, seconds: 1}, w, digest)
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]any
	json.Unmarshal(b, &got)
	for _, k := range []string{"nproc", "go_version", "commit", "source_sha256", "fleet_flags"} {
		if v, ok := got[k]; !ok || v == "" || v == float64(0) {
			t.Errorf("meta lacks %s: %s", k, b)
		}
	}
	for name, args := range m.FleetFlags {
		if strings.HasPrefix(name, "shard") && !strings.Contains(strings.Join(args, " "), "-workers 1") {
			t.Errorf("%s flags %v do not pin one worker", name, args)
		}
	}
}

func TestWorkingSetsSplitEvenly(t *testing.T) {
	for _, name := range []string{"warm", "delta"} {
		w, err := newWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		var samples []sample
		for i := range w.set {
			// One sample per member: find a timed index that uses it.
			for j := 0; ; j++ {
				if w.request(streamTimed, j).member == i {
					samples = append(samples, sample{idx: j})
					break
				}
			}
		}
		keys, _, share := shardSplit(w, samples)
		if share != 0.5 {
			t.Errorf("%s: working set split %v, want half on each shard", name, keys)
		}
	}
}

// TestTwoBootsRouteAlike boots the fleet twice and checks that the same
// requests land on the same shards both times, as the ring predicts, and
// that a short timed window verifies.
func TestTwoBootsRouteAlike(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and boots the fleet")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+"/", "./cmd/mmlpserve", "./cmd/mmlprouter")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build fleet: %v\n%s", err, out)
	}
	w, err := newWorkload("cold", 11)
	if err != nil {
		t.Fatal(err)
	}
	boot := func() []string {
		if err := waitPortsFree(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		f, err := startFleet(bin, t.TempDir(), "boot", w.cacheBytes)
		if err != nil {
			t.Fatal(err)
		}
		defer f.stop()
		if err := f.waitReady(30 * time.Second); err != nil {
			t.Fatal(err)
		}
		cl := &client{addr: routerAddr}
		defer cl.close()
		var shards []string
		for i := 0; i < 30; i++ {
			s := cl.send(w.request(streamTimed, i), "")
			if s.err != nil || s.status != http.StatusOK {
				t.Fatalf("request %d: status %d, err %v", i, s.status, s.err)
			}
			shards = append(shards, s.shard)
		}
		// The closed loop and the verifier run on several goroutines; under
		// -race this exercises both against a live fleet.
		ss, _ := window(w, 30, 300*time.Millisecond, "")
		if ok, bad := newVerifier(w).checkAll(streamTimed, ss, true); ok != len(ss) || len(ss) == 0 {
			t.Fatalf("window: %d of %d answers verified: %v", ok, len(ss), bad)
		}
		return shards
	}
	first, second := boot(), boot()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two boots routed differently:\n%v\n%v", first, second)
	}
	ring := newRing()
	for i, got := range first {
		if want := ring.Owner(w.key(w.request(streamTimed, i))); got != want {
			t.Errorf("request %d answered by %s, ring owner %s", i, got, want)
		}
	}
}

// TestRefusesOutsideRepository runs the benchmark's command in a directory
// holding only BENCHMARK.json and the benchmark's own files: it must fail
// without printing a result.
func TestRefusesOutsideRepository(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(filepath.Join(dir, "perfbench"), os.DirFS(".")); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "BENCHMARK.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", "cold", "--seed", "1", "--seconds", "1", "--trace", "0")
	cmd.Dir = dir
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err == nil {
		t.Fatal("run.sh succeeded outside a repository")
	}
	if stdout.Len() != 0 {
		t.Errorf("run.sh printed %q outside a repository", stdout.String())
	}
}
