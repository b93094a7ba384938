package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/obs"
	"greedy80211/internal/report"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted input
	}
	if v, beyond := quantile(xs, 0.98); v != 98 || beyond != 2 {
		t.Errorf("p98 of 1..100 = %v with %d beyond, want 98 with 2", v, beyond)
	}
	if v, beyond := quantile(xs, 0.5); v != 50 || beyond != 50 {
		t.Errorf("p50 of 1..100 = %v with %d beyond, want 50 with 50", v, beyond)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n          int
		p          float64
		wantV, use float64
	}{
		{1000, 0.98, 980, 0.98}, // 20 beyond: reported as asked
		{500, 0.98, 490, 0.98},  // exactly 10 beyond
		{100, 0.98, 90, 0.90},   // steps down until 10 lie beyond
		{15, 0.98, 8, 0.5},      // too few for any tail: the median
		{15, 0.5, 8, 0.5},
	} {
		v, used := percentile(seq(c.n), c.p)
		if v != c.wantV || used != c.use {
			t.Errorf("percentile(1..%d, %v) = %v at p%v, want %v at p%v", c.n, c.p, v, used, c.wantV, c.use)
		}
	}
}

func TestRouteKey(t *testing.T) {
	for _, c := range []struct{ method, path, want string }{
		{"POST", "/v1/campaigns/3f9a0c/lease", routeLease},
		{"POST", "/v1/leases/l17-0123456789abcdef/complete", routeComplete},
		{"POST", "/v1/leases/l18-fedcba9876543210/heartbeat", "POST /v1/leases/{id}/heartbeat"},
		{"GET", "/v1/results/08c423a6cfc69af3", "GET /v1/results/{id}"},
		{"POST", "/v1/campaigns", "POST /v1/campaigns"},
		{"GET", "/metrics", "GET /metrics"},
	} {
		if got := routeKey(c.method, c.path); got != c.want {
			t.Errorf("routeKey(%s %s) = %q, want %q", c.method, c.path, got, c.want)
		}
	}
}

func TestParseScrape(t *testing.T) {
	reg := obs.NewRegistry(obs.Label{Key: "module", Value: `m"x\y`})
	op := func(name, outcome string) *obs.Counter {
		return reg.Counter("backend_ops_total", "ops", obs.Label{Key: "op", Value: name},
			obs.Label{Key: "outcome", Value: outcome})
	}
	op("put", "ok").Add(3)
	op("put", "miss").Add(2)
	op("stat", "ok").Add(7)
	h := reg.Histogram("op_seconds", "latency", nil, obs.Label{Key: "op", Value: "put"})
	h.Observe(0.25)
	h.Observe(0.75)
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	sc, err := parseScrape([]byte(text.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		kv   []string
		want float64
	}{
		{"backend_ops_total", []string{"op", "put"}, 5},
		{"backend_ops_total", []string{"op", "put", "outcome", "ok"}, 3},
		{"backend_ops_total", []string{"op", "stat"}, 7},
		{"backend_ops_total", []string{"module", `m"x\y`}, 12},
		{"op_seconds_sum", []string{"op", "put"}, 1},
		{"op_seconds_count", []string{"op", "put"}, 2},
		{"op_seconds_count", []string{"op", "get"}, 0},
	} {
		if got := sc.sum(c.name, c.kv...); got != c.want {
			t.Errorf("sum(%s, %v) = %v, want %v", c.name, c.kv, got, c.want)
		}
	}
	if _, err := parseScrape([]byte("# TYPE x counter\nx{op=\"put\" 1\n")); err == nil {
		t.Error("malformed exposition parsed without error")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	at := func(ms int) time.Time { return time.Unix(0, int64(ms)*int64(time.Millisecond)) }
	tr := &tracer{}
	root := tr.add(span{Name: "root", Layer: "a", Parent: -1, Start: at(0), End: at(10)})
	// Overlapping children count once; a child running past its parent
	// is clipped.
	tr.add(span{Name: "c1", Layer: "b", Parent: root, Start: at(1), End: at(3)})
	tr.add(span{Name: "c2", Layer: "b", Parent: root, Start: at(2), End: at(5)})
	tr.add(span{Name: "c3", Layer: "c", Parent: root, Start: at(8), End: at(12)})
	self := tr.layerSelf()
	for layer, want := range map[string]float64{"a": 0.004, "b": 0.005, "c": 0.004} {
		if got := self[layer]; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("self time of %s = %v, want %v", layer, got, want)
		}
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.writeChrome(path, "test"); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("span file is not trace-event JSON: %v", err)
	}
	slices := 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			slices++
		}
	}
	if slices != 4 {
		t.Errorf("span file has %d slices, want 4", slices)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", "y", "main", -1)
	tr.end(id)
	if id != -1 || tr.duration(id) != 0 || tr.find("y") != -1 {
		t.Error("a nil tracer recorded a span")
	}
}

func TestCheckGateFiresOnPlantedDefects(t *testing.T) {
	dir := t.TempDir()
	const md, vj = "# Reproduction report\n", "{\"pass\": 48}\n"
	for name, body := range map[string]string{"RESULTS.md": md, "verdicts.json": vj} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	pass := &report.Report{Pass: gateChecks, ModelPass: modelChecks}
	if err := checkGate(pass, md, []byte(vj), dir); err != nil {
		t.Fatalf("matching outputs rejected: %v", err)
	}
	if err := checkGate(pass, md+" ", []byte(vj), dir); err == nil {
		t.Error("a report one byte off passed")
	}
	if err := checkGate(pass, md, []byte(strings.Replace(vj, "48", "47", 1)), dir); err == nil {
		t.Error("altered verdicts passed")
	}
	if err := checkGate(&report.Report{Pass: gateChecks - 1, Fail: 1, ModelPass: modelChecks}, md, []byte(vj), dir); err == nil {
		t.Error("a failing gate passed")
	}
	if err := checkGate(&report.Report{Pass: gateChecks, ModelPass: modelChecks - 1, ModelDrift: 1}, md, []byte(vj), dir); err == nil {
		t.Error("a drifting model check passed")
	}
}

func TestCheckFanoutFiresOnPlantedDefects(t *testing.T) {
	spec := &campaign.Spec{
		Artifacts: []string{"extc"},
		Config:    campaign.SpecConfig{Seeds: 1, Duration: "200ms", Quick: true},
		BaseSeeds: []int64{1, 2},
	}
	fill := func() *campaign.Store {
		dir := t.TempDir()
		if _, err := campaign.Run(context.Background(), spec, campaign.Options{StoreDir: dir}); err != nil {
			t.Fatal(err)
		}
		st, err := campaign.OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	got, ref := fill(), fill()
	if err := checkFanout(got, ref, spec); err != nil {
		t.Fatalf("identical stores rejected: %v", err)
	}
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	key := units[1].Key
	obj := filepath.Join(got.Root(), "objects", key[:2], key, "result.json")
	raw, err := os.ReadFile(obj)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 1
	if err := os.WriteFile(obj, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkFanout(got, ref, spec); err == nil {
		t.Error("a corrupted store object passed")
	}
	if err := got.Delete(key); err != nil {
		t.Fatal(err)
	}
	if err := checkFanout(got, ref, spec); err == nil {
		t.Error("a store missing a unit passed")
	}
}

func TestCheckDigestsFiresOnWrongDigest(t *testing.T) {
	mk := func(digests ...string) []*sample {
		out := make([]*sample, len(digests))
		for i, d := range digests {
			out[i] = &sample{OK: true, Ops: 1, Digest: d}
		}
		return out
	}
	ok := mk(denseDigestOne, denseDigestOne)
	checkDigests(ok, defaultSeed)
	for _, s := range ok {
		if !s.OK {
			t.Fatalf("the pinned digest was rejected: %s", s.Err)
		}
	}
	wrong := mk(denseDigestOne, strings.Repeat("0", 64))
	checkDigests(wrong, defaultSeed)
	if wrong[0].OK == false || wrong[1].OK || wrong[1].Failed != 1 {
		t.Error("a run off the pinned digest passed")
	}
	other := mk("aa", "aa", "ab")
	checkDigests(other, defaultSeed+1)
	if !other[0].OK || !other[1].OK || other[2].OK {
		t.Error("runs of one seed with differing digests passed")
	}
}

func TestDenseDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the 100-cell world")
	}
	w, err := denseWorld(defaultSeed, denseCells)
	if err != nil {
		t.Fatal(err)
	}
	w.Run(denseRun)
	digest, err := checkDense(w, w.MetricsSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	if digest != denseDigestOne {
		t.Errorf("dense100 digest at the default seed = %s, pinned %s", digest, denseDigestOne)
	}
}

// TestBenchmarkJSONMatchesCode keeps the repository's BENCHMARK.json
// and the metrics this program reports in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloads, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", names, workloads)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}
