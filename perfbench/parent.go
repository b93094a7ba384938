package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"greedy80211/internal/core"
	"greedy80211/internal/runner"
)

const (
	// outDir holds everything a run leaves behind, inside the checkout's
	// ignored build directory.
	outDir = ".bench_build/perfbench"
	// minRuns is the fewest timed processes a run makes, however long
	// they take; the median of fewer is too easily one outlier.
	minRuns = 5
	// launchBudget stops starting timed processes this long after the
	// first, so a run always finishes well inside three minutes.
	launchBudget = 100 * time.Second
	// childTimeout kills a timed process that hangs.
	childTimeout = 150 * time.Second
)

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// conditions records what a result was measured under.
type conditions struct {
	Workload    string             `json:"workload"`
	Seed        int64              `json:"seed"`
	Seconds     int                `json:"seconds"`
	Nproc       int                `json:"nproc"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	Module      string             `json:"module"`
	TimedRuns   int                `json:"timed_runs"`
	Percentiles map[string]pctInfo `json:"percentiles,omitempty"`
	SpanFile    string             `json:"span_file,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
}

// drive runs the workload's preparation, then timed processes until
// seconds have passed (at least minRuns), then with traced one traced
// process, and prints the result.
func drive(workload string, seed int64, seconds int, traced bool) int {
	for _, f := range []string{"go.mod", "RESULTS.md", "verdicts.json"} {
		if _, err := os.Stat(f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
			return 2
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	runDir, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	cond := conditions{
		Workload: workload, Seed: seed, Seconds: seconds,
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Module: core.ModuleFingerprint(),
		Percentiles: map[string]pctInfo{},
	}
	var all []*sample // every process's sample, preparation included
	launch := func(w, ref, spans string) *sample {
		s := runChild(exe, w, seed, filepath.Join(runDir, "child-"+strconv.Itoa(len(all))), ref, spans)
		all = append(all, s)
		return s
	}

	// Preparation, never timed: gate-warm's store is filled by one
	// gate-cold process, and fanout's reference bytes by the local engine.
	var ref string
	switch workload {
	case "gate-warm":
		launch("gate-cold", "", "")
		ref = filepath.Join(runDir, "child-0", "store")
	case "fanout":
		ref = filepath.Join(runDir, "reference")
		runner.SetLimit(runtime.GOMAXPROCS(0))
		if err := fanoutReference(ref, seed); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}

	var timed []*sample
	start := time.Now()
	for len(timed) < minRuns || time.Since(start) < time.Duration(seconds)*time.Second {
		if time.Since(start) > launchBudget {
			break
		}
		timed = append(timed, launch(workload, ref, ""))
	}
	cond.TimedRuns = len(timed)
	var tracedSample *sample
	if traced {
		cond.SpanFile = filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
		tracedSample = launch(workload, ref, cond.SpanFile)
	}
	if workload == "dense100" {
		checkDigests(all, seed)
	}

	res := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, s := range all {
		res.Attempted += s.Ops
		res.Failed += s.Failed
		if !s.OK {
			res.Correct = false
			cond.Errors = append(cond.Errors, s.Err)
		}
	}
	good := okSamples(timed)
	if len(good) == 0 {
		res.Correct = false
	}
	if traced {
		if tracedSample.OK && len(good) > 0 {
			layerMetrics(res.Metrics, good, tracedSample, cond.Percentiles)
		}
		fill(res.Metrics, perLayer)
	} else {
		endToEndMetrics(res.Metrics, good)
		fill(res.Metrics, endToEnd)
	}

	condLine, _ := json.Marshal(map[string]any{"conditions": cond})
	fmt.Println(string(condLine))
	// Every process's sample, for looking into a result afterwards.
	if raw, err := json.MarshalIndent(map[string]any{"conditions": cond, "samples": all}, "", "  "); err == nil {
		name := fmt.Sprintf("samples-%s-seed%d-traced-%t.json", workload, seed, traced)
		if err := os.WriteFile(filepath.Join(outDir, name), raw, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runChild executes one run in a fresh process and decodes its sample.
// A process that crashes, hangs or prints no sample counts as one
// failed operation.
func runChild(exe, workload string, seed int64, work, ref, spans string) *sample {
	failed := func(err error) *sample {
		return &sample{Ops: 1, Failed: 1, Err: fmt.Sprintf("%s run: %v", workload, err)}
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return failed(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", workload,
		"-seed", strconv.FormatInt(seed, 10), "-work", work, "-ref", ref, "-spans", spans)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return failed(err)
	}
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var s sample
	if err := json.Unmarshal(lines[len(lines)-1], &s); err != nil {
		return failed(fmt.Errorf("decoding its sample: %w", err))
	}
	return &s
}

// checkDigests fails every dense run whose digest differs from the one
// all runs of its seed must share: the pinned digest for the default
// seed, otherwise the first run's.
func checkDigests(all []*sample, seed int64) {
	want := denseDigestOne
	if seed != defaultSeed && len(all) > 0 {
		want = all[0].Digest
	}
	for _, s := range all {
		if s.OK && s.Digest != want {
			s.fail(fmt.Errorf("dense: digest %.12s, want %.12s", s.Digest, want))
			s.Failed = s.Ops
		}
	}
}

func okSamples(ss []*sample) []*sample {
	var out []*sample
	for _, s := range ss {
		if s.OK {
			out = append(out, s)
		}
	}
	return out
}

// medianOf is the median of f over the samples.
func medianOf(ss []*sample, f func(*sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return median(xs)
}

func endToEndMetrics(m map[string]metricValue, good []*sample) {
	set := func(name string, v float64) { m[name] = metricValue{Value: v, Unit: unitOf(name)} }
	set("setup_s", medianOf(good, func(s *sample) float64 { return s.SetupS }))
	set("wall_s", medianOf(good, func(s *sample) float64 { return s.WallS }))
	set("cpu_s", medianOf(good, func(s *sample) float64 { return s.CPUS }))
	set("alloc_mb", medianOf(good, func(s *sample) float64 { return float64(s.AllocB) / 1e6 }))
	set("peak_rss_mb", medianOf(good, func(s *sample) float64 { return float64(s.PeakRSSKB) * 1024 / 1e6 }))
	set("units_per_s", medianOf(good, func(s *sample) float64 { return float64(s.Units) / s.WallS }))
}

// layerMetrics reports the traced run's per-layer values, plus the
// figures better taken over every timed run: pooled commit latencies,
// the dense world's event rate, GC activity and the tracing overhead.
func layerMetrics(m map[string]metricValue, good []*sample, tr *sample, pcts map[string]pctInfo) {
	set := func(name string, v float64) { m[name] = metricValue{Value: v, Unit: unitOf(name)} }
	for name, v := range tr.Layers {
		if unitOf(name) != "" {
			set(name, v)
		}
	}
	for name, p := range tr.Pcts {
		pcts[name] = p
	}
	var commits []float64
	for _, s := range append(good, tr) {
		commits = append(commits, s.CommitMs...)
	}
	if len(commits) > 0 {
		v, used := percentile(commits, 0.50)
		set("campaign.commit_ms.p50", v)
		pcts["campaign.commit_ms.p50"] = pctInfo{N: len(commits), P: used}
	}
	if good[0].Events > 0 {
		set("sim.events_per_s", medianOf(good, func(s *sample) float64 { return float64(s.Events) / s.WallS }))
	}
	set("go.gc_cycles", medianOf(good, func(s *sample) float64 { return float64(s.GCCycles) }))
	set("go.gc_pause_ms", medianOf(good, func(s *sample) float64 { return float64(s.GCPauseNs) / 1e6 }))
	set("bench.trace_overhead", tr.WallS/medianOf(good, func(s *sample) float64 { return s.WallS }))
}

// fill reports 0 for every listed metric the workload did not reach.
func fill(m map[string]metricValue, defs []metricDef) {
	for _, d := range defs {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = metricValue{Value: 0, Unit: d.Unit}
		}
	}
}

// unitOf returns the declared unit of a metric, or "" when it is not
// one the benchmark reports.
func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
