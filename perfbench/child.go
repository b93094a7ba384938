package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"greedy80211/internal/runner"
)

// sample is what one child process reports: one timed run of a
// workload. Ops counts the operations it attempted (units, HTTP
// requests, worlds); when the run fails its check every one of them
// counts as failed and none of its timings is used.
type sample struct {
	OK     bool   `json:"ok"`
	Err    string `json:"err,omitempty"`
	Ops    int    `json:"ops"`
	Failed int    `json:"failed"`

	SetupS    float64 `json:"setup_s"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	AllocB    uint64  `json:"alloc_bytes"`
	PeakRSSKB int64   `json:"peak_rss_kb"`
	Units     int     `json:"units"`
	Events    uint64  `json:"events,omitempty"`
	GCCycles  uint64  `json:"gc_cycles"`
	GCPauseNs uint64  `json:"gc_pause_ns"`
	Digest    string  `json:"digest,omitempty"`

	// CommitMs are the store commit latencies the program's own span
	// log recorded; the parent process pools them over every run so their
	// percentile has enough samples behind it.
	CommitMs []float64 `json:"commit_ms,omitempty"`
	// Layers are the traced run's per-layer values, and Pcts the sample
	// count and quantile behind each percentile among them.
	Layers map[string]float64 `json:"layers,omitempty"`
	Pcts   map[string]pctInfo `json:"pcts,omitempty"`
}

// pctInfo records what a reported percentile rests on: N samples, and
// the quantile P the reporting rule allowed.
type pctInfo struct {
	N int     `json:"n"`
	P float64 `json:"p"`
}

// fail marks the sample failed with err.
func (s *sample) fail(err error) {
	s.OK = false
	if s.Err == "" {
		s.Err = err.Error()
	}
}

// phase measures the timed part of a run from inside the process.
type phase struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
	gcs   uint64
	pause uint64
}

var phaseMetrics = []string{"/gc/heap/allocs:bytes", "/gc/cycles/total:gc-cycles"}

func readRuntime() (alloc, gcs, pauseNs uint64) {
	ms := make([]metrics.Sample, len(phaseMetrics))
	for i, n := range phaseMetrics {
		ms[i].Name = n
	}
	metrics.Read(ms)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return ms[0].Value.Uint64(), ms[1].Value.Uint64(), mem.PauseTotalNs
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func startPhase() phase {
	var p phase
	p.alloc, p.gcs, p.pause = readRuntime()
	p.cpu = cpuTime()
	p.wall = time.Now()
	return p
}

// stop records the phase's wall, CPU, allocation and GC figures.
func (p phase) stop(s *sample) {
	s.WallS = time.Since(p.wall).Seconds()
	s.CPUS = (cpuTime() - p.cpu).Seconds()
	alloc, gcs, pause := readRuntime()
	s.AllocB = alloc - p.alloc
	s.GCCycles = gcs - p.gcs
	s.GCPauseNs = pause - p.pause
}

// childMain runs one timed run of workload and prints its sample as
// the last line of standard output.
func childMain(workload string, seed int64, work, ref, spanOut string) int {
	runner.SetLimit(runtime.GOMAXPROCS(0))
	var tr *tracer
	if spanOut != "" {
		tr = &tracer{}
	}
	s := &sample{OK: true, Layers: map[string]float64{}, Pcts: map[string]pctInfo{}}
	var err error
	switch workload {
	case "gate-cold":
		err = runGate(s, tr, work, "", true)
	case "gate-warm":
		err = runGate(s, tr, work, ref, false)
	case "fanout":
		err = runFanout(s, tr, work, ref, seed)
	case "dense100":
		err = runDense(s, tr, seed)
	}
	if err != nil {
		s.fail(err)
	}
	if tr != nil && s.OK {
		if err := layerProbes(s, work, seed); err != nil {
			s.fail(err)
		}
		for layer, v := range tr.layerSelf() {
			s.Layers["self."+layer+"_s"] = v
		}
		if err := tr.writeChrome(spanOut, "perfbench "+workload); err != nil {
			s.fail(err)
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.PeakRSSKB = ru.Maxrss
	}
	if !s.OK {
		s.Failed = s.Ops
	}
	line, err := json.Marshal(s)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
