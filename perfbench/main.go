// Command perfbench is the repository's benchmark. It runs one of four
// closed-loop workloads against the program's public packages, each
// timed run in a fresh process, checks every run's output for
// correctness, and prints one JSON result line:
//
//	gate-cold  report.FromStore(compute=true) over a fresh store, then render
//	gate-warm  the same gate with compute=false over a prefilled store
//	fanout     an in-process campaignd server drained by nproc HTTP workers
//	dense100   one 100-cell, 2100-radio scenario.BuildCells world for 1 s
//
// Build and run it from the repository root through perfbench/run.sh:
//
//	bash perfbench/run.sh --workload gate-cold --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 one extra traced run adds the per-layer metrics and writes a
// Perfetto-loadable span file under .bench_build/perfbench/.
package main

import (
	"flag"
	"fmt"
	"os"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off: medians over the run's timed processes.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"alloc_mb", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"units_per_s", "1/s", "higher"},
}

// perLayer are the single-layer metrics of the traced run. A workload
// that does not reach a layer reports 0 for it.
var perLayer = []metricDef{
	{"experiments.unit_compute_s.sum", "s", "lower"},
	{"experiments.unit_compute_s.max", "s", "lower"},
	{"runner.busy_ratio", "ratio", "higher"},
	{"campaign.commit_ms.p50", "ms", "lower"},
	{"campaign.results_s", "s", "lower"},
	{"campaign.journal_append_us.p50", "us", "lower"},
	{"analytic.predict_s", "s", "lower"},
	{"report.evaluate_s", "s", "lower"},
	{"report.render_s", "s", "lower"},
	{"campaignd.lease_ms.p50", "ms", "lower"},
	{"campaignd.lease_ms.p98", "ms", "lower"},
	{"campaignd.complete_ms.p50", "ms", "lower"},
	{"campaignd.complete_ms.p98", "ms", "lower"},
	{"campaignd.submit_ms", "ms", "lower"},
	{"campaignd.backend_put_ms.mean", "ms", "lower"},
	{"campaignd.backend_stat_per_lease", "count", "lower"},
	{"campaignd.leases_per_unit", "ratio", "lower"},
	{"client.compute_ms.p50", "ms", "lower"},
	{"client.protocol_share", "ratio", "lower"},
	{"client.waits", "count", "lower"},
	{"scenario.build_s", "s", "lower"},
	{"sim.events_per_s", "1/s", "higher"},
	{"sim.sched_fanout_ns", "ns", "lower"},
	{"sim.events_per_s.16cells", "1/s", "higher"},
	{"pool.events.chunks", "count", "lower"},
	{"pool.frames.chunks", "count", "lower"},
	{"pool.arrivals.chunks", "count", "lower"},
	{"sim.events", "count", "lower"},
	{"medium.avg_neighbors", "count", "lower"},
	{"medium.channel_utilization", "ratio", "higher"},
	{"mac.data_sent", "count", "lower"},
	{"mac.retries", "count", "lower"},
	{"mac.msdu_success", "count", "higher"},
	{"mac.success_ratio", "ratio", "higher"},
	{"self.campaign_s", "s", "lower"},
	{"self.experiments_s", "s", "lower"},
	{"self.report_s", "s", "lower"},
	{"self.campaignd_s", "s", "lower"},
	{"self.scenario_s", "s", "lower"},
	{"self.sim_s", "s", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_pause_ms", "ms", "lower"},
	{"bench.trace_overhead", "ratio", "lower"},
}

// workloads are the names --workload accepts.
var workloads = []string{"gate-cold", "gate-warm", "fanout", "dense100"}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "workload to run: gate-cold, gate-warm, fanout or dense100")
		seed     = fs.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 25, "how long to keep starting timed runs")
		traced   = fs.Int("trace", 0, "1 adds a traced run and reports the per-layer metrics")
		child    = fs.Bool("child", false, "internal: execute one timed run in this process")
		work     = fs.String("work", "", "internal: the child's scratch directory")
		ref      = fs.String("ref", "", "internal: prefilled or reference store for the child")
		spanOut  = fs.String("spans", "", "internal: trace the child and write its spans here")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if !known(*workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", *workload, workloads)
		return 2
	}
	if *child {
		return childMain(*workload, *seed, *work, *ref, *spanOut)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	return drive(*workload, *seed, *seconds, *traced == 1)
}

func known(w string) bool {
	for _, k := range workloads {
		if k == w {
			return true
		}
	}
	return false
}
