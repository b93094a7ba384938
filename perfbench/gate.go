package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/experiments"
	"greedy80211/internal/metrics"
	"greedy80211/internal/report"
)

// The gate passes every simulation check and every model check; a run
// that renders anything else is wrong even if the bytes happen to match.
const (
	gateChecks  = 48
	modelChecks = 36
)

// runGate times the reproduction gate: report.FromStore over a fresh
// store in work (compute) or over the store the run filled beforehand
// (prefilled, !compute), which the gate then only reads; then
// RenderMarkdown and WriteVerdicts. Both outputs must be byte-identical
// to the committed RESULTS.md and verdicts.json.
func runGate(s *sample, tr *tracer, work, prefilled string, compute bool) error {
	setup := time.Now()
	dir := filepath.Join(work, "store")
	if prefilled != "" {
		dir = prefilled
	}
	store, err := campaign.OpenStore(dir)
	if err != nil {
		return err
	}
	sets, err := report.LoadEmbedded()
	if err != nil {
		return err
	}
	bench, err := report.LatestBenchSnapshot(".")
	if err != nil {
		return err
	}
	s.SetupS = time.Since(setup).Seconds()
	s.Units = len(sets)
	s.Ops = len(sets)

	ctx := context.Background()
	p := startPhase()
	var (
		rep  *report.Report
		md   strings.Builder
		vj   bytes.Buffer
		root = tr.begin("bench", "gate", "main", -1)
	)
	if tr == nil {
		rep, err = report.FromStore(ctx, sets, store, compute, io.Discard)
	} else {
		rep, err = tracedFromStore(ctx, s, tr, root, sets, store, compute)
	}
	if err == nil {
		id := tr.begin("report", "report.RenderMarkdown+WriteVerdicts", "main", root)
		report.RenderMarkdown(&md, rep, bench)
		err = report.WriteVerdicts(&vj, rep)
		tr.end(id)
		if tr != nil {
			s.Layers["report.render_s"] = tr.duration(id)
		}
	}
	tr.end(root)
	p.stop(s)
	if err != nil {
		return err
	}

	if compute {
		if err := engineSpans(s, tr, store, tr.find("campaign.Run")); err != nil {
			return err
		}
	}
	return checkGate(rep, md.String(), vj.Bytes(), ".")
}

// tracedFromStore is report.FromStore split at its public calls so each
// gets a span: campaign.Run (compute only), campaign.Results and
// report.Evaluate. The byte-identity check on its output proves it does
// the same work.
func tracedFromStore(ctx context.Context, s *sample, tr *tracer, root int,
	sets []*report.RefSet, store *campaign.Store, compute bool) (*report.Report, error) {
	cfg, err := report.SharedConfig(sets)
	if err != nil {
		return nil, err
	}
	spec := &campaign.Spec{
		Artifacts: report.Artifacts(sets),
		Config:    campaign.SpecConfig{Seeds: cfg.Seeds, Duration: cfg.Duration, Quick: cfg.Quick},
	}
	if compute {
		id := tr.begin("campaign", "campaign.Run", "main", root)
		crep, err := campaign.Run(ctx, spec, campaign.Options{Store: store, Log: io.Discard})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		if len(crep.Failures) > 0 {
			return nil, crep.Failures[0].Err
		}
	}
	id := tr.begin("campaign", "campaign.Results", "main", root)
	urs, err := campaign.Results(spec, store)
	tr.end(id)
	s.Layers["campaign.results_s"] = tr.duration(id)
	if err != nil {
		return nil, err
	}
	results := make(map[string]*experiments.Result, len(urs))
	snaps := make(map[string][]*metrics.Snapshot, len(urs))
	for _, ur := range urs {
		results[ur.Unit.Artifact] = ur.Result
		snaps[ur.Unit.Artifact] = ur.Snapshots
	}
	id = tr.begin("report", "report.Evaluate", "main", root)
	rep, err := report.Evaluate(sets, results, snaps)
	tr.end(id)
	s.Layers["report.evaluate_s"] = tr.duration(id)
	return rep, err
}

// engineSpans reads the compute and commit spans the campaign engine
// logged beside its journal. Every run contributes commit latencies to
// the pooled distribution; the traced run also attaches the spans under
// its campaign.Run span and derives the compute figures.
func engineSpans(s *sample, tr *tracer, store *campaign.Store, parent int) error {
	spans, err := campaign.ReadSpans(store.SpanPath())
	if err != nil {
		return err
	}
	var compute []float64
	var lanes []time.Time
	for _, sp := range spans {
		start, end := time.Unix(0, sp.StartUnixNs), time.Unix(0, sp.EndUnixNs)
		switch sp.Phase {
		case "compute":
			compute = append(compute, end.Sub(start).Seconds())
		case "commit":
			s.CommitMs = append(s.CommitMs, end.Sub(start).Seconds()*1e3)
		default:
			continue
		}
		layer := "experiments"
		if sp.Phase == "commit" {
			layer = "campaign"
		}
		tr.add(span{Name: sp.Phase + " " + sp.Unit, Layer: layer, Track: laneFor(&lanes, start, end),
			Parent: parent, Start: start, End: end})
	}
	if tr != nil {
		s.Layers["experiments.unit_compute_s.sum"] = sum(compute)
		s.Layers["experiments.unit_compute_s.max"] = maxOf(compute)
		s.Layers["runner.busy_ratio"] = sum(compute) / (s.WallS * float64(runtime.GOMAXPROCS(0)))
	}
	return nil
}

// laneFor picks the first track free at start, so parallel units draw
// side by side instead of overlapping on one row.
func laneFor(lanes *[]time.Time, start, end time.Time) string {
	for i, busy := range *lanes {
		if !start.Before(busy) {
			(*lanes)[i] = end
			return fmt.Sprintf("engine-%d", i+1)
		}
	}
	*lanes = append(*lanes, end)
	return fmt.Sprintf("engine-%d", len(*lanes))
}

// checkGate requires a passing gate whose rendered report and verdicts
// match the committed files in dir byte for byte.
func checkGate(rep *report.Report, md string, verdicts []byte, dir string) error {
	if rep.Pass != gateChecks || rep.Checks() != gateChecks {
		return fmt.Errorf("gate: %d/%d checks pass, want %d/%d", rep.Pass, rep.Checks(), gateChecks, gateChecks)
	}
	if rep.ModelPass != modelChecks || rep.ModelChecks() != modelChecks {
		return fmt.Errorf("gate: %d/%d model checks pass, want %d/%d",
			rep.ModelPass, rep.ModelChecks(), modelChecks, modelChecks)
	}
	for _, f := range []struct {
		name string
		got  []byte
	}{{"RESULTS.md", []byte(md)}, {"verdicts.json", verdicts}} {
		want, err := os.ReadFile(filepath.Join(dir, f.name))
		if err != nil {
			return err
		}
		if !bytes.Equal(f.got, want) {
			return errors.New("gate: rendered " + f.name + " differs from the committed file")
		}
	}
	return nil
}
