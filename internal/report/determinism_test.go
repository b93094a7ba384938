package report

import (
	"context"
	"io"
	"runtime"
	"strings"
	"testing"

	"greedy80211/internal/campaign"
	"greedy80211/internal/runner"
	"greedy80211/internal/stats"
)

// quickSets is a tiny real-artifact refdata set (fig2 in quick mode) so
// the determinism tests simulate for milliseconds, not seconds. Bands
// are irrelevant here — both sides of each comparison share them.
func quickSets() []*RefSet {
	return []*RefSet{{
		Artifact: "fig2",
		Claim:    "GS CW pins at CWmin",
		Config:   Config{Seeds: 1, Duration: "200ms", Quick: true},
		Checks: []Check{
			{ID: "gs-cw", Kind: "point", Series: "GS avg CW", X: 0,
				Want: 31, Pass: stats.Band{Rel: 0.25}},
			{ID: "ns-cw", Kind: "point", Series: "NS avg CW", X: 40,
				Want: 31, Pass: stats.Band{Rel: 0.25}},
		},
	}}
}

// renderStore evaluates sets through store and renders the report.
func renderStore(t *testing.T, sets []*RefSet, store *campaign.Store, compute bool) string {
	t.Helper()
	rep, err := FromStore(context.Background(), sets, store, compute, io.Discard)
	if err != nil {
		t.Fatalf("FromStore(compute=%v): %v", compute, err)
	}
	var md strings.Builder
	RenderMarkdown(&md, rep, nil)
	return md.String()
}

// renderFresh computes sets through a new, empty store.
func renderFresh(t *testing.T, sets []*RefSet) string {
	t.Helper()
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return renderStore(t, sets, store, true)
}

// TestReportSequentialMatchesParallel: the rendered report is
// byte-identical whether artifacts regenerate on one worker or many
// (each width computes into its own cold store).
func TestReportSequentialMatchesParallel(t *testing.T) {
	sets := quickSets()
	defer runner.SetLimit(runtime.GOMAXPROCS(0))
	runner.SetLimit(1)
	seq := renderFresh(t, sets)
	runner.SetLimit(8)
	par := renderFresh(t, sets)
	if seq != par {
		t.Error("sequential and parallel reports differ byte-wise")
	}
}

// TestReportStoreColdWarmReadOnlyAgree: a report computed into a cold
// store, recomputed over the warm store (all cache hits), and read back
// without compute (zero simulation) is the same bytes each time.
func TestReportStoreColdWarmReadOnlyAgree(t *testing.T) {
	sets := quickSets()
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cold := renderStore(t, sets, store, true)
	warm := renderStore(t, sets, store, true)
	read := renderStore(t, sets, store, false)
	if warm != cold {
		t.Error("warm-store report differs from cold-store report")
	}
	if read != cold {
		t.Error("read-only report differs from cold-store report")
	}
}

// TestFromStoreNoComputeColdGates: a cold store in read-only mode must
// yield gating missing verdicts, not simulate behind CI's back.
func TestFromStoreNoComputeColdGates(t *testing.T) {
	sets := quickSets()
	store, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := FromStore(context.Background(), sets, store, false, io.Discard)
	if err != nil {
		t.Fatalf("FromStore: %v", err)
	}
	if rep.Missing != 2 || rep.Gating(false) != 2 {
		t.Fatalf("cold read-only store: missing=%d gating=%d, want 2/2", rep.Missing, rep.Gating(false))
	}
}
