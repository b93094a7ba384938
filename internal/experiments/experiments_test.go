package experiments

import (
	"strings"
	"testing"

	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
)

// Every data-bearing artifact of the paper must be registered (fig20 is
// the GRC flow chart — no data to regenerate).
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig18", "fig19", "fig21", "fig22", "fig23", "fig24",
		"tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7", "tab8", "tab9",
		// Extensions beyond the paper (Section IX future work and the
		// DOMINO sender-side baseline).
		"exta", "extb", "extc", "abl1", "abl2", "abl3",
		// Multi-BSS extension (beyond the paper).
		"dense1",
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("artifact %s not registered", id)
		}
	}
	if got := len(All()); got != len(want) {
		t.Errorf("registry has %d artifacts, want %d", got, len(want))
	}
}

func TestAllSorted(t *testing.T) {
	all := All()
	// Figures numerically before tables; fig2 before fig10.
	idx := make(map[string]int, len(all))
	for i, r := range all {
		idx[r.ID] = i
	}
	if idx["fig2"] > idx["fig10"] {
		t.Error("fig2 should sort before fig10")
	}
	if idx["fig24"] > idx["tab1"] {
		t.Error("figures should sort before tables")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", RunConfig{Quick: true}); err == nil {
		t.Error("unknown artifact accepted")
	}
}

// A seed count or duration that normalizes to a non-positive value runs
// no worlds; Run must refuse it instead of returning a table of zeros.
func TestRunRejectsNonPositiveConfig(t *testing.T) {
	for name, cfg := range map[string]RunConfig{
		"negative seeds":    {Seeds: -1},
		"negative duration": {Quick: true, Duration: -sim.Second},
	} {
		if _, err := Run("fig1", cfg); err == nil {
			t.Errorf("%s: Run accepted %+v", name, cfg)
		}
	}
}

func TestNormalizeDefaults(t *testing.T) {
	c := RunConfig{}.Normalize()
	if c.Seeds != DefaultSeeds || c.Duration != DefaultDuration {
		t.Errorf("defaults = %+v", c)
	}
	q := RunConfig{Quick: true}.Normalize()
	if q.Seeds != 1 || q.Duration != 2*sim.Second {
		t.Errorf("quick defaults = %+v", q)
	}
}

func TestPick(t *testing.T) {
	full := []float64{1, 2, 3, 4, 5}
	if got := pick(RunConfig{}, full); len(got) != 5 {
		t.Error("non-quick pick trimmed")
	}
	got := pick(RunConfig{Quick: true}, full)
	if len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Errorf("quick pick = %v", got)
	}
}

// quickRun executes one artifact in quick mode and sanity-checks output.
func quickRun(t *testing.T, id string) *Result {
	t.Helper()
	res, err := Run(id, RunConfig{Quick: true, BaseSeed: 7})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := res.String()
	if !strings.Contains(out, id) || len(out) < 50 {
		t.Fatalf("%s output too thin:\n%s", id, out)
	}
	return res
}

func TestFig1Quick(t *testing.T) {
	res := quickRun(t, "fig1")
	// At the largest inflation the greedy receiver must dominate.
	g := res.Series[0].Series
	nr, gr := g[0], g[1]
	lastNR := nr.Points[len(nr.Points)-1].Y
	lastGR := gr.Points[len(gr.Points)-1].Y
	if lastGR < 5*lastNR {
		t.Errorf("fig1 at max inflation: GR %.2f vs NR %.2f, want starvation", lastGR, lastNR)
	}
	// At zero inflation the two are comparable.
	if nr.Points[0].Y < 0.5*gr.Points[0].Y {
		t.Errorf("fig1 baseline unfair: %.2f vs %.2f", nr.Points[0].Y, gr.Points[0].Y)
	}
}

// TestPoolReportWiring: RunConfig.Pools folds one pool-occupancy sample
// per simulated world (fig1 builds one world per sweep point and seed)
// and renders every pooled resource — the path behind
// "experiments -metrics".
func TestPoolReportWiring(t *testing.T) {
	rep := new(scenario.PoolReport)
	cfg := RunConfig{Quick: true, Seeds: 2, BaseSeed: 7, Pools: rep}
	res, err := Run("fig1", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := len(res.Series[0].Series[0].Points) * cfg.Seeds
	if got := rep.Worlds(); got != want {
		t.Errorf("pool report folded %d worlds, want %d", got, want)
	}
	s := rep.String()
	for _, name := range []string{"frames", "packets", "arrivals", "events"} {
		if !strings.Contains(s, name) {
			t.Errorf("pool report missing %q:\n%s", name, s)
		}
	}
}

func TestFig2Quick(t *testing.T) {
	res := quickRun(t, "fig2")
	gs, ns := res.Series[0].Series[0], res.Series[0].Series[1]
	// GS stays near CWmin at max inflation; NS's CW grows.
	lastGS := gs.Points[len(gs.Points)-1].Y
	lastNS := ns.Points[len(ns.Points)-1].Y
	if lastGS > 80 {
		t.Errorf("GS avg CW %.0f, want near 31", lastGS)
	}
	if lastNS < lastGS {
		t.Errorf("NS avg CW %.0f not above GS %.0f under inflation", lastNS, lastGS)
	}
}

func TestFig3Quick(t *testing.T) {
	res := quickRun(t, "fig3")
	meas, model := res.Series[0].Series[0], res.Series[0].Series[1]
	for i := range meas.Points {
		m, p := meas.Points[i].Y, model.Points[i].Y
		if m < 0 || m > 1 || p < 0 || p > 1 {
			t.Fatalf("ratios out of range: measured %v model %v", m, p)
		}
		diff := m - p
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.2 {
			t.Errorf("model error %.2f at v=%v (measured %.2f vs model %.2f)",
				diff, meas.Points[i].X, m, p)
		}
	}
}

func TestTab3Quick(t *testing.T) {
	res := quickRun(t, "tab3")
	if len(res.Tables) != 1 || len(res.Tables[0].Rows) != 5 {
		t.Fatalf("tab3 shape wrong: %+v", res.Tables)
	}
}

func TestTab1Quick(t *testing.T) {
	res := quickRun(t, "tab1")
	if len(res.Tables[0].Rows) != 2 {
		t.Fatalf("tab1 should have 2 band rows")
	}
}

func TestFig22Quick(t *testing.T) {
	res := quickRun(t, "fig22")
	fp := res.Series[0].Series[0]
	if fp.Points[0].Y < fp.Points[len(fp.Points)-1].Y {
		t.Error("false positives should fall as the threshold grows")
	}
}

// TestEveryArtifactRunsQuick executes the entire registry in quick mode —
// the paper's full evaluation end to end. Skipped with -short.
func TestEveryArtifactRunsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep skipped in -short mode")
	}
	for _, reg := range All() {
		reg := reg
		t.Run(reg.ID, func(t *testing.T) {
			res, err := reg.Runner(RunConfig{Quick: true, BaseSeed: 3})
			if err != nil {
				t.Fatalf("%s failed: %v", reg.ID, err)
			}
			if len(res.Tables) == 0 && len(res.Series) == 0 {
				t.Fatalf("%s produced no output", reg.ID)
			}
		})
	}
}
