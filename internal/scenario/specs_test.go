package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"greedy80211/internal/greedy"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

func TestPolicySpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    PolicySpec
		wantErr string // substring; empty = valid
	}{
		{"zero", PolicySpec{}, ""},
		{"nav", PolicySpec{Name: PolicyNAVInflation, NAVInflation: 5 * sim.Millisecond}, ""},
		{"nav frames", PolicySpec{Name: PolicyNAVInflation, Frames: "all"}, ""},
		{"spoof", PolicySpec{Name: PolicyACKSpoofing, Victims: []string{"R1"}}, ""},
		{"fake", PolicySpec{Name: PolicyFakeACKs, GreedyPercent: 50}, ""},
		{"unknown name", PolicySpec{Name: "bogus"}, "unknown policy"},
		{"params without name", PolicySpec{NAVInflation: sim.Millisecond}, "no policy name"},
		{"bad percent", PolicySpec{Name: PolicyFakeACKs, GreedyPercent: 101}, "out of [0,100]"},
		{"bad frames", PolicySpec{Name: PolicyNAVInflation, Frames: "bogus"}, "unknown"},
		{"nav victims", PolicySpec{Name: PolicyNAVInflation, Victims: []string{"R1"}}, "victims"},
		{"spoof nav knob", PolicySpec{Name: PolicyACKSpoofing, NAVInflation: sim.Millisecond}, "NAV"},
		{"fake extra knob", PolicySpec{Name: PolicyFakeACKs, Frames: "ack"}, "greedy percentage"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.spec.Validate()
			if tt.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tt.wantErr)
			}
		})
	}
}

func TestStationSpecJSONRoundTrip(t *testing.T) {
	in := StationSpec{
		Policy:   PolicySpec{Name: PolicyACKSpoofing, GreedyPercent: 30, Victims: []string{"R1", "R2"}},
		QueueCap: 64,
		Position: &phys.Position{X: 12, Y: 7},
		Channel:  6,
	}
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out StationSpec
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Policy.Name != PolicyACKSpoofing || out.Policy.GreedyPercent != 30 ||
		len(out.Policy.Victims) != 2 || out.QueueCap != 64 ||
		out.Position == nil || out.Position.X != 12 || out.Channel != 6 {
		t.Fatalf("round trip = %+v (raw %s)", out, raw)
	}
}

// TestStationSpecMatchesClosure: a spec-built station is identical to the
// equivalent hand-built one — the spec is a pure data encoding of the
// same construction order and RNG draws.
func TestStationSpecMatchesClosure(t *testing.T) {
	goodputs := func(opts func(w *World, i int) StationOpts) []float64 {
		t.Helper()
		w, err := BuildPairs(PairsConfig{Config: Config{Seed: 11, UseRTSCTS: true}, N: 3, Transport: UDP,
			ReceiverOpts: opts})
		if err != nil {
			t.Fatal(err)
		}
		w.Run(500 * sim.Millisecond)
		var out []float64
		for _, fl := range w.Flows() {
			out = append(out, fl.GoodputMbps(500*sim.Millisecond))
		}
		return out
	}
	closure := goodputs(func(w *World, i int) StationOpts {
		if i != 2 {
			return StationOpts{}
		}
		return StationOpts{Policy: greedy.NewNAVInflation(w.Sched.RNG(), greedy.CTSAndACK, 10*sim.Millisecond, 100)}
	})
	specs := []StationSpec{{}, {}, {Policy: PolicySpec{Name: PolicyNAVInflation}}}
	spec := goodputs(func(w *World, i int) StationOpts {
		opts, err := specs[i].opts(w)
		if err != nil {
			t.Fatal(err)
		}
		return opts
	})
	if len(closure) != len(spec) {
		t.Fatalf("flow counts differ: %d vs %d", len(closure), len(spec))
	}
	for i := range closure {
		if closure[i] != spec[i] {
			t.Fatalf("flow %d: closure %v != spec %v", i+1, closure[i], spec[i])
		}
	}
}

// oneCell is a single-cell topology whose stations take specs.
func oneCell(stations int, specs ...StationSpec) CellsConfig {
	return CellsConfig{Config: Config{Seed: 1}, Transport: UDP, Topology: TopologySpec{
		Cells: []CellSpec{{Stations: stations, StationSpecs: specs}},
	}}
}

func TestStationSpecErrors(t *testing.T) {
	// A spoofing victim that has not been added yet is reported.
	_, err := BuildCells(oneCell(1, StationSpec{Policy: PolicySpec{Name: PolicyACKSpoofing, Victims: []string{"nope"}}}))
	if err == nil || !strings.Contains(err.Error(), "not added") {
		t.Fatalf("missing victim: err = %v", err)
	}
}

// TestStationSpecPositionOverride: a spec's Position replaces the
// builder's default placement.
func TestStationSpecPositionOverride(t *testing.T) {
	w, err := BuildCells(oneCell(2, StationSpec{Position: &phys.Position{X: 40, Y: 9}}))
	if err != nil {
		t.Fatal(err)
	}
	st, ok := w.Station(CellStationName(0, 0))
	if !ok {
		t.Fatal("C1S1 missing")
	}
	pos, ok := w.Medium.Position(st.ID)
	if !ok || pos.X != 40 || pos.Y != 9 {
		t.Fatalf("C1S1 at %+v, want the spec's override", pos)
	}
	// The station without a spec keeps its ring placement.
	st, _ = w.Station(CellStationName(0, 1))
	if pos, _ := w.Medium.Position(st.ID); pos.X != -DefaultCellRadius {
		t.Fatalf("C1S2 at %+v, want the default ring slot", pos)
	}
}
