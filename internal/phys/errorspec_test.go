package phys

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"
)

func TestErrorSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    ErrorSpec
		wantErr string // substring; empty = valid
	}{
		{"zero value", ErrorSpec{}, ""},
		{"ber", BERSpec(2e-4), ""},
		{"fer", FERSpec(0.2), ""},
		{"data fer", DataFERSpec(0.5), ""},
		{"rate ladder", RateLadderSpec(map[int64]float64{11e6: 0.7}, 200), ""},
		{"params without kind", ErrorSpec{BER: 1e-4}, "no kind"},
		{"unknown kind", ErrorSpec{Kind: "bogus"}, "unknown"},
		{"ber out of range", BERSpec(1.5), "out of [0,1]"},
		{"fer out of range", FERSpec(-0.1), "out of [0,1]"},
		{"ber with fer", ErrorSpec{Kind: ErrorKindBER, BER: 1e-4, FER: 0.2}, "conflicts"},
		{"fer with ladder", ErrorSpec{Kind: ErrorKindFER, FER: 0.2, FERByRate: map[int64]float64{1e6: 0.1}}, "conflicts"},
		{"data fer with ber", ErrorSpec{Kind: ErrorKindDataFER, FER: 0.2, BER: 1e-4}, "conflicts"},
		{"ladder with fer", ErrorSpec{Kind: ErrorKindRateLadder, FERByRate: map[int64]float64{1e6: 0.1}, FER: 0.2}, "conflicts"},
		{"ladder bad rate", ErrorSpec{Kind: ErrorKindRateLadder, FERByRate: map[int64]float64{0: 0.1}}, "non-positive rate"},
		{"negative min units", ErrorSpec{Kind: ErrorKindDataFER, FER: 0.2, MinUnits: -1}, "non-negative"},
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

// TestErrorSpecModelsMatchLegacy pins the spec-built models to the exact
// model values the gated artifacts were first computed with, so no spec
// can shift a single RNG draw.
func TestErrorSpecModelsMatchLegacy(t *testing.T) {
	em, rem, err := BERSpec(2e-4).Models()
	if err != nil || rem != nil {
		t.Fatalf("BERSpec: em=%v rem=%v err=%v", em, rem, err)
	}
	if got, want := em.(UnitErrorModel), (UnitErrorModel{BER: 2e-4}); got != want {
		t.Fatalf("BERSpec model = %+v, want %+v", got, want)
	}
	em, _, err = FERSpec(0.3).Models()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := em.(FixedFERModel), (FixedFERModel{Rate: 0.3}); got != want {
		t.Fatalf("FERSpec model = %+v, want %+v", got, want)
	}
	em, _, err = DataFERSpec(0.5).Models()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := em.(SizeGatedFER), (SizeGatedFER{Rate: 0.5, MinUnits: DataFERMinUnits}); got != want {
		t.Fatalf("DataFERSpec model = %+v, want %+v", got, want)
	}
	ladder := map[int64]float64{11e6: 0.7, 5_500_000: 0.15}
	em, rem, err = RateLadderSpec(ladder, 200).Models()
	if err != nil || em != nil {
		t.Fatalf("RateLadderSpec: em=%v err=%v", em, err)
	}
	rl := rem.(RateLadderFER)
	if rl.MinUnits != 200 || rl.FERByRate[11e6] != 0.7 {
		t.Fatalf("RateLadderSpec model = %+v", rl)
	}
	// Same spec, same draws: the materialized model behaves like the
	// directly constructed one under an identical RNG stream.
	a, b := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
	direct := UnitErrorModel{BER: 2e-4}
	spec, _, _ := BERSpec(2e-4).Models()
	for i := 0; i < 1000; i++ {
		if direct.FrameError(a, 1048) != spec.FrameError(b, 1048) {
			t.Fatalf("draw %d diverged", i)
		}
	}
}

func TestErrorSpecJSONRoundTrip(t *testing.T) {
	in := DataFERSpec(0.5)
	raw, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out ErrorSpec
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Kind != ErrorKindDataFER || out.FER != 0.5 {
		t.Fatalf("round trip = %+v (raw %s)", out, raw)
	}
	if !(ErrorSpec{}).IsZero() || in.IsZero() {
		t.Fatal("IsZero misclassifies")
	}
}
