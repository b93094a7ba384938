package scenario

import (
	"strings"
	"testing"

	"greedy80211/internal/phys"
)

// TestConfigErrorSpecConflictRejected: a Config whose Error spec carries
// a second model's parameter beside its own kind is an error, not a
// silent precedence decision — NewWorld surfaces the spec's validation.
func TestConfigErrorSpecConflictRejected(t *testing.T) {
	ladder := map[int64]float64{1e6: 0.1}
	for name, spec := range map[string]phys.ErrorSpec{
		"spec+ber":     {Kind: phys.ErrorKindFER, FER: 0.2, BER: 1e-4},
		"spec+fer":     {Kind: phys.ErrorKindBER, BER: 1e-4, FER: 0.2},
		"spec+datafer": {Kind: phys.ErrorKindFER, FER: 0.2, MinUnits: phys.DataFERMinUnits},
		"spec+ladder":  {Kind: phys.ErrorKindFER, FER: 0.2, FERByRate: ladder},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := NewWorld(Config{Seed: 1, Error: spec}); err == nil || !strings.Contains(err.Error(), "conflicts") {
				t.Fatalf("NewWorld = %v, want conflict error", err)
			}
		})
	}
	// A kindless spec with parameters is rejected too.
	if _, err := NewWorld(Config{Seed: 1, Error: phys.ErrorSpec{BER: 1e-4}}); err == nil {
		t.Fatal("NewWorld accepted a kindless spec with parameters")
	}
}
