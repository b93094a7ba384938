package campaignd

import (
	"encoding/json"
	"testing"

	"greedy80211/internal/campaign"
)

// FuzzWireUnit decodes arbitrary bytes as a lease answer and runs a
// worker's checks on any grant. Whatever a server or a broken
// connection sends, Unit and VerifyKey must return an error rather than
// panic, and VerifyKey must pass only on the key the unit hashes to.
// The committed corpus holds grants with empty, short and non-hex keys.
func FuzzWireUnit(f *testing.F) {
	units, err := testSpec().Units()
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(LeaseResponse{Lease: &LeaseGrant{LeaseID: "l1", Unit: wireUnit(units[0])}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp LeaseResponse
		if json.Unmarshal(data, &resp) != nil || resp.Lease == nil {
			return
		}
		wu := resp.Lease.Unit
		u, err := wu.Unit()
		if verr := wu.VerifyKey(); err == nil && verr == nil && campaign.Key(u.Artifact, u.Config) != wu.Key {
			t.Fatalf("VerifyKey passed key %q that the unit does not hash to", wu.Key)
		}
	})
}
