package campaignd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/obs"
)

// statCounter counts the backend Stat calls made through it; a Has
// probe of the store is one Stat.
type statCounter struct {
	campaign.Backend
	stats atomic.Int64
}

func (b *statCounter) Stat(name string) (campaign.ObjectInfo, error) {
	b.stats.Add(1)
	return b.Backend.Stat(name)
}

// newCountingServer stands up a Server whose store counts backend
// Stats. The returned store writes the same directory the server
// serves, as a second writer (say, a local `campaign run`) would.
func newCountingServer(t *testing.T) (*httptest.Server, *campaign.Store, *statCounter) {
	t.Helper()
	dir := t.TempDir()
	inner, err := campaign.NewDirBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	counter := &statCounter{Backend: inner}
	store := campaign.NewStore(counter, filepath.Join(dir, "journal.jsonl"))
	srv, err := New(Config{Store: store, Logger: obs.LogfLogger(t.Logf)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, store, counter
}

// seedsSpec is a quick tab3 campaign over base seeds 1..n: n analytic
// units, each computed in well under a millisecond.
func seedsSpec(n int) *campaign.Spec {
	spec := testSpec()
	for i := 1; i <= n; i++ {
		spec.BaseSeeds = append(spec.BaseSeeds, int64(i))
	}
	return spec
}

// stubPayload computes one unit of spec. The server validates an
// upload's encoding, not which unit it came from, so every upload of a
// test drain may carry these bytes.
func stubPayload(t *testing.T, spec *campaign.Spec) (result, metrics string) {
	t.Helper()
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	r, m, err := campaign.ComputeUnit(units[0])
	if err != nil {
		t.Fatal(err)
	}
	return string(r), string(m)
}

// drain leases and completes units of campaign id with one sequential
// worker until the server answers done, returning the granted keys in
// grant order and the done answer.
func drain(t *testing.T, ts, id, result, metrics string) ([]string, LeaseResponse) {
	t.Helper()
	var keys []string
	for {
		var lr LeaseResponse
		doJSON(t, "POST", ts+"/v1/campaigns/"+id+"/lease", LeaseRequest{Worker: "w"}, &lr, 200)
		if lr.Done {
			return keys, lr
		}
		if lr.Lease == nil {
			t.Fatalf("a lone worker was told to wait: %+v", lr)
		}
		keys = append(keys, lr.Lease.Unit.Key)
		var cr CompleteResponse
		doJSON(t, "POST", ts+"/v1/leases/"+lr.Lease.LeaseID+"/complete",
			CompleteRequest{Key: lr.Lease.Unit.Key, Result: result, Metrics: metrics}, &cr, 200)
		if !cr.Committed {
			t.Fatalf("complete: %+v", cr)
		}
	}
}

func unitKeys(t *testing.T, spec *campaign.Spec) []string {
	t.Helper()
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, len(units))
	for i, u := range units {
		keys[i] = u.Key
	}
	return keys
}

// A lease costs the store a bounded number of Stats, not one per unit
// ahead of it in the work-list: the grant's own probe, Store.Put's
// probe at commit, and the re-check before done spread over the units.
func TestLeaseGrantStatBudget(t *testing.T) {
	const units, budget = 64, 4
	ts, store, counter := newCountingServer(t)
	spec := seedsSpec(units)
	result, metrics := stubPayload(t, spec)
	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", spec, &doc, 200)

	before := counter.stats.Load()
	keys, done := drain(t, ts.URL, doc.ID, result, metrics)
	stats := counter.stats.Load() - before
	if len(keys) != units || done.FailedUnits != 0 {
		t.Fatalf("granted %d leases, done %+v; want %d leases", len(keys), done, units)
	}
	for _, k := range unitKeys(t, spec) {
		if !store.Has(k) {
			t.Fatalf("unit %s missing after the drain", k[:12])
		}
	}
	perLease := float64(stats) / float64(len(keys))
	t.Logf("%d Stats over %d leases and the done answer: %.2f per lease", stats, len(keys), perLease)
	if perLease > budget {
		t.Errorf("%.2f Stats per granted lease, budget %d", perLease, budget)
	}
}

// A unit another writer commits after registration is found by the
// grant's probe and never leased, whether it sits at the cursor or
// ahead of it.
func TestLeaseSkipsUnitsCommittedByAnotherWriter(t *testing.T) {
	ts, store, _ := newCountingServer(t)
	spec := seedsSpec(4)
	result, metrics := stubPayload(t, spec)
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	put := func(u campaign.Unit) {
		t.Helper()
		if err := store.Put(u.Meta(), []byte(result), []byte(metrics)); err != nil {
			t.Fatal(err)
		}
	}
	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", spec, &doc, 200)
	put(units[0]) // at the cursor
	var lr LeaseResponse
	doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "w"}, &lr, 200)
	if lr.Lease == nil || lr.Lease.Unit.Key != units[1].Key {
		t.Fatalf("first lease: %+v, want unit %s", lr, units[1].Name())
	}
	put(units[3]) // ahead of the cursor, while unit 1 is out
	doJSON(t, "POST", ts.URL+"/v1/leases/"+lr.Lease.LeaseID+"/complete",
		CompleteRequest{Key: lr.Lease.Unit.Key, Result: result, Metrics: metrics}, nil, 200)

	keys, done := drain(t, ts.URL, doc.ID, result, metrics)
	if len(keys) != 1 || keys[0] != units[2].Key || done.FailedUnits != 0 {
		t.Fatalf("drain granted %d units (%v), done %+v; want only unit %s", len(keys), keys, done, units[2].Name())
	}
}

// An entry that disappears after the cursor counted it stored (a gc
// under another spec) is re-issued before the campaign is called done.
func TestLeaseReissuesDeletedEntryBeforeDone(t *testing.T) {
	ts, store, _ := newCountingServer(t)
	spec := seedsSpec(3)
	result, metrics := stubPayload(t, spec)
	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", spec, &doc, 200)
	if keys, _ := drain(t, ts.URL, doc.ID, result, metrics); len(keys) != 3 {
		t.Fatalf("first drain granted %d units, want 3", len(keys))
	}

	gone := unitKeys(t, spec)[1]
	if err := store.Delete(gone); err != nil {
		t.Fatal(err)
	}
	keys, done := drain(t, ts.URL, doc.ID, result, metrics)
	if len(keys) != 1 || keys[0] != gone || done.FailedUnits != 0 {
		t.Fatalf("after the delete: granted %v, done %+v; want only %s", keys, done, gone[:12])
	}
	if !store.Has(gone) {
		t.Fatal("the re-issued unit did not land")
	}
}

// Retired units are reported in the done answer, and a retired unit
// another writer has since committed is done, not failed.
func TestLeaseDoneCountsRetiredUnits(t *testing.T) {
	ts, store, _ := newCountingServer(t)
	spec := seedsSpec(3)
	result, metrics := stubPayload(t, spec)
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}
	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", spec, &doc, 200)
	for i := 0; i < 3; i++ {
		var lr LeaseResponse
		doJSON(t, "POST", ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: "w"}, &lr, 200)
		if lr.Lease == nil || lr.Lease.Unit.Key != units[0].Key {
			t.Fatalf("attempt %d: %+v, want unit %s", i, lr, units[0].Name())
		}
		doJSON(t, "POST", ts.URL+"/v1/leases/"+lr.Lease.LeaseID+"/fail", FailRequest{Error: "boom"}, nil, 200)
	}
	keys, done := drain(t, ts.URL, doc.ID, result, metrics)
	if len(keys) != 2 || done.FailedUnits != 1 {
		t.Fatalf("drain granted %d units, done %+v; want 2 and one failed", len(keys), done)
	}

	if err := store.Put(units[0].Meta(), []byte(result), []byte(metrics)); err != nil {
		t.Fatal(err)
	}
	if keys, done := drain(t, ts.URL, doc.ID, result, metrics); len(keys) != 0 || done.FailedUnits != 0 {
		t.Fatalf("after another writer committed the retired unit: granted %v, done %+v; want done, none failed", keys, done)
	}
}

// postJSON is doJSON for worker goroutines: it reports instead of
// failing the test.
func postJSON(url string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST %s = %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Workers leasing and completing one campaign at once share the cursor:
// every unit is granted exactly once (no lease expires), lands in the
// store, and every worker is finally told done.
func TestLeaseConcurrentWorkersShareCursor(t *testing.T) {
	const units, workers = 48, 4
	ts, store, _ := newCountingServer(t)
	spec := seedsSpec(units)
	result, metrics := stubPayload(t, spec)
	var doc CampaignDoc
	doJSON(t, "POST", ts.URL+"/v1/campaigns", spec, &doc, 200)

	var mu sync.Mutex
	grants := make(map[string]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker string) {
			defer wg.Done()
			for {
				var lr LeaseResponse
				if err := postJSON(ts.URL+"/v1/campaigns/"+doc.ID+"/lease", LeaseRequest{Worker: worker}, &lr); err != nil {
					t.Error(err)
					return
				}
				switch {
				case lr.Done:
					if lr.FailedUnits != 0 {
						t.Errorf("%s: done with %d failed", worker, lr.FailedUnits)
					}
					return
				case lr.Lease == nil:
					time.Sleep(time.Millisecond) // the rest is leased out
					continue
				}
				mu.Lock()
				grants[lr.Lease.Unit.Key]++
				mu.Unlock()
				var cr CompleteResponse
				if err := postJSON(ts.URL+"/v1/leases/"+lr.Lease.LeaseID+"/complete",
					CompleteRequest{Key: lr.Lease.Unit.Key, Result: result, Metrics: metrics}, &cr); err != nil {
					t.Error(err)
					return
				}
			}
		}(fmt.Sprintf("w%d", w))
	}
	wg.Wait()

	for _, k := range unitKeys(t, spec) {
		if grants[k] != 1 || !store.Has(k) {
			t.Errorf("unit %s: granted %d times, stored %v; want once and stored", k[:12], grants[k], store.Has(k))
		}
	}
}
