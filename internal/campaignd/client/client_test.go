package client_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/campaignd"
	"greedy80211/internal/campaignd/client"
	"greedy80211/internal/obs"
)

func TestClientRetriesTransientFailures(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if attempts.Add(1) <= 2 {
			http.Error(w, "wedged", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		io.WriteString(w, `{"ttl_ms":100}`)
	}))
	defer ts.Close()

	c := &client.Client{BaseURL: ts.URL, Retries: 4, RetryBase: time.Millisecond, Logger: obs.LogfLogger(t.Logf)}
	if err := c.Heartbeat(context.Background(), "l1"); err != nil {
		t.Fatalf("heartbeat through transient 500s: %v", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts = %d, want 3 (two 500s then success)", got)
	}

	// Exhausted retries surface the underlying error.
	attempts.Store(-100)
	c.Retries = 2
	if err := c.Heartbeat(context.Background(), "l1"); err == nil {
		t.Error("heartbeat against a permanently wedged server succeeded")
	}
}

func TestClientDoesNotRetryDeliberateRejections(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(campaignd.ErrorDoc{Error: "lease expired or unknown"})
	}))
	defer ts.Close()

	c := &client.Client{BaseURL: ts.URL, Retries: 5, RetryBase: time.Millisecond}
	err := c.Heartbeat(context.Background(), "l1")
	if err == nil || !client.IsNotFound(err) {
		t.Fatalf("err = %v, want a not-found API error", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("attempts = %d; 4xx must not be retried", got)
	}
}

// readTree loads every file under dir keyed by relative slash path.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		out[filepath.ToSlash(rel)] = string(b)
		return nil
	})
	if err != nil {
		t.Fatalf("readTree %s: %v", dir, err)
	}
	return out
}

// TestWorkerFanOutEndToEnd is the acceptance test for the serve/compute
// split: a campaign submitted over HTTP, computed by two workers — one
// of which dies mid-unit and has its lease expire and re-issue — must
// assemble byte-identically to a sequential `campaign run`, and a warm
// conditional read of a served result must cost a 304.
func TestWorkerFanOutEndToEnd(t *testing.T) {
	storeDir := t.TempDir()
	store, err := campaign.OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := campaignd.New(campaignd.Config{
		Store:    store,
		LeaseTTL: 300 * time.Millisecond, // short so the dead worker's unit re-issues fast
		Logger:   obs.LogfLogger(t.Logf),
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		cancel()
		if err := <-served; err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	})
	base := "http://" + ln.Addr().String()

	spec := &campaign.Spec{
		Artifacts: []string{"extc", "fig1"},
		Config:    campaign.SpecConfig{Seeds: 1, Duration: "100ms", Quick: true},
	}
	c := &client.Client{BaseURL: base, Logger: obs.LogfLogger(t.Logf)}
	doc, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Status.Total != 2 || doc.Status.Pending != 2 {
		t.Fatalf("submitted campaign: %+v", doc.Status)
	}

	// Worker 1 takes a lease and dies mid-unit: it never heartbeats,
	// never completes, never even fails — exactly a SIGKILL.
	dead, err := c.Lease(ctx, doc.ID, "doomed-worker")
	if err != nil {
		t.Fatal(err)
	}
	if dead.Lease == nil {
		t.Fatalf("doomed worker got no lease: %+v", dead)
	}

	// Worker 2 runs the real Work loop. It computes the free unit
	// immediately, waits out the dead worker's lease, then computes the
	// re-issued unit too.
	wstats, err := c.Work(ctx, doc.ID, "healthy-worker")
	if err != nil {
		t.Fatalf("work loop: %v (stats %+v)", err, wstats)
	}
	if wstats.Computed != 2 {
		t.Fatalf("healthy worker computed %d units, want 2 (one re-issued); stats %+v", wstats.Computed, wstats)
	}

	doc, err = c.Campaign(ctx, doc.ID)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Status.Done != 2 {
		t.Fatalf("campaign after fan-out: %+v", doc.Status)
	}

	// The lease fabric must have actually expired and re-issued the
	// doomed worker's unit.
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var sd campaignd.StatsDoc
	if err := json.NewDecoder(resp.Body).Decode(&sd); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sd.Leases.Expired < 1 {
		t.Errorf("no lease expired: %+v", sd.Leases)
	}

	// Assembling from the worker-filled store is pure cache hits and
	// byte-identical to a fresh sequential run of the same spec.
	outHTTP := t.TempDir()
	rep, err := campaign.Run(context.Background(), spec, campaign.Options{Store: store, OutDir: outHTTP})
	if err != nil || len(rep.Failures) > 0 {
		t.Fatalf("assemble: %v / %v", err, rep.Failures)
	}
	if rep.Computed != 0 || rep.CacheHits != 2 {
		t.Fatalf("assemble recomputed: %+v", rep)
	}
	outSeq := t.TempDir()
	seqRep, err := campaign.Run(context.Background(), spec, campaign.Options{StoreDir: t.TempDir(), OutDir: outSeq})
	if err != nil || len(seqRep.Failures) > 0 {
		t.Fatalf("sequential reference: %v / %v", err, seqRep.Failures)
	}
	got, want := readTree(t, outHTTP), readTree(t, outSeq)
	if len(got) == 0 || len(got) != len(want) {
		t.Fatalf("assembled trees differ in shape: %d vs %d files", len(got), len(want))
	}
	for name, wantBody := range want {
		if got[name] != wantBody {
			t.Errorf("%s: worker-computed assembly differs from sequential run", name)
		}
	}

	// Warm conditional read: a second GET with the ETag is a 304.
	key := dead.Lease.Unit.Key
	resp, err = http.Get(base + "/v1/results/" + key)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cold result read: %d", resp.StatusCode)
	}
	req, _ := http.NewRequest("GET", base+"/v1/results/"+key, nil)
	req.Header.Set("If-None-Match", resp.Header.Get("ETag"))
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified || len(body) != 0 {
		t.Fatalf("warm result read: %d %q", resp2.StatusCode, body)
	}
}

// TestLocalAndRemoteLifecyclesAgree runs one spec through the local
// engine and through campaignd with a single Work loop. Both paths drive
// units through the same campaign.Lifecycle, so the two stores must hold
// the same result and metrics bytes, the same meta (bar its creation
// time) and the same start/done journal history per unit.
func TestLocalAndRemoteLifecyclesAgree(t *testing.T) {
	spec := &campaign.Spec{
		Artifacts: []string{"tab3", "fig1"},
		BaseSeeds: []int64{1, 2},
		Config:    campaign.SpecConfig{Seeds: 1, Duration: "100ms", Quick: true},
	}
	units, err := spec.Units()
	if err != nil {
		t.Fatal(err)
	}

	local, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Run(context.Background(), spec, campaign.Options{Store: local})
	if err != nil || len(rep.Failures) > 0 || rep.Computed != len(units) {
		t.Fatalf("local run: %+v / %v", rep, err)
	}

	remote, err := campaign.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := campaignd.New(campaignd.Config{Store: remote, Logger: obs.LogfLogger(t.Logf)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	c := &client.Client{BaseURL: ts.URL, Logger: obs.LogfLogger(t.Logf)}
	doc, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	wstats, err := c.Work(context.Background(), doc.ID, "solo")
	ts.Close()
	srv.Close()
	if err != nil || wstats.Computed != len(units) {
		t.Fatalf("work loop: %+v / %v", wstats, err)
	}

	ops := func(store *campaign.Store) map[string][]string {
		t.Helper()
		recs, err := campaign.ReadJournal(store.JournalPath())
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]string)
		for _, r := range recs {
			out[r.Key] = append(out[r.Key], r.Op)
		}
		return out
	}
	localOps, remoteOps := ops(local), ops(remote)
	for _, u := range units {
		lm, lres, lmet, err := local.Get(u.Key)
		if err != nil {
			t.Fatalf("%s: local store: %v", u.Name(), err)
		}
		rm, rres, rmet, err := remote.Get(u.Key)
		if err != nil {
			t.Fatalf("%s: remote store: %v", u.Name(), err)
		}
		if string(lres) != string(rres) || string(lmet) != string(rmet) {
			t.Errorf("%s: result or metrics bytes differ", u.Name())
		}
		lm.CreatedUnix, rm.CreatedUnix = 0, 0
		if lm != rm {
			t.Errorf("%s: meta differs:\nlocal  %+v\nremote %+v", u.Name(), lm, rm)
		}
		want := "start done"
		if got := fmt.Sprint(localOps[u.Key]); got != "["+want+"]" {
			t.Errorf("%s: local journal ops %s, want [%s]", u.Name(), got, want)
		}
		if got := fmt.Sprint(remoteOps[u.Key]); got != "["+want+"]" {
			t.Errorf("%s: remote journal ops %s, want [%s]", u.Name(), got, want)
		}
	}
}
