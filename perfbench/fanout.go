package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/campaignd"
	"greedy80211/internal/campaignd/client"
)

// fanoutBaseSeeds × len(fanoutArtifacts) units of ~10 ms each: short
// enough that the lease protocol is a visible share of worker time, and
// many enough that the server's per-lease scan over the work-list shows.
const fanoutBaseSeeds = 128

var fanoutArtifacts = []string{"extc", "fig1", "tab4", "fig2"}

// fanoutSpec is the fanout campaign for seed: every artifact at one
// simulation seed of one quick second, over 128 base seeds offset by
// the benchmark seed.
func fanoutSpec(seed int64) *campaign.Spec {
	bs := make([]int64, fanoutBaseSeeds)
	for i := range bs {
		bs[i] = seed*fanoutBaseSeeds + int64(i) + 1
	}
	return &campaign.Spec{
		Artifacts: fanoutArtifacts,
		Config:    campaign.SpecConfig{Seeds: 1, Duration: "1s", Quick: true},
		BaseSeeds: bs,
	}
}

// commitWatch is the store backend campaignd writes through. It closes
// done once target distinct units have committed, that is once their
// meta.json, the store's commit marker, has landed; a unit computed and
// committed twice counts once.
type commitWatch struct {
	campaign.Backend
	target int
	done   chan struct{}

	mu    sync.Mutex
	units map[string]bool
}

func newCommitWatch(b campaign.Backend, target int) *commitWatch {
	return &commitWatch{Backend: b, target: target, done: make(chan struct{}), units: map[string]bool{}}
}

func (c *commitWatch) Put(name string, data []byte) error {
	if err := c.Backend.Put(name, data); err != nil {
		return err
	}
	if strings.HasSuffix(name, "/meta.json") {
		c.mu.Lock()
		defer c.mu.Unlock()
		if !c.units[name] {
			c.units[name] = true
			if len(c.units) == c.target {
				close(c.done)
			}
		}
	}
	return nil
}

// committed returns how many distinct units have committed.
func (c *commitWatch) committed() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.units)
}

// fanoutReference computes the fanout campaign with the local engine
// into dir: the bytes every fanout run must reproduce.
func fanoutReference(dir string, seed int64) error {
	rep, err := campaign.Run(context.Background(), fanoutSpec(seed), campaign.Options{StoreDir: dir})
	if err != nil {
		return err
	}
	if len(rep.Failures) > 0 {
		return fmt.Errorf("fanout reference: %w", rep.Failures[0].Err)
	}
	return nil
}

// runFanout serves a fresh store from an in-process campaignd on
// loopback, submits the campaign, and times nproc client.Work workers
// (one connection each) until the last unit commits. The workers are
// then cancelled, so an idle worker's retry sleep is never timed.
func runFanout(s *sample, tr *tracer, work, ref string, seed int64) error {
	spec := fanoutSpec(seed)
	want := len(fanoutArtifacts) * fanoutBaseSeeds
	setup := time.Now()
	dir := filepath.Join(work, "store")
	backend, err := campaign.NewDirBackend(dir)
	if err != nil {
		return err
	}
	watch := newCommitWatch(backend, want)
	store := campaign.NewStore(watch, filepath.Join(dir, "journal.jsonl"))
	srv, err := campaignd.New(campaignd.Config{Store: store})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	serveCtx, stopServe := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(serveCtx, ln) }()
	serving := true
	stop := func() error {
		if !serving {
			return nil
		}
		serving = false
		stopServe()
		return <-served
	}
	defer stop()
	base := "http://" + ln.Addr().String()
	adminTransport := &http.Transport{}
	defer adminTransport.CloseIdleConnections()
	admin := &client.Client{BaseURL: base, HTTPClient: &http.Client{Transport: adminTransport}}
	submit := tr.begin("campaignd", "client.Submit", "main", -1)
	doc, err := admin.Submit(context.Background(), spec)
	tr.end(submit)
	if err != nil {
		return err
	}
	s.SetupS = time.Since(setup).Seconds()
	if doc.Status.Total != want {
		return fmt.Errorf("fanout: server expanded %d units, want %d", doc.Status.Total, want)
	}

	nw := runtime.GOMAXPROCS(0)
	meters := make([]*meter, nw)
	stats := make([]client.WorkStats, nw)
	errs := make([]error, nw)
	workCtx, stopWork := context.WithCancel(context.Background())
	var wg sync.WaitGroup

	p := startPhase()
	root := tr.begin("bench", "drain", "main", -1)
	for i := range meters {
		meters[i] = &meter{base: &http.Transport{MaxConnsPerHost: 1}, record: tr != nil}
		c := &client.Client{BaseURL: base, HTTPClient: &http.Client{Transport: meters[i]}}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = c.Work(workCtx, doc.ID, fmt.Sprintf("worker-%d", i+1))
		}(i)
	}
	var timedOut bool
	select {
	case <-watch.done:
	case <-time.After(childTimeout - 30*time.Second):
		timedOut = true
	}
	tr.end(root)
	p.stop(s)
	stopWork()
	wg.Wait()

	units := watch.committed()
	s.Units = units
	s.Ops = units
	var waits int
	for i, m := range meters {
		s.Ops += int(m.requests.Load())
		waits += stats[i].Waited
		m.base.(*http.Transport).CloseIdleConnections()
		if errs[i] != nil && !errors.Is(errs[i], context.Canceled) {
			return fmt.Errorf("fanout worker %d: %w", i+1, errs[i])
		}
		if n := m.failed.Load(); n > 0 {
			return fmt.Errorf("fanout worker %d: %d failed requests", i+1, n)
		}
	}
	if timedOut {
		return fmt.Errorf("fanout: %d/%d units committed before the deadline", units, want)
	}
	if tr != nil {
		s.Layers["campaignd.submit_ms"] = tr.duration(submit) * 1e3
		s.Layers["client.waits"] = float64(waits)
		workerLayers(s, tr, root, meters)
		if err := scrapeServer(s, admin.HTTPClient, base, units); err != nil {
			return err
		}
	}
	if err := stop(); err != nil {
		return err
	}
	if err := serverSpans(s, store); err != nil {
		return err
	}
	refStore, err := campaign.OpenStore(ref)
	if err != nil {
		return err
	}
	return checkFanout(store, refStore, spec)
}

// serverSpans collects the commit latencies campaignd logged beside its
// journal.
func serverSpans(s *sample, store *campaign.Store) error {
	spans, err := campaign.ReadSpans(store.SpanPath())
	if err != nil {
		return err
	}
	for _, sp := range spans {
		if sp.Phase == "commit" {
			s.CommitMs = append(s.CommitMs, float64(sp.EndUnixNs-sp.StartUnixNs)/1e6)
		}
	}
	return nil
}

// workerLayers turns each worker's exchange log into lease, compute and
// complete spans and the client-side latency figures. A worker is
// sequential, so the time between a lease response and the next
// complete request is the unit's compute.
func workerLayers(s *sample, tr *tracer, root int, meters []*meter) {
	var lease, complete, compute []float64
	var protocol, busy float64
	for i, m := range meters {
		track := fmt.Sprintf("worker-%d", i+1)
		var last *exchange
		for _, ex := range m.exchanges() {
			rtt := ex.End.Sub(ex.Start).Seconds()
			tr.add(span{Name: ex.Route, Layer: "campaignd", Track: track, Parent: root, Start: ex.Start, End: ex.End})
			switch ex.Route {
			case routeLease:
				lease = append(lease, rtt*1e3)
				last = &ex
			case routeComplete:
				complete = append(complete, rtt*1e3)
				if last != nil {
					c := ex.Start.Sub(last.End).Seconds()
					compute = append(compute, c)
					tr.add(span{Name: "campaign.ComputeUnit", Layer: "experiments", Track: track,
						Parent: root, Start: last.End, End: ex.Start})
					protocol += last.End.Sub(last.Start).Seconds() + rtt
					busy += ex.End.Sub(last.Start).Seconds()
				}
				last = nil
			}
		}
	}
	setPct(s, "campaignd.lease_ms.p50", lease, 0.50)
	setPct(s, "campaignd.lease_ms.p98", lease, 0.98)
	setPct(s, "campaignd.complete_ms.p50", complete, 0.50)
	setPct(s, "campaignd.complete_ms.p98", complete, 0.98)
	computeMs := make([]float64, len(compute))
	for i, c := range compute {
		computeMs[i] = c * 1e3
	}
	setPct(s, "client.compute_ms.p50", computeMs, 0.50)
	s.Layers["experiments.unit_compute_s.sum"] = sum(compute)
	s.Layers["experiments.unit_compute_s.max"] = maxOf(compute)
	s.Layers["runner.busy_ratio"] = sum(compute) / (s.WallS * float64(runtime.GOMAXPROCS(0)))
	if busy > 0 {
		s.Layers["client.protocol_share"] = protocol / busy
	}
}

// setPct stores the percentile of xs under name by the reporting rule,
// with the sample count behind it.
func setPct(s *sample, name string, xs []float64, p float64) {
	v, used := percentile(xs, p)
	s.Layers[name] = v
	s.Pcts[name] = pctInfo{N: len(xs), P: used}
}

// scrapeServer reads the server's own /metrics: the mean backend Put
// latency, how many backend Stat calls each granted lease cost, and
// how many leases each unit took.
func scrapeServer(s *sample, hc *http.Client, base string, units int) error {
	resp, err := hc.Get(base + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	sc, err := parseScrape(body)
	if err != nil {
		return err
	}
	if n := sc.sum("campaignd_backend_op_seconds_count", "op", "put"); n > 0 {
		s.Layers["campaignd.backend_put_ms.mean"] = sc.sum("campaignd_backend_op_seconds_sum", "op", "put") / n * 1e3
	}
	if g := sc.sum("campaignd_leases_total", "event", "granted"); g > 0 {
		s.Layers["campaignd.backend_stat_per_lease"] = sc.sum("campaignd_backend_ops_total", "op", "stat") / g
		s.Layers["campaignd.leases_per_unit"] = g / float64(units)
	}
	return nil
}

// checkFanout requires a sound store holding every unit of spec with
// result and telemetry bytes identical to the local-engine reference.
func checkFanout(store, ref *campaign.Store, spec *campaign.Spec) error {
	bad, err := campaign.Verify(store)
	if err != nil {
		return err
	}
	if len(bad) > 0 {
		return fmt.Errorf("fanout: store verify: %v", bad[0])
	}
	units, err := spec.Units()
	if err != nil {
		return err
	}
	for _, u := range units {
		_, gotRes, gotMet, err := store.Get(u.Key)
		if err != nil {
			return fmt.Errorf("fanout: %s: %w", u.Name(), err)
		}
		_, wantRes, wantMet, err := ref.Get(u.Key)
		if err != nil {
			return fmt.Errorf("fanout reference: %s: %w", u.Name(), err)
		}
		if !bytes.Equal(gotRes, wantRes) || !bytes.Equal(gotMet, wantMet) {
			return fmt.Errorf("fanout: %s differs from the local campaign.Run", u.Name())
		}
	}
	return nil
}
