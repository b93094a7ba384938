package campaignd

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"greedy80211/internal/campaign"
	"greedy80211/internal/core"
	"greedy80211/internal/obs"
	"greedy80211/internal/report"
)

// Config configures a Server.
type Config struct {
	// Store is the content-addressed store to serve and fill (required).
	Store *campaign.Store
	// LeaseTTL is how long a worker may go without a heartbeat before
	// its unit is re-issued. Zero means 30s.
	LeaseTTL time.Duration
	// MaxUnitFailures is how many worker-reported failures a unit
	// tolerates before the server stops re-issuing it. Zero means 3.
	MaxUnitFailures int
	// DrainTimeout bounds graceful shutdown: in-flight requests get this
	// long to finish after the listener closes. Zero means 10s.
	DrainTimeout time.Duration
	// DrainDelay holds the listener open for this long after shutdown
	// begins, with /readyz already failing — the window a load-balancer
	// (or the CI smoke test) needs to observe the drain before
	// connections start being refused. Zero means no window.
	DrainDelay time.Duration
	// Logger receives structured progress and access logs; nil discards
	// them.
	Logger *slog.Logger
	// Now overrides the clock (tests). Nil means time.Now.
	Now func() time.Time
}

// campaignState is one registered campaign: the expanded deterministic
// work-list, per-unit failure counts, and the grant cursor. Units never
// change after registration — the work-list is a pure function of the
// spec. failures, stored and next are guarded by Server.mu.
type campaignState struct {
	id       string
	spec     *campaign.Spec
	units    []campaign.Unit
	failures map[string]int
	// stored[i] is true once the server knows units[i]'s meta.json
	// landed; next is the lowest index not known stored, so every unit
	// before it is stored and a lease walk starts there.
	stored []bool
	next   int
}

// setStored sets unit i's stored bit and keeps next at the lowest index
// not known stored. Callers hold Server.mu.
func (st *campaignState) setStored(i int, stored bool) {
	st.stored[i] = stored
	if !stored {
		st.next = min(st.next, i)
		return
	}
	for st.next < len(st.stored) && st.stored[st.next] {
		st.next++
	}
}

// unitRef names one unit of one registered campaign.
type unitRef struct {
	st *campaignState
	i  int
}

// Server is the campaign results service. Create with New, expose with
// Handler (or run with Serve), and Close when done.
type Server struct {
	cfg      Config
	store    *campaign.Store
	life     *campaign.Lifecycle
	leases   *leaseTable
	stats    *serverStats
	progress *progressTracker
	module   string
	now      func() time.Time
	logger   *slog.Logger
	draining atomic.Bool

	mu        sync.Mutex
	campaigns map[string]*campaignState
	order     []string
	byKey     map[string][]unitRef // every registered unit holding a key

	refsOnce sync.Once
	refsets  []*report.RefSet
	refsErr  error

	mux *http.ServeMux
}

// New builds a Server over an open store. The server drives units
// through the same campaign.Lifecycle as a local run (lease grants
// journal "start", commits journal "done" and record their spans), so
// `campaign status` and `campaign spans` on the same store see what the
// server did. The store's backend is re-wrapped with per-op metrics, so
// every persistence call the server makes shows up on /metrics.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("campaignd: Config.Store is required")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.MaxUnitFailures <= 0 {
		cfg.MaxUnitFailures = 3
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	now := cfg.Now
	if now == nil {
		now = time.Now
	}
	logger := cfg.Logger
	if logger == nil {
		logger = obs.Discard()
	}
	stats := newServerStats(now(), core.ModuleFingerprint())
	store := campaign.NewStore(newMeteredBackend(cfg.Store.Backend(), stats.reg), cfg.Store.JournalPath())
	life, err := campaign.OpenLifecycle(store, now)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:       cfg,
		store:     store,
		life:      life,
		leases:    newLeaseTable(cfg.LeaseTTL, now),
		stats:     stats,
		progress:  newProgressTracker(now),
		module:    core.ModuleFingerprint(),
		now:       now,
		logger:    logger,
		campaigns: make(map[string]*campaignState),
		byKey:     make(map[string][]unitRef),
	}
	s.registerGauges()
	s.mux = s.routes()
	return s, nil
}

// registerGauges wires the live-state gauges: unlike the counters they
// read server structures at scrape time, so they need the constructed
// Server.
func (s *Server) registerGauges() {
	reg := s.stats.reg
	reg.GaugeFunc("campaignd_uptime_seconds", "Seconds since the server started.",
		func() float64 { return s.now().Sub(s.stats.start).Seconds() })
	reg.GaugeFunc("campaignd_leases_active", "Live (unexpired) leases.",
		func() float64 { return float64(len(s.leases.leasedKeys())) })
	reg.GaugeFunc("campaignd_campaigns_registered", "Registered campaigns.",
		func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.campaigns))
		})
	reg.GaugeFunc("campaignd_draining", "1 while graceful shutdown is in progress.",
		func() float64 {
			if s.draining.Load() {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("campaignd_store_objects", "Committed entries in the store (-1: store unreachable).",
		func() float64 {
			keys, err := s.store.Keys()
			if err != nil {
				return -1
			}
			return float64(len(keys))
		})
}

// Close releases the journal and span log. Safe after Serve returns.
func (s *Server) Close() error { return s.life.Close() }

// Handler returns the service's HTTP surface: correlation-ID plumbing,
// the access log, and route-normalized latency accounting wrap the
// versioned mux. Requests arriving with an X-Request-ID keep it (the
// worker's retry loop correlates client and server logs that way);
// everything else gets a fresh id. Requests no registered pattern
// claims are accounted under the single route key "unmatched", so
// hostile or misconfigured clients cannot grow the stats table.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if !validRequestID(reqID) {
			reqID = obs.NewID()
		}
		ctx := obs.WithRequestID(r.Context(), reqID)
		w.Header().Set("X-Request-ID", reqID)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		start := s.now()
		s.mux.ServeHTTP(rec, r.WithContext(ctx))
		elapsed := s.now().Sub(start)
		route := rec.route
		if route == "" {
			route = "unmatched"
		}
		s.stats.observe(route, rec.status, elapsed)
		s.logger.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("route", route),
			slog.Int("status", rec.status),
			slog.Int64("bytes", rec.bytes),
			slog.Float64("dur_ms", float64(elapsed.Nanoseconds())/1e6),
			slog.String("remote", r.RemoteAddr),
		)
	})
}

// validRequestID accepts ids a client may supply: short and safe to
// echo into headers and logs.
func validRequestID(id string) bool {
	if id == "" || len(id) > 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// DebugHandler returns the opt-in debug surface cmd/campaignd serves on
// its -debug-addr listener: the pprof profile endpoints plus the same
// /metrics and /healthz the main listener has (so an operator can scrape
// a wedged server even if the main handler is saturated).
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/metrics", s.handleMetricsExposition)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// Register expands and registers a campaign spec, returning its
// deterministic id. Registering the same spec twice is a no-op returning
// the same id. It is both the POST /v1/campaigns implementation and the
// programmatic preload hook cmd/campaignd's -spec flag uses.
func (s *Server) Register(spec *campaign.Spec) (string, error) {
	id := SpecID(spec)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.campaigns[id]; ok {
		return id, nil
	}
	units, err := s.life.Expand(spec, id)
	if err != nil {
		return "", err
	}
	st := &campaignState{
		id:       id,
		spec:     spec,
		units:    units,
		failures: make(map[string]int),
		stored:   make([]bool, len(units)),
	}
	s.campaigns[id] = st
	for i, u := range units {
		s.byKey[u.Key] = append(s.byKey[u.Key], unitRef{st, i})
	}
	s.order = append(s.order, id)
	s.logger.Info("registered campaign", "campaign", id, "units", len(units))
	return id, nil
}

func (s *Server) campaignByID(id string) *campaignState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.campaigns[id]
}

// recordFailure counts one worker-reported failure of key.
func (s *Server) recordFailure(st *campaignState, key string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	st.failures[key]++
	return st.failures[key]
}

// unitByKey finds a registered unit by its content address (any
// campaign), for late uploads whose lease already expired.
func (s *Server) unitByKey(key string) (campaign.Unit, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	refs := s.byKey[key]
	if len(refs) == 0 {
		return campaign.Unit{}, false
	}
	return refs[0].st.units[refs[0].i], true
}

// setStored records whether key's entry is in the store, for every
// registered unit that holds the key.
func (s *Server) setStored(key string, stored bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.byKey[key] {
		r.st.setStored(r.i, stored)
	}
}

// standing reads what the cursor knows of unit i of st: whether it is
// known stored and how many failures it has.
func (s *Server) standing(st *campaignState, i int) (stored bool, failures int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return st.stored[i], st.failures[st.units[i].Key]
}

// nextGrant walks st's work-list from its cursor and leases worker the
// first unit that is neither stored, leased nor retired. A unit known
// stored or under a live lease costs no store access; every other unit
// costs one Stat, which either finds the entry (another writer, such as
// a local `campaign run` on the same store, committed it) or clears the
// unit for the grant. remaining counts the units still to be computed,
// the granted one included; failed counts the retired ones.
func (s *Server) nextGrant(st *campaignState, worker string) (l *Lease, remaining, failed int) {
	s.mu.Lock()
	i := st.next
	s.mu.Unlock()
	for ; i < len(st.units); i++ {
		u := st.units[i]
		stored, failures := s.standing(st, i)
		switch {
		case stored:
			continue
		case s.leases.HasKey(u.Key):
			remaining++
			continue
		case failures >= s.cfg.MaxUnitFailures:
			failed++
			continue
		case s.store.Has(u.Key):
			s.setStored(u.Key, true)
			continue
		}
		remaining++
		if l := s.leases.Grant(st.id, u, u.Name(), worker); l != nil {
			return l, remaining, failed
		}
		// A concurrent walk granted the unit between the checks above.
	}
	return nil, remaining, failed
}

// resyncStored re-checks every unit of st against the store, once, and
// reports whether any stored bit changed. It runs only when the walk
// would answer done: an entry the cursor counted may have gone (a
// `campaign gc` under another spec), and a retired unit may have been
// committed by another writer since. Either way done must not be
// answered from stale bits.
func (s *Server) resyncStored(st *campaignState) bool {
	changed := false
	for i, u := range st.units {
		has := s.store.Has(u.Key)
		if stored, _ := s.standing(st, i); stored != has {
			s.setStored(u.Key, has)
			changed = true
		}
	}
	return changed
}

// statusDoc builds the shared status codec for one campaign, overlaying
// live lease and failure state on the store/journal standing.
func (s *Server) statusDoc(st *campaignState) (*campaign.StatusDoc, error) {
	sts, err := campaign.Status(st.spec, s.store)
	if err != nil {
		return nil, err
	}
	doc := campaign.NewStatusDoc(sts)
	leased := s.leases.leasedKeys()
	s.mu.Lock()
	for i := range doc.Units {
		u := &doc.Units[i]
		if u.State == campaign.UnitDone {
			continue
		}
		switch {
		case leased[u.Key]:
			u.State = campaign.UnitLeased
		case st.failures[u.Key] >= s.cfg.MaxUnitFailures:
			u.State = campaign.UnitFailed
		}
	}
	s.mu.Unlock()
	doc.Recount()
	return doc, nil
}

// refSets lazily loads the embedded golden refdata for /v1/verdicts.
func (s *Server) refSets() ([]*report.RefSet, error) {
	s.refsOnce.Do(func() {
		s.refsets, s.refsErr = report.LoadEmbedded()
	})
	return s.refsets, s.refsErr
}

// Serve runs the service on ln until ctx is cancelled, then drains.
// The drain is observable before it is disruptive: /readyz flips to 503
// first, the listener stays open for DrainDelay (load-balancer grace),
// then the listener closes and in-flight requests get DrainTimeout to
// finish (a mid-commit upload either lands completely or not at all —
// store commits are atomic and the journal is line-buffered). The
// journal and span log close last, so a SIGTERM'd server leaves the
// store and WAL exactly as consistent as a crash would, minus the torn
// tail.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		s.Close()
		return err
	case <-ctx.Done():
	}
	s.draining.Store(true)
	s.logger.Info("draining", "delay", s.cfg.DrainDelay, "grace", s.cfg.DrainTimeout)
	if s.cfg.DrainDelay > 0 {
		timer := time.NewTimer(s.cfg.DrainDelay)
		select {
		case <-timer.C:
		case err := <-errc:
			timer.Stop()
			s.Close()
			return err
		}
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := srv.Shutdown(drainCtx)
	<-errc // http.ErrServerClosed from Serve
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("campaignd: shutdown: %w", err)
	}
	return nil
}

// campaignSummaries lists the registered campaigns in registration
// order.
func (s *Server) campaignSummaries() ([]CampaignSummary, error) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	out := make([]CampaignSummary, 0, len(ids))
	for _, id := range ids {
		st := s.campaignByID(id)
		if st == nil {
			continue
		}
		doc, err := s.statusDoc(st)
		if err != nil {
			return nil, err
		}
		out = append(out, CampaignSummary{
			ID:        id,
			Artifacts: artifactsOf(st.units),
			Total:     doc.Total,
			Done:      doc.Done,
			Leased:    doc.Leased,
			Failed:    doc.Failed,
			Pending:   doc.Pending + doc.Interrupted,
		})
	}
	return out, nil
}

func artifactsOf(units []campaign.Unit) []string {
	seen := make(map[string]bool)
	var out []string
	for _, u := range units {
		if !seen[u.Artifact] {
			seen[u.Artifact] = true
			out = append(out, u.Artifact)
		}
	}
	sort.Strings(out)
	return out
}
