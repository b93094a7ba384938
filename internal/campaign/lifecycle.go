package campaign

import (
	"fmt"
	"time"

	"greedy80211/internal/core"
)

// Lifecycle is the journaled life of a campaign unit, shared by the
// local engine (Run) and campaignd's lease handlers: both expand specs,
// start, screen and commit units through it, so the two paths write the
// same journal records, the same spans and the same store entries. It
// owns the store's write-ahead journal and progress-span log; what only
// one path needs (the runner pool and sharding in Run, the lease table
// and failure retirement in campaignd) stays with that path.
//
// Journal write errors are returned and fail the unit. Span appends are
// advisory telemetry and never fail anything.
type Lifecycle struct {
	store   *Store
	journal *Journal
	spans   *SpanLog
	now     func() time.Time
}

// OpenLifecycle opens the store's journal and span log for appending.
// now stamps every span the lifecycle records; nil means time.Now.
func OpenLifecycle(store *Store, now func() time.Time) (*Lifecycle, error) {
	journal, err := OpenJournal(store.JournalPath())
	if err != nil {
		return nil, err
	}
	spans, err := OpenSpanLog(store.SpanPath())
	if err != nil {
		journal.Close()
		return nil, err
	}
	if now == nil {
		now = time.Now
	}
	return &Lifecycle{store: store, journal: journal, spans: spans, now: now}, nil
}

// Close closes the journal and the span log.
func (lc *Lifecycle) Close() error {
	err := lc.journal.Close()
	if serr := lc.spans.Close(); err == nil {
		err = serr
	}
	return err
}

// Meta is the store meta document of the unit's entry, computed by this
// binary's module.
func (u Unit) Meta() Meta {
	return Meta{
		Key:        u.Key,
		Module:     core.ModuleFingerprint(),
		Artifact:   u.Artifact,
		Seeds:      u.Config.Seeds,
		BaseSeed:   u.Config.BaseSeed,
		DurationNs: int64(u.Config.Duration),
		Quick:      u.Config.Quick,
	}
}

// Expand expands spec into its work-list and records the expand span
// under label (the campaign's id).
func (lc *Lifecycle) Expand(spec *Spec, label string) ([]Unit, error) {
	start := lc.now()
	units, err := spec.Units()
	if err != nil {
		return nil, err
	}
	lc.spans.Append(Span{Unit: label, Phase: "expand",
		StartUnixNs: start.UnixNano(), EndUnixNs: lc.now().UnixNano(),
		Note: fmt.Sprintf("%d units", len(units))})
	return units, nil
}

// Start journals that u's computation begins.
func (lc *Lifecycle) Start(u Unit) error {
	return lc.journal.Append(Record{Op: "start", Key: u.Key, Artifact: u.Artifact, BaseSeed: u.BaseSeed})
}

// Screened journals that u was not computed because the analytic model
// vouched for its previous-module entry prev, and records the
// zero-length screened span.
func (lc *Lifecycle) Screened(u Unit, prev Meta, why string) error {
	err := lc.journal.Append(Record{Op: "screened", Key: u.Key, Artifact: u.Artifact,
		BaseSeed: u.BaseSeed, Prev: prev.Key, Note: why})
	if err != nil {
		return err
	}
	now := lc.now()
	lc.Phase(u, "screened", "", now, now, why)
	return nil
}

// Commit lands u's payloads in the store under u.Meta(), journals
// "done", and records the commit span from since (the end of the
// compute or upload it commits). worker names the lease holder, empty
// for local runs. It returns when the commit span ends.
func (lc *Lifecycle) Commit(u Unit, worker string, since time.Time, result, metricsJSON []byte) (time.Time, error) {
	if err := lc.store.Put(u.Meta(), result, metricsJSON); err != nil {
		return time.Time{}, err
	}
	if err := lc.journal.Append(Record{Op: "done", Key: u.Key, Artifact: u.Artifact, BaseSeed: u.BaseSeed}); err != nil {
		return time.Time{}, err
	}
	end := lc.now()
	lc.Phase(u, "commit", worker, since, end, "")
	return end, nil
}

// Phase records one completed interval of u's life that is not a
// transition above: compute, upload, or a lease's grant-to-disposition.
func (lc *Lifecycle) Phase(u Unit, phase, worker string, start, end time.Time, note string) {
	lc.spans.Append(Span{Unit: u.Name(), Key: u.Key, Artifact: u.Artifact, Phase: phase,
		Worker: worker, StartUnixNs: start.UnixNano(), EndUnixNs: end.UnixNano(), Note: note})
}
