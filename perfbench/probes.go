package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"greedy80211/internal/analytic"
	"greedy80211/internal/campaign"
	"greedy80211/internal/sim"
)

// layerProbes are the traced run's isolated layer measurements, the
// same on every workload: a 2100-wide scheduler, the 16-cell world, the
// analytic predictions for the gated artifacts and journal appends.
func layerProbes(s *sample, work string, seed int64) error {
	s.Layers["sim.sched_fanout_ns"] = schedFanoutNs(seed, denseCells*(denseStations+1), 1_000_000)

	w, err := denseWorld(seed, denseSmall)
	if err != nil {
		return err
	}
	start := time.Now()
	w.Run(denseRun)
	s.Layers["sim.events_per_s.16cells"] = float64(w.Sched.Executed()) / time.Since(start).Seconds()

	start = time.Now()
	for _, id := range analytic.PredictedArtifacts() {
		if _, err := analytic.Predict(id); err != nil {
			return err
		}
	}
	s.Layers["analytic.predict_s"] = time.Since(start).Seconds()

	j, err := campaign.OpenJournal(filepath.Join(work, "probe-journal.jsonl"))
	if err != nil {
		return err
	}
	defer j.Close()
	lat := make([]float64, 200)
	for i := range lat {
		r := campaign.Record{Op: "done", Key: fmt.Sprintf("%064x", i), Artifact: "probe", BaseSeed: int64(i)}
		t0 := time.Now()
		if err := j.Append(r); err != nil {
			return err
		}
		lat[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	setPct(s, "campaign.journal_append_us.p50", lat, 0.50)
	return nil
}

// schedFanoutNs is the host nanoseconds per event of a bare scheduler
// whose pending set stays width wide: every event reschedules itself a
// random delay ahead, until n events have run.
func schedFanoutNs(seed int64, width, n int) float64 {
	sched := sim.NewScheduler(seed)
	rng := rand.New(rand.NewSource(seed))
	delay := func() sim.Time { return 1 + sim.Time(rng.Int63n(int64(sim.Millisecond))) }
	var fire sim.Handler
	fire = func() {
		if sched.Executed() >= uint64(n) {
			sched.Halt()
			return
		}
		sched.Schedule(delay(), fire)
	}
	for i := 0; i < width; i++ {
		sched.Schedule(delay(), fire)
	}
	start := time.Now()
	sched.Run()
	return float64(time.Since(start).Nanoseconds()) / float64(sched.Executed())
}
