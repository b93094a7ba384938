package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"greedy80211/internal/metrics"
	"greedy80211/internal/phys"
	"greedy80211/internal/scenario"
	"greedy80211/internal/sim"
)

// The dense world is cmd/bench's dense_world shape at 100 cells: a
// 3-channel plan, 20 stations per cell of which 5 send uplink, 200 kb/s
// CBR per flow and hotspot-scale propagation, run for one simulated
// second. 2100 radios make it the one workload with a large pending
// event set.
const (
	denseCells     = 100
	denseSmall     = 16
	denseStations  = 20
	denseUplink    = 5
	denseRateBps   = 2e5
	denseRun       = sim.Second
	defaultSeed    = 1
	denseDigestOne = "2456913012d2f222e870ee8691c71d6c0da98c55fdfc4344ffd81f3b38ecea16"
)

func denseWorld(seed int64, cells int) (*scenario.World, error) {
	prop := phys.GRCPropagation()
	return scenario.BuildCells(scenario.CellsConfig{
		Config: scenario.Config{Seed: seed, Propagation: &prop},
		Topology: scenario.TopologySpec{
			NumCells:        cells,
			ChannelPlan:     []int{1, 6, 11},
			DefaultStations: denseStations,
			DefaultUplink:   denseUplink,
		},
		CBRRateBps: denseRateBps,
	})
}

// runDense builds the 100-cell world (set-up) and times its run.
func runDense(s *sample, tr *tracer, seed int64) error {
	setup := time.Now()
	build := tr.begin("scenario", "scenario.BuildCells", "main", -1)
	w, err := denseWorld(seed, denseCells)
	tr.end(build)
	if err != nil {
		return err
	}
	s.SetupS = time.Since(setup).Seconds()
	s.Units, s.Ops = 1, 1

	p := startPhase()
	id := tr.begin("sim", "World.Run", "main", -1)
	w.Run(denseRun)
	tr.end(id)
	p.stop(s)

	s.Events = w.Sched.Executed()
	snap := w.MetricsSnapshot()
	digest, err := checkDense(w, snap)
	if err != nil {
		return err
	}
	s.Digest = digest
	if tr == nil {
		return nil
	}
	s.Layers["scenario.build_s"] = tr.duration(build)
	s.Layers["sim.events"] = float64(s.Events)
	s.Layers["medium.channel_utilization"] = snap.ChannelUtilization
	var sent, retries, success float64
	for _, st := range snap.Stations {
		sent += st.DataSent
		retries += st.Retries
		success += st.MSDUSuccess
	}
	s.Layers["mac.data_sent"] = sent
	s.Layers["mac.retries"] = retries
	s.Layers["mac.msdu_success"] = success
	if sent > 0 {
		s.Layers["mac.success_ratio"] = success / sent
	}
	var neighbors, radios int
	for c := 0; c < denseCells; c++ {
		names := []string{scenario.CellAPName(c)}
		for i := 0; i < denseStations; i++ {
			names = append(names, scenario.CellStationName(c, i))
		}
		for _, n := range names {
			st, ok := w.Station(n)
			if !ok {
				return fmt.Errorf("dense: no station %s", n)
			}
			neighbors += w.Medium.NeighborCount(st.ID)
			radios++
		}
	}
	s.Layers["medium.avg_neighbors"] = float64(neighbors) / float64(radios)
	ps := w.PoolStats()
	s.Layers["pool.events.chunks"] = float64(ps.Events.Chunks)
	s.Layers["pool.frames.chunks"] = float64(ps.Frames.Chunks)
	s.Layers["pool.arrivals.chunks"] = float64(ps.Arrivals.Chunks)
	return nil
}

// checkDense requires every flow to deliver no more than it sent and
// every station to hold the air no longer than the run, and returns the
// digest of the event count and the telemetry snapshot that every run
// of one seed must repeat.
func checkDense(w *scenario.World, snap *metrics.Snapshot) (string, error) {
	for _, f := range w.Flows() {
		if f.CBR == nil {
			return "", fmt.Errorf("dense: flow %d has no CBR source", f.ID)
		}
		if got, sent := f.Stats().UniquePackets, f.CBR.Offered(); got > sent {
			return "", fmt.Errorf("dense: flow %d delivered %d packets of %d sent", f.ID, got, sent)
		}
	}
	for _, st := range snap.Stations {
		if st.AirtimeSecs > snap.DurationSecs {
			return "", fmt.Errorf("dense: station %s held the air %gs in a %gs run",
				st.Name, st.AirtimeSecs, snap.DurationSecs)
		}
	}
	raw, err := json.Marshal(snap)
	if err != nil {
		return "", err
	}
	return denseDigest(w.Sched.Executed(), raw), nil
}

// denseDigest hashes the executed event count and the snapshot's JSON.
func denseDigest(events uint64, snapJSON []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d\n", events)
	h.Write(snapJSON)
	return hex.EncodeToString(h.Sum(nil))
}
