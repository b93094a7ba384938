// Package campaign is the durable experiment-campaign engine: it turns a
// declarative spec (artifact ids + RunConfig overrides + a base-seed
// set) into a deterministic work-list of units, computes each unit at
// most once into an on-disk content-addressed store, journals
// completions so an interrupted campaign resumes where it stopped, and
// shards the work-list stably so independent processes cover disjoint
// units against a shared store. A final assemble pass reads every unit
// back and writes per-artifact results and one telemetry sidecar
// byte-identically to a single sequential cmd/experiments run.
//
// A unit is one complete artifact regeneration under one normalized
// RunConfig: (artifact × config variant × base seed). Each unit's bytes
// are exactly what a standalone run of that artifact would produce, so
// caching, sharding, and resumption can never change output — only skip
// recomputation.
package campaign

import (
	"encoding/json"
	"fmt"
	"os"
	"time"

	"greedy80211/internal/experiments"
	"greedy80211/internal/sim"
)

// Spec declares a campaign: which artifacts, under which RunConfig, over
// which base seeds. The zero config means the experiments defaults
// (5 seeds × 5 s, the paper's methodology).
type Spec struct {
	// Artifacts lists artifact ids; "all" expands to every registered
	// artifact in canonical order.
	Artifacts []string `json:"artifacts"`
	// Config overrides the per-unit RunConfig.
	Config SpecConfig `json:"config"`
	// BaseSeeds runs every artifact once per base seed (distinct units).
	// Empty means one unit per artifact at Config.BaseSeed.
	BaseSeeds []int64 `json:"base_seeds,omitempty"`
}

// SpecConfig is the JSON form of experiments.RunConfig (Duration as a
// human-readable string, e.g. "500ms").
type SpecConfig struct {
	Seeds    int    `json:"seeds,omitempty"`
	BaseSeed int64  `json:"base_seed,omitempty"`
	Duration string `json:"duration,omitempty"`
	Quick    bool   `json:"quick,omitempty"`
}

// RunConfig converts the spec's config to an experiments.RunConfig,
// rejecting one that experiments.RunConfig.Validate refuses.
func (sc SpecConfig) RunConfig() (experiments.RunConfig, error) {
	cfg := experiments.RunConfig{
		Seeds:    sc.Seeds,
		BaseSeed: sc.BaseSeed,
		Quick:    sc.Quick,
	}
	if sc.Duration != "" {
		d, err := time.ParseDuration(sc.Duration)
		if err != nil {
			return cfg, fmt.Errorf("campaign: spec duration: %w", err)
		}
		cfg.Duration = sim.Time(d.Nanoseconds())
	}
	if err := cfg.Validate(); err != nil {
		return cfg, fmt.Errorf("campaign: spec config: %w", err)
	}
	return cfg, nil
}

// SpecConfigOf is RunConfig's inverse codec: the JSON-serializable form
// of a config, round-tripping exactly through SpecConfig.RunConfig (the
// duration string is time.Duration's own rendering). campaignd uses it
// to ship a unit's normalized config to workers.
func SpecConfigOf(cfg experiments.RunConfig) SpecConfig {
	return SpecConfig{
		Seeds:    cfg.Seeds,
		BaseSeed: cfg.BaseSeed,
		Duration: time.Duration(cfg.Duration).String(),
		Quick:    cfg.Quick,
	}
}

// LoadSpec reads a JSON spec file, rejecting unknown fields so typos in
// a campaign file fail loudly instead of silently running the defaults.
func LoadSpec(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("campaign: parsing spec %s: %w", path, err)
	}
	return &s, nil
}

// Unit is one entry of the expanded work-list: a complete artifact
// regeneration under one normalized config.
type Unit struct {
	// Index is the unit's position in the full deterministic work-list;
	// sharding partitions on it (Index % Shards == Shard).
	Index    int
	Artifact string
	BaseSeed int64
	// Config is the normalized RunConfig the unit runs under (BaseSeed
	// already applied).
	Config experiments.RunConfig
	// Key is the unit's content address in the store.
	Key string
	// multiSeed notes whether the spec had several base seeds, which
	// switches output naming to <artifact>_seed<n>.
	multiSeed bool
}

// Name is the unit's output basename: the artifact id, suffixed with the
// base seed when the spec sweeps several.
func (u Unit) Name() string {
	if u.multiSeed {
		return fmt.Sprintf("%s_seed%d", u.Artifact, u.BaseSeed)
	}
	return u.Artifact
}

// Units expands the spec into the deterministic work-list: artifacts in
// spec order ("all" in registry order) crossed with the base-seed set,
// every config normalized and keyed. The expansion is a pure function of
// the spec and the module version, so two processes expanding the same
// spec always agree on unit indices — which is what makes -shard i/n
// partitioning stable across machines.
func (s *Spec) Units() ([]Unit, error) {
	if len(s.Artifacts) == 0 {
		return nil, fmt.Errorf("campaign: spec lists no artifacts")
	}
	var ids []string
	seen := make(map[string]bool)
	for _, id := range s.Artifacts {
		if id == "all" {
			for _, reg := range experiments.All() {
				if !seen[reg.ID] {
					seen[reg.ID] = true
					ids = append(ids, reg.ID)
				}
			}
			continue
		}
		if _, ok := experiments.Lookup(id); !ok {
			return nil, fmt.Errorf("campaign: unknown artifact %q", id)
		}
		if seen[id] {
			return nil, fmt.Errorf("campaign: duplicate artifact %q", id)
		}
		seen[id] = true
		ids = append(ids, id)
	}
	base, err := s.Config.RunConfig()
	if err != nil {
		return nil, err
	}
	seeds := s.BaseSeeds
	if len(seeds) == 0 {
		seeds = []int64{base.BaseSeed}
	}
	seedSeen := make(map[int64]bool, len(seeds))
	for _, sd := range seeds {
		if seedSeen[sd] {
			return nil, fmt.Errorf("campaign: duplicate base seed %d", sd)
		}
		seedSeen[sd] = true
	}
	units := make([]Unit, 0, len(ids)*len(seeds))
	for _, id := range ids {
		for _, sd := range seeds {
			cfg := base
			cfg.BaseSeed = sd
			cfg = cfg.Normalize()
			units = append(units, Unit{
				Index:     len(units),
				Artifact:  id,
				BaseSeed:  sd,
				Config:    cfg,
				Key:       Key(id, cfg),
				multiSeed: len(seeds) > 1,
			})
		}
	}
	return units, nil
}
