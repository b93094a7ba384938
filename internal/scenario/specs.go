package scenario

import (
	"fmt"

	"greedy80211/internal/detect"
	"greedy80211/internal/greedy"
	"greedy80211/internal/mac"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// Policy names accepted by PolicySpec.Name.
const (
	// PolicyNone is a compliant receiver (the zero value).
	PolicyNone = ""
	// PolicyNAVInflation is misbehavior 1: inflated duration fields.
	PolicyNAVInflation = "nav-inflation"
	// PolicyACKSpoofing is misbehavior 2: ACKs forged on victims' behalf.
	PolicyACKSpoofing = "ack-spoofing"
	// PolicyFakeACKs is misbehavior 3: ACKs for corrupted frames.
	PolicyFakeACKs = "fake-acks"
)

// PolicySpec is the declarative, JSON-serializable description of a
// (possibly greedy) receiver policy: a name plus the knobs the paper
// sweeps, so topology specs can express greedy mixes as data. The zero value is a
// compliant receiver.
type PolicySpec struct {
	// Name selects the misbehavior (PolicyNone, PolicyNAVInflation,
	// PolicyACKSpoofing, PolicyFakeACKs).
	Name string `json:"name,omitempty"`
	// GreedyPercent is how often the receiver misbehaves; zero means 100.
	GreedyPercent float64 `json:"greedy_percent,omitempty"`
	// NAVInflation is misbehavior 1's added duration; zero means 10 ms.
	NAVInflation sim.Time `json:"nav_inflation,omitempty"`
	// Frames selects misbehavior 1's manipulated frame types: "cts",
	// "ack", "cts+ack" (default), "rts+cts", or "all".
	Frames string `json:"frames,omitempty"`
	// Victims lists already-added stations an ACK spoofer forges ACKs
	// for.
	Victims []string `json:"victims,omitempty"`
}

// IsZero reports whether the spec is the compliant zero value.
func (p PolicySpec) IsZero() bool {
	return p.Name == PolicyNone && p.GreedyPercent == 0 && p.NAVInflation == 0 &&
		p.Frames == "" && len(p.Victims) == 0
}

// frameSets maps PolicySpec.Frames names to greedy frame sets.
var frameSets = map[string]greedy.FrameSet{
	"cts":     greedy.CTSOnly,
	"ack":     greedy.ACKOnly,
	"cts+ack": greedy.CTSAndACK,
	"rts+cts": greedy.RTSAndCTS,
	"all":     greedy.AllFrames,
}

// Validate reports whether the spec is well-formed: a known policy name,
// percentages in range, and no knob that belongs to a different policy.
func (p PolicySpec) Validate() error {
	if p.GreedyPercent < 0 || p.GreedyPercent > 100 {
		return fmt.Errorf("scenario: PolicySpec.GreedyPercent %v out of [0,100]", p.GreedyPercent)
	}
	switch p.Name {
	case PolicyNone:
		if !p.IsZero() {
			return fmt.Errorf("scenario: PolicySpec has parameters but no policy name")
		}
	case PolicyNAVInflation:
		if p.Frames != "" {
			if _, ok := frameSets[p.Frames]; !ok {
				return fmt.Errorf("scenario: PolicySpec.Frames %q unknown (cts, ack, cts+ack, rts+cts, all)", p.Frames)
			}
		}
		if len(p.Victims) != 0 {
			return fmt.Errorf("scenario: PolicySpec %q does not take victims", p.Name)
		}
	case PolicyACKSpoofing:
		if p.NAVInflation != 0 || p.Frames != "" {
			return fmt.Errorf("scenario: PolicySpec %q does not take NAV/frame knobs", p.Name)
		}
	case PolicyFakeACKs:
		if p.NAVInflation != 0 || p.Frames != "" || len(p.Victims) != 0 {
			return fmt.Errorf("scenario: PolicySpec %q takes only a greedy percentage", p.Name)
		}
	default:
		return fmt.Errorf("scenario: unknown policy %q", p.Name)
	}
	return nil
}

// build materializes the policy against a world under construction.
// Victims must already be added (builders add receivers first).
func (p PolicySpec) build(w *World) (mac.ReceiverPolicy, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	gp := p.GreedyPercent
	if gp == 0 {
		gp = 100
	}
	switch p.Name {
	case PolicyNone:
		return nil, nil
	case PolicyNAVInflation:
		extra := p.NAVInflation
		if extra == 0 {
			extra = 10 * sim.Millisecond
		}
		set := greedy.CTSAndACK
		if p.Frames != "" {
			set = frameSets[p.Frames]
		}
		return greedy.NewNAVInflation(w.Sched.RNG(), set, extra, gp), nil
	case PolicyACKSpoofing:
		victims := make([]mac.NodeID, 0, len(p.Victims))
		for _, name := range p.Victims {
			st, ok := w.Station(name)
			if !ok {
				return nil, fmt.Errorf("scenario: spoof victim %q not added yet", name)
			}
			victims = append(victims, st.ID)
		}
		return greedy.NewACKSpoofer(w.Sched.RNG(), gp, victims...), nil
	case PolicyFakeACKs:
		return greedy.NewFakeACKer(w.Sched.RNG(), gp), nil
	default:
		return nil, fmt.Errorf("scenario: unknown policy %q", p.Name)
	}
}

// StationSpec declaratively customizes one BuildCells station — the
// JSON-serializable counterpart of the other builders' ReceiverOpts and
// SenderOpts closures, so topology specs can express greedy mixes, GRC
// deployment, queue sizing, and placement as data.
type StationSpec struct {
	// Policy installs a (possibly greedy) receiver policy.
	Policy PolicySpec `json:"policy,omitempty"`
	// GRC installs the countermeasure observer with the given config.
	GRC *detect.Config `json:"grc,omitempty"`
	// QueueCap overrides the world's MAC queue bound for this station.
	QueueCap int `json:"queue_cap,omitempty"`
	// Position overrides the builder's default placement.
	Position *phys.Position `json:"position,omitempty"`
	// Channel overrides the builder's channel assignment (multi-BSS
	// worlds); zero keeps it.
	Channel int `json:"channel,omitempty"`
}

// opts materializes the spec into StationOpts against a world under
// construction.
func (s StationSpec) opts(w *World) (StationOpts, error) {
	policy, err := s.Policy.build(w)
	if err != nil {
		return StationOpts{}, err
	}
	return StationOpts{
		Policy:   policy,
		GRC:      s.GRC,
		QueueCap: s.QueueCap,
		Channel:  s.Channel,
	}, nil
}

// stationFor resolves station i's options and position during a
// BuildCells build: indices past the spec slice are compliant stations
// at the builder's default placement.
func stationFor(w *World, i int, def phys.Position, specs []StationSpec) (StationOpts, phys.Position, error) {
	if i >= len(specs) {
		return StationOpts{}, def, nil
	}
	opts, err := specs[i].opts(w)
	if err != nil {
		return StationOpts{}, def, err
	}
	if specs[i].Position != nil {
		def = *specs[i].Position
	}
	return opts, def, nil
}
