package medium

import (
	"testing"

	"greedy80211/internal/mac"
	"greedy80211/internal/metrics"
	"greedy80211/internal/phys"
	"greedy80211/internal/sim"
)

// One data/ACK exchange overheard by a co-located bystander, checked
// against hand arithmetic. The data frame's duration field reserves
// SIFS + ACK airtime; the bystander is physically busy during the ACK
// itself, so the NAV alone blocks it for exactly the SIFS gap. The sender
// and the addressed receiver never set a NAV at all.
func TestNAVBlockedMatchesHandComputedExchange(t *testing.T) {
	cfg := DefaultConfig()
	reg := metrics.NewRegistry()
	cfg.Metrics = reg
	h := newHarness(t, cfg, 21)
	// Co-located stations: zero propagation delay keeps the arithmetic
	// exact. No RTS/CTS, loss-free channel, a single enqueued MSDU.
	a := h.addStation(t, 1, phys.Position{}, mac.Config{})
	b := h.addStation(t, 2, phys.Position{}, mac.Config{})
	c := h.addStation(t, 3, phys.Position{}, mac.Config{})
	reg.Register(1, "A", a.dcf)
	reg.Register(2, "B", b.dcf)
	reg.Register(3, "C", c.dcf)
	if !a.dcf.Send(2, nil, 1024) {
		t.Fatal("enqueue failed")
	}
	h.run(1 * sim.Second)

	p := phys.Params80211B()
	if got := c.dcf.NAVBlocked(); got != p.SIFS {
		t.Errorf("bystander NAV-blocked = %v, want exactly SIFS = %v", got, p.SIFS)
	}
	if got := a.dcf.NAVBlocked(); got != 0 {
		t.Errorf("sender NAV-blocked = %v, want 0 (own frame sets no NAV)", got)
	}
	if got := b.dcf.NAVBlocked(); got != 0 {
		t.Errorf("receiver NAV-blocked = %v, want 0 (frame addressed to it)", got)
	}

	// Airtime attribution: A's one data frame, B's one ACK, C silent, and
	// channel busy time is their sum.
	dataAir := p.TxDuration(1024+phys.DataHeaderBytes, p.DataRateBps)
	ackAir := p.TxDuration(phys.ACKFrameBytes, p.BasicRateBps)
	s := reg.Snapshot(1 * sim.Second)
	if len(s.Stations) != 3 {
		t.Fatalf("stations in snapshot: %d", len(s.Stations))
	}
	stA, stB, stC := s.Stations[0], s.Stations[1], s.Stations[2]
	if got := stA.AirtimeSecs; got != dataAir.Seconds() {
		t.Errorf("A airtime = %v s, want %v s", got, dataAir.Seconds())
	}
	if got := stB.AirtimeSecs; got != ackAir.Seconds() {
		t.Errorf("B airtime = %v s, want %v s", got, ackAir.Seconds())
	}
	if stC.AirtimeSecs != 0 {
		t.Errorf("silent bystander airtime = %v s", stC.AirtimeSecs)
	}
	if got, want := s.ChannelBusySecs, (dataAir + ackAir).Seconds(); got != want {
		t.Errorf("channel busy = %v s, want %v s", got, want)
	}
	if stC.NAVBlockedSecs != p.SIFS.Seconds() {
		t.Errorf("snapshot NAV-blocked = %v s, want %v s", stC.NAVBlockedSecs, p.SIFS.Seconds())
	}
}

// The always-on registry and the hand-rolled airtime tap must agree: the
// registry's channel-busy total equals the sum of every OnTransmit
// airtime.
type airtimeSum struct {
	total sim.Time
}

func (s *airtimeSum) OnTransmit(_ mac.NodeID, _ *mac.Frame, _, airtime sim.Time) {
	s.total += airtime
}
func (s *airtimeSum) OnReceive(mac.NodeID, *mac.Frame, mac.RxInfo, sim.Time) {}

func TestRegistryAgreesWithTap(t *testing.T) {
	cfg := DefaultConfig()
	reg := metrics.NewRegistry()
	tap := &airtimeSum{}
	cfg.Metrics = reg
	h := newHarness(t, cfg, 23)
	h.med.AddTap(tap)
	h.addStation(t, 1, phys.Position{X: 0}, mac.Config{UseRTSCTS: true})
	h.addStation(t, 2, phys.Position{X: 5}, mac.Config{UseRTSCTS: true})
	h.startFlow(1, 2)
	h.run(1 * sim.Second)

	s := reg.Snapshot(1 * sim.Second)
	if s.ChannelBusySecs == 0 {
		t.Fatal("registry saw no transmissions")
	}
	if got, want := s.ChannelBusySecs, tap.total.Seconds(); got != want {
		t.Errorf("registry busy %v s != tap sum %v s", got, want)
	}
}
