package sim

import (
	"fmt"
	"testing"
	"unsafe"
)

// RunUntil can stop short of the queue's minimum, possibly after draining
// cancelled events before it, and code then schedules into the gap
// [end, minimum). Those events must fire first, and new events tying the
// old minimum must fire after the ones already queued there.
func TestScheduleBehindPeekedMinimum(t *testing.T) {
	s := NewScheduler(1)
	var order []string
	at := func(when Time, name string) *Event {
		return s.At(when, func() { order = append(order, fmt.Sprintf("%s@%v", name, s.Now())) })
	}
	at(100*Microsecond, "a")
	at(100*Microsecond, "b")
	at(300*Microsecond, "c")
	s.Cancel(at(40*Microsecond, "cancelled"))

	s.RunUntil(50 * Microsecond)
	if len(order) != 0 || s.Now() != 50*Microsecond {
		t.Fatalf("RunUntil(50µs) fired %v, clock %v; want nothing, 50µs", order, s.Now())
	}
	at(60*Microsecond, "d")
	at(50*Microsecond, "e")
	at(100*Microsecond, "f")
	s.RunUntil(100 * Microsecond)
	s.Run()

	want := "[e@50.0µs d@60.0µs a@100.0µs b@100.0µs f@100.0µs c@300.0µs]"
	if got := fmt.Sprint(order); got != want {
		t.Fatalf("fired %s, want %s", got, want)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending() = %d after Run, want 0", s.Pending())
	}
}

// Run can drain cancelled events beyond the clock and leave the queue
// empty; events scheduled afterwards between the clock and those drained
// times must still fire in time order.
func TestScheduleAfterDrainingCancelled(t *testing.T) {
	s := NewScheduler(1)
	s.Cancel(s.At(100, func() { t.Error("cancelled event fired") }))
	s.Run()
	var order []Time
	for _, when := range []Time{96, 50} {
		s.At(when, func() { order = append(order, s.Now()) })
	}
	s.Run()
	if fmt.Sprint(order) != "[50ns 96ns]" {
		t.Fatalf("fired at %v, want [50ns 96ns]", order)
	}
}

// xorshift is a tiny allocation-free PRNG for queue workloads.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// newWidthChurn returns a scheduler holding width pending events, each of
// which reschedules itself 1 ns to 1 ms ahead when it fires: the queue's
// steady state in a world with that many radios' timers armed. Run halts
// once Executed reaches *haltAt.
func newWidthChurn(width int) (s *Scheduler, haltAt *uint64) {
	s, haltAt = NewScheduler(1), new(uint64)
	rng := xorshift(1)
	var tick Handler
	tick = func() {
		if s.Executed() == *haltAt {
			s.Halt()
		}
		s.Schedule(1+Time(rng.next()%uint64(Millisecond)), tick)
	}
	for i := 0; i < width; i++ {
		s.Schedule(1+Time(rng.next()%uint64(Millisecond)), tick)
	}
	return s, haltAt
}

// The queue threads its buckets through the event slab, so once the slab
// and freelist have grown to the pending width, scheduling and popping
// allocate nothing, at any width.
func TestSchedulerQueueZeroAlloc(t *testing.T) {
	if size := unsafe.Sizeof(Event{}); size > 56 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d, want ≤ 56", size)
	}
	s, _ := newWidthChurn(4100)
	churn := func() { s.RunUntil(s.Now() + Millisecond) }
	for i := 0; i < 5; i++ {
		churn()
	}
	if allocs := testing.AllocsPerRun(20, churn); allocs != 0 {
		t.Errorf("steady-state churn at width 4100: %v allocs/run, want 0", allocs)
	}
}

// BenchmarkSchedulerWidth is the per-event queue cost at the pending
// depths of the 1-, 16- and 100-cell worlds.
func BenchmarkSchedulerWidth(b *testing.B) {
	for _, width := range []int{64, 700, 4100} {
		b.Run(fmt.Sprint(width), func(b *testing.B) {
			b.ReportAllocs()
			s, haltAt := newWidthChurn(width)
			s.RunUntil(10 * Millisecond) // settle into the steady state
			*haltAt = s.Executed() + uint64(b.N)
			b.ResetTimer()
			s.Run()
		})
	}
}
