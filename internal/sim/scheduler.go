package sim

import (
	"fmt"
	"math/bits"
	"math/rand"

	"greedy80211/internal/pool"
)

// Handler is an event callback. It runs at the event's scheduled time with
// the Scheduler's clock already advanced to that time.
type Handler func()

// ArgHandler is an event callback taking the argument it was scheduled
// with (see AtCall). Passing a package-level function plus a pointer
// argument schedules with zero allocations, where an equivalent closure
// would allocate per event or per captured object.
type ArgHandler func(arg any)

// Event is a scheduled callback. The zero value is not useful; events are
// created via Scheduler.Schedule or Scheduler.At. An Event may be cancelled
// before it fires; cancellation is O(1) (the event is skipped when popped).
//
// Events are recycled: once an event has fired (or been cancelled and
// drained from the queue) its storage returns to the scheduler's freelist
// and a later Schedule/At call may hand the same *Event out again. Holding
// a reference past that point and calling Cancel on it would cancel the
// event's next incarnation, so drop references when an event fires — the
// pattern Timer follows by clearing its pointer before running the handler.
type Event struct {
	when      Time
	id        uint32 // slab slot, fixed at chunk allocation
	next      uint32 // slab slot of the next event in the same bucket
	cancelled bool
	fn        Handler
	argFn     ArgHandler // exactly one of fn/argFn is set
	arg       any
}

// When reports the time at which the event is (or was) scheduled to fire.
func (e *Event) When() Time { return e.when }

// Cancelled reports whether Cancel was called on the event.
func (e *Event) Cancelled() bool { return e.cancelled }

// bucket is one level of the radix queue: a FIFO list of events threaded
// through Event.next, from head to tail, and the earliest time in it.
// Lists hold slab ids rather than pointers, so relinking issues no GC
// write barriers.
type bucket struct {
	head, tail uint32
	min        Time
}

// eventChunkSize is how many Events each slab allocation holds. Event
// pointers must stay stable, so events are allocated in fixed-size chunks
// rather than one growable slice. The size must stay a power of two: an
// event's id decomposes as (slab index << shift) | slot.
// Live events track pending-queue depth (tens in hotspot scenarios), and
// a world is built per seed, so a small slab keeps construction cheap.
const (
	eventChunkSize  = 64
	eventChunkShift = 6
	eventChunkMask  = eventChunkSize - 1
)

// eventSlab is one fixed-size block of event storage.
type eventSlab [eventChunkSize]Event

// Scheduler is the discrete-event simulation core: a virtual clock and a
// priority queue of events. It is single-goroutine by design — all of the
// simulation's concurrency is virtual; independent Schedulers may run on
// concurrent goroutines. A Scheduler also acts as the root of the
// simulation's deterministic randomness (see RNG).
//
// The queue is a monotone radix queue. Every queued event is at or after
// last, the time of the most recent redistribution (or the clock, when a
// push finds the queue empty), and sits in bucket
// bits.Len64(when ^ last): bucket 0 holds the events at exactly last, and
// each higher bucket holds later events than every lower one. Popping
// takes bucket 0's head; when bucket 0 is empty, the lowest non-empty
// bucket is redistributed under its own minimum, which moves each of its
// events to a strictly lower bucket. Events with equal times always share
// a bucket, pushes append in schedule order and relinking is stable, so
// events fire in exact (time, schedule order) without storing a sequence
// number.
type Scheduler struct {
	now      Time
	last     Time
	buckets  [64]bucket
	used     uint64 // bit i set iff buckets[i] is non-empty
	pending  int
	seq      uint64 // events ever scheduled
	executed uint64
	seed     int64
	streams  int64
	halted   bool

	// Event storage: fixed-size slabs keep *Event stable while the
	// freelist recycles fired/cancelled events (by id, keeping the
	// freelist pointer-free too), so steady-state scheduling does not
	// allocate.
	slabs  []*eventSlab
	free   []uint32
	chunks int // number of slabs allocated (growth observability)
}

// eventAt resolves a slab id back to its event.
func (s *Scheduler) eventAt(id uint32) *Event {
	return &s.slabs[id>>eventChunkShift][id&eventChunkMask]
}

// NewScheduler returns a scheduler with its clock at zero, seeding all RNG
// streams derived via RNG from seed.
func NewScheduler(seed int64) *Scheduler {
	return &Scheduler{seed: seed}
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Executed reports how many events have fired so far (useful for progress
// accounting and benchmarks).
func (s *Scheduler) Executed() uint64 { return s.executed }

// Pending reports the number of events still queued (including cancelled
// events not yet skipped).
func (s *Scheduler) Pending() int { return s.pending }

// Stats reports the event slab's occupancy in the same shape the object
// pools use: chunks grown, events currently queued (live), and freelist
// depth. Every At call checks an event out, so Gets equals the lifetime
// schedule count.
func (s *Scheduler) Stats() pool.Stats {
	live := s.chunks*eventChunkSize - len(s.free)
	return pool.Stats{
		Chunks:    s.chunks,
		ChunkSize: eventChunkSize,
		Live:      live,
		Free:      len(s.free),
		Gets:      s.seq,
		Puts:      s.seq - uint64(live),
	}
}

// RNG returns a new deterministic random stream. Streams are derived from
// the scheduler seed and a counter, so the i-th stream requested is the same
// across runs with the same seed regardless of timing.
func (s *Scheduler) RNG() *rand.Rand {
	s.streams++
	// SplitMix-style mixing keeps streams decorrelated even for small seeds.
	z := uint64(s.seed) + uint64(s.streams)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return rand.New(rand.NewSource(int64(z)))
}

// alloc hands out an Event from the freelist, growing the slab by one
// chunk only when every previously allocated event is live.
func (s *Scheduler) alloc() *Event {
	if n := len(s.free); n > 0 {
		id := s.free[n-1]
		s.free = s.free[:n-1]
		return s.eventAt(id)
	}
	slab := new(eventSlab)
	base := uint32(len(s.slabs)) << eventChunkShift
	s.slabs = append(s.slabs, slab)
	s.chunks++
	for i := eventChunkSize - 1; i >= 1; i-- {
		slab[i].id = base + uint32(i)
		s.free = append(s.free, base+uint32(i))
	}
	slab[0].id = base
	return &slab[0]
}

// release returns a drained event to the freelist.
func (s *Scheduler) release(ev *Event) {
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
	s.free = append(s.free, ev.id)
}

// At schedules fn to run at absolute time t, which must not be in the past.
func (s *Scheduler) At(t Time, fn Handler) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: scheduling nil handler")
	}
	ev := s.alloc()
	ev.when = t
	ev.cancelled = false
	ev.fn = fn
	s.push(ev)
	return ev
}

// AtCall schedules fn(arg) to run at absolute time t. It is the
// allocation-free alternative to At for hot paths: fn is typically a
// package-level function and arg a pooled object, so neither boxes.
func (s *Scheduler) AtCall(t Time, fn ArgHandler, arg any) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	if fn == nil {
		panic("sim: scheduling nil handler")
	}
	ev := s.alloc()
	ev.when = t
	ev.cancelled = false
	ev.argFn = fn
	ev.arg = arg
	s.push(ev)
	return ev
}

// Schedule schedules fn to run after delay (which may be zero but not
// negative).
func (s *Scheduler) Schedule(delay Time, fn Handler) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return s.At(s.now+delay, fn)
}

// Cancel marks ev so it will not fire. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (s *Scheduler) Cancel(ev *Event) {
	if ev == nil || ev.cancelled {
		return
	}
	ev.cancelled = true
	// Release references held by the closure or argument.
	ev.fn = nil
	ev.argFn = nil
	ev.arg = nil
}

// Halt stops Run/RunUntil after the currently executing event returns.
func (s *Scheduler) Halt() { s.halted = true }

// push queues ev, whose time is not before now.
func (s *Scheduler) push(ev *Event) {
	if s.used == 0 {
		// An empty queue may have drained cancelled events past now;
		// restart the radix at now so every future push lands at or
		// after last. A non-empty queue always has last ≤ now: last only
		// moves to a bucket minimum that is about to fire or is no later
		// than a RunUntil end, which the clock then reaches.
		s.last = s.now
	}
	s.used = s.link(ev, s.last, s.used)
	s.pending++
	s.seq++
}

// link appends ev to the tail of its bucket under last, given and
// returning the mask of non-empty buckets; redistribution keeps both in
// registers across its loop.
func (s *Scheduler) link(ev *Event, last Time, used uint64) uint64 {
	i := bits.Len64(uint64(ev.when ^ last))
	b := &s.buckets[i]
	if used&(1<<i) == 0 {
		b.head, b.tail, b.min = ev.id, ev.id, ev.when
		return used | 1<<i
	}
	s.eventAt(b.tail).next = ev.id
	b.tail = ev.id
	if ev.when < b.min {
		b.min = ev.when
	}
	return used
}

// next dequeues the earliest live event at or before limit, releasing
// the cancelled events it passes. It returns nil, leaving later events
// queued and last unmoved past limit, when there is none.
func (s *Scheduler) next(limit Time) *Event {
	for s.used != 0 {
		if s.used&1 == 0 {
			k := bits.TrailingZeros64(s.used)
			b := s.buckets[k]
			if b.min > limit {
				return nil
			}
			// Redistribute bucket k under its minimum. Every event moves
			// to a lower bucket, at least one of them to bucket 0, and
			// the list is walked in order so ties stay FIFO. A lone
			// event moves straight to bucket 0.
			s.last = b.min
			used := s.used &^ (1 << k)
			if b.head == b.tail {
				s.buckets[0] = b
				used |= 1
			} else {
				for id := b.head; ; {
					ev := s.eventAt(id)
					nextID := ev.next
					used = s.link(ev, b.min, used)
					if id == b.tail {
						break
					}
					id = nextID
				}
			}
			s.used = used
		} else if s.last > limit {
			return nil
		}
		b := &s.buckets[0]
		ev := s.eventAt(b.head)
		if b.head == b.tail {
			s.used &^= 1
		} else {
			b.head = ev.next
		}
		s.pending--
		if !ev.cancelled {
			return ev
		}
		s.release(ev)
	}
	return nil
}

// fire advances the clock to ev, runs it and recycles it.
func (s *Scheduler) fire(ev *Event) {
	s.now = ev.when
	s.executed++
	if fn := ev.fn; fn != nil {
		fn()
	} else {
		ev.argFn(ev.arg)
	}
	s.release(ev)
}

// Run executes events until the queue is empty or Halt is called.
func (s *Scheduler) Run() {
	s.halted = false
	for !s.halted {
		ev := s.next(Never)
		if ev == nil {
			return
		}
		s.fire(ev)
	}
}

// RunUntil executes events with time ≤ end, leaving the clock at end (or at
// the last event if the queue empties first). Events scheduled at exactly
// end do fire.
func (s *Scheduler) RunUntil(end Time) {
	s.halted = false
	for !s.halted {
		ev := s.next(end)
		if ev == nil {
			break
		}
		s.fire(ev)
	}
	if s.now < end {
		s.now = end
	}
}
