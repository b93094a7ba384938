package sim

import "testing"

// fuzzTimers is how many Timers a FuzzScheduler input can arm.
const fuzzTimers = 3

// FuzzScheduler decodes its input into a sequence of At, AtCall, Cancel,
// Timer.Start, Timer.Stop, RunUntil and Run-until-Halt calls, replays it on
// a Scheduler and on refModel, and requires both to fire the same events
// at the same times in the same order.
//
// Each call is five bytes [op a b c d]. A time is now + (a<<8|b) << (c%48),
// or Never when c is 0xff, so inputs reach every bucket of the queue as
// well as exact ties:
//
//	op%8 0: At(time); if d > 0 the event schedules a child d-1 ns after it fires
//	op%8 1: AtCall(time), with a child as for At
//	op%8 2: Cancel the (a<<8|b)-th live event; odd c cancels it twice
//	op%8 3: timer d%3 Start(time - now)
//	op%8 4: timer d%3 Stop
//	op%8 5: RunUntil(time)
//	op%8 6: Run, halting after 1 + d%16 events
//	op%8 7: Run
//
// The seed corpus in testdata/fuzz/FuzzScheduler covers same-time FIFO
// across a redistribution, cancelling a bucket's head and tail, events at
// Never, scheduling behind a minimum that RunUntil stopped short of, and
// scheduling after Run drained cancelled events past the clock.
func FuzzScheduler(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		h := newFuzzHarness()
		for ; len(data) >= 5; data = data[5:] {
			h.apply(data[0], data[1], data[2], data[3], data[4])
			h.check(t)
		}
		h.haltAt = 0
		h.s.Run()
		h.m.run(Never, 0, false)
		h.check(t)
		if p := h.s.Pending(); p != 0 {
			t.Fatalf("Pending() = %d after a full Run, want 0", p)
		}
	})
}

// fuzzFire is one fired event: its label and the clock when it ran.
type fuzzFire struct {
	label int
	at    Time
}

// fuzzRec is what a scheduled event carries into its handler.
type fuzzRec struct {
	h     *fuzzHarness
	label int
	child Time // delay of the child it schedules when it fires, or -1
}

// fuzzHarness drives the Scheduler under test beside its reference model.
type fuzzHarness struct {
	s          *Scheduler
	m          *refModel
	events     map[int]*Event // queued, uncancelled plain events by label
	timers     [fuzzTimers]*Timer
	timerLabel [fuzzTimers]int
	labels     int
	haltAt     uint64
	got        []fuzzFire
}

func newFuzzHarness() *fuzzHarness {
	h := &fuzzHarness{s: NewScheduler(1), m: newRefModel(), events: map[int]*Event{}}
	for j := range h.timers {
		j := j
		h.timers[j] = NewTimer(h.s, func() {
			h.got = append(h.got, fuzzFire{h.timerLabel[j], h.s.Now()})
			h.maybeHalt()
		})
	}
	return h
}

// fuzzAdd is now + d, saturating at Never.
func fuzzAdd(now, d Time) Time {
	if d > Never-now {
		return Never
	}
	return now + d
}

// time decodes an absolute time at or after now.
func (h *fuzzHarness) time(a, b, c byte) Time {
	if c == 0xff {
		return Never
	}
	return fuzzAdd(h.s.Now(), Time(int(a)<<8|int(b))<<(c%48))
}

func (h *fuzzHarness) apply(op, a, b, c, d byte) {
	switch op % 8 {
	case 0, 1:
		when, child := h.time(a, b, c), Time(-1)
		if d > 0 {
			child = Time(d - 1)
		}
		r := &fuzzRec{h: h, label: h.labels, child: child}
		h.labels += 2 // the child, if any, takes label+1
		if op%8 == 0 {
			h.events[r.label] = h.s.At(when, r.fire)
		} else {
			h.events[r.label] = h.s.AtCall(when, fuzzFireArg, r)
		}
		h.m.push(refEvent{when: when, label: r.label, child: child, timer: -1})
	case 2:
		if len(h.m.live) == 0 {
			return
		}
		label := h.m.live[(int(a)<<8|int(b))%len(h.m.live)]
		h.s.Cancel(h.events[label])
		if c&1 == 1 {
			h.s.Cancel(h.events[label])
		}
		delete(h.events, label)
		h.m.remove(label)
	case 3:
		j, when := int(d)%fuzzTimers, h.time(a, b, c)
		h.timerLabel[j] = h.labels
		h.labels++
		h.timers[j].Start(when - h.s.Now())
		h.m.startTimer(j, when, h.timerLabel[j])
	case 4:
		j := int(d) % fuzzTimers
		h.timers[j].Stop()
		h.m.stopTimer(j)
	case 5:
		end := h.time(a, b, c)
		h.s.RunUntil(end)
		h.m.run(end, h.haltAt, true)
	case 6:
		h.haltAt = h.s.Executed() + 1 + uint64(d%16)
		h.s.Run()
		h.m.run(Never, h.haltAt, false)
	case 7:
		h.haltAt = 0
		h.s.Run()
		h.m.run(Never, 0, false)
	}
}

func fuzzFireArg(arg any) { arg.(*fuzzRec).fire() }

func (r *fuzzRec) fire() {
	h := r.h
	now := h.s.Now()
	h.got = append(h.got, fuzzFire{r.label, now})
	delete(h.events, r.label)
	if r.child >= 0 {
		c := &fuzzRec{h: h, label: r.label + 1, child: -1}
		h.events[c.label] = h.s.At(fuzzAdd(now, r.child), c.fire)
	}
	h.maybeHalt()
}

func (h *fuzzHarness) maybeHalt() {
	if h.s.Executed() == h.haltAt {
		h.s.Halt()
	}
}

// check compares the Scheduler with the model after a call.
func (h *fuzzHarness) check(t *testing.T) {
	t.Helper()
	if len(h.got) != len(h.m.fired) {
		t.Fatalf("fired %d events, model fired %d\n got  %v\n want %v", len(h.got), len(h.m.fired), h.got, h.m.fired)
	}
	for i := range h.got {
		if h.got[i] != h.m.fired[i] {
			t.Fatalf("firing %d = %+v, model %+v\n got  %v\n want %v", i, h.got[i], h.m.fired[i], h.got, h.m.fired)
		}
	}
	if h.s.Now() != h.m.now {
		t.Fatalf("Now() = %v, model %v", h.s.Now(), h.m.now)
	}
	if h.s.Executed() != uint64(len(h.m.fired)) {
		t.Fatalf("Executed() = %d, model fired %d", h.s.Executed(), len(h.m.fired))
	}
	for j, tm := range h.timers {
		label, want := h.m.timers[j], Never
		if label >= 0 {
			want = h.m.find(label).when
		}
		if tm.Deadline() != want || tm.Pending() != (label >= 0) {
			t.Fatalf("timer %d: Deadline() = %v Pending() = %v, model deadline %v", j, tm.Deadline(), tm.Pending(), want)
		}
	}
}

// refEvent is one event queued in refModel.
type refEvent struct {
	when  Time
	label int
	child Time // as fuzzRec.child
	timer int  // the Timer it arms, or -1
}

// refModel is the reference queue: events in schedule order, fired by a
// linear scan for the earliest time whose first occurrence wins ties.
// Cancelled events are removed outright.
type refModel struct {
	now    Time
	q      []refEvent
	live   []int // labels of queued plain events, in schedule order
	timers [fuzzTimers]int
	fired  []fuzzFire
}

func newRefModel() *refModel {
	m := &refModel{}
	for j := range m.timers {
		m.timers[j] = -1
	}
	return m
}

func (m *refModel) push(e refEvent) {
	m.q = append(m.q, e)
	if e.timer < 0 {
		m.live = append(m.live, e.label)
	}
}

func (m *refModel) find(label int) refEvent {
	for _, e := range m.q {
		if e.label == label {
			return e
		}
	}
	panic("refModel: no queued event with that label")
}

// remove drops the queued event with label from q and live.
func (m *refModel) remove(label int) {
	for i, e := range m.q {
		if e.label == label {
			m.q = append(m.q[:i], m.q[i+1:]...)
			break
		}
	}
	for i, l := range m.live {
		if l == label {
			m.live = append(m.live[:i], m.live[i+1:]...)
			break
		}
	}
}

func (m *refModel) startTimer(j int, when Time, label int) {
	m.stopTimer(j)
	m.timers[j] = label
	m.push(refEvent{when: when, label: label, child: -1, timer: j})
}

func (m *refModel) stopTimer(j int) {
	if m.timers[j] >= 0 {
		m.remove(m.timers[j])
		m.timers[j] = -1
	}
}

// run fires events with time ≤ end until the queue empties or the
// haltAt-th event overall has fired. With advance set it then moves the
// clock to end, as RunUntil does.
func (m *refModel) run(end Time, haltAt uint64, advance bool) {
	for {
		i := -1
		for k, e := range m.q {
			if i < 0 || e.when < m.q[i].when {
				i = k
			}
		}
		if i < 0 || m.q[i].when > end {
			break
		}
		e := m.q[i]
		m.remove(e.label)
		m.now = e.when
		m.fired = append(m.fired, fuzzFire{e.label, e.when})
		if e.timer >= 0 {
			m.timers[e.timer] = -1
		}
		if e.child >= 0 {
			m.push(refEvent{when: fuzzAdd(m.now, e.child), label: e.label + 1, child: -1, timer: -1})
		}
		if uint64(len(m.fired)) == haltAt {
			break
		}
	}
	if advance && m.now < end {
		m.now = end
	}
}
