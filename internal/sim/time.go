// Package sim provides the discrete-event simulation kernel used by every
// other package in this repository: virtual time, an event scheduler, and
// deterministic random-number streams.
//
// The kernel is deliberately small. A simulation is a single goroutine that
// pops timestamped events off a monotone radix queue and executes their
// callbacks; callbacks schedule further events. Determinism comes from (a) a total order on
// events (time, then insertion sequence) and (b) seeded RNG streams handed
// out by the Scheduler.
package sim

import (
	"fmt"
	"strconv"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation. 802.11 works in microsecond quanta, but nanosecond resolution
// keeps propagation-delay and rate arithmetic exact without floating point.
type Time int64

// Duration units, mirroring time.Duration but for virtual time.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
)

// Never is a sentinel meaning "no scheduled time". It sorts after every
// realistic simulation instant.
const Never Time = 1<<63 - 1

// Microseconds reports t as a floating-point microsecond count.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a floating-point second count.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit, e.g. "152.3µs" or "1.250s".
func (t Time) String() string {
	switch {
	case t == Never:
		return "never"
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return strconv.FormatInt(int64(t), 10) + "ns"
	case t < Millisecond:
		return fmt.Sprintf("%.1fµs", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// FromMicroseconds converts a microsecond count to a Time.
func FromMicroseconds(us int64) Time { return Time(us) * Microsecond }

// FromSeconds converts a (possibly fractional) second count to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }
