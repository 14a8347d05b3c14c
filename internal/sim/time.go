package sim

import "fmt"

// Time is virtual simulation time in nanoseconds. It is a distinct type from
// time.Duration to make it impossible to accidentally mix wall-clock and
// virtual time in the performance model.
type Time int64

// Convenient virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Micros reports t in microseconds as a float, the unit used throughout the
// paper's latency numbers.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t in seconds as a float.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// BytesTime returns the time to move n bytes at the given bandwidth in MB/s,
// computed in float to avoid per-byte rounding error on large transfers.
func BytesTime(n int, mbPerSec float64) Time {
	if mbPerSec <= 0 || n <= 0 {
		return 0
	}
	return Time(float64(n) * 1000.0 / mbPerSec)
}

// MBps converts "n bytes moved in d virtual time" into MB/s.
func MBps(n int64, d Time) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / 1e6 / d.Seconds()
}
