// Package obs is the repository's observability layer: structured
// tracing (timestamped span/counter events) and a lock-cheap metrics
// registry (counters, gauges, timers), with two sinks — Chrome
// trace-event JSON (loadable in Perfetto or chrome://tracing) and a
// flat metrics-JSON exporter behind every command's -metrics file. It
// depends only on the standard library.
//
// The design rule for hot paths: a disabled tracer is a nil Tracer,
// and every emission site guards with a nil check (directly or via the
// package-level Begin/End/Instant helpers), so tracing off costs one
// predictable branch. Metrics handles (Counter, Gauge, Timer) are
// looked up once and updated with atomics, so counting stays cheap
// even when enabled.
package obs

// Arg is one key/value annotation attached to a trace event. Values
// should be JSON-encodable (numbers and strings in practice).
type Arg struct {
	Key   string
	Value any
}

// A is shorthand for constructing an Arg.
func A(key string, value any) Arg { return Arg{Key: key, Value: value} }

// Tracer consumes structured, timestamped trace events. Spans nest:
// Begin opens a span, End closes the innermost open one. Implementations
// must be safe for concurrent use. A nil Tracer means tracing is off;
// emission sites must guard with a nil check (the package-level helpers
// below do).
type Tracer interface {
	// Begin opens a nested span.
	Begin(name string, args ...Arg)
	// End closes the innermost open span, attaching args to it.
	End(args ...Arg)
	// Instant records a zero-duration point event.
	Instant(name string, args ...Arg)
	// Counter records a sample of one or more named series under a
	// common track name (rendered as a stacked counter in Perfetto).
	Counter(name string, values map[string]float64)
}

// Begin opens a span on t if tracing is enabled.
func Begin(t Tracer, name string, args ...Arg) {
	if t != nil {
		t.Begin(name, args...)
	}
}

// End closes the innermost span on t if tracing is enabled.
func End(t Tracer, args ...Arg) {
	if t != nil {
		t.End(args...)
	}
}

// Instant records a point event on t if tracing is enabled.
func Instant(t Tracer, name string, args ...Arg) {
	if t != nil {
		t.Instant(name, args...)
	}
}

// Sample records a counter sample on t if tracing is enabled.
func Sample(t Tracer, name string, values map[string]float64) {
	if t != nil {
		t.Counter(name, values)
	}
}

// multi fans events out to several tracers.
type multi []Tracer

// Multi combines tracers into one; nils are dropped. Returns nil when
// nothing remains, so the result still short-circuits at call sites.
func Multi(ts ...Tracer) Tracer {
	var nz multi
	for _, t := range ts {
		if t != nil {
			nz = append(nz, t)
		}
	}
	switch len(nz) {
	case 0:
		return nil
	case 1:
		return nz[0]
	}
	return nz
}

func (m multi) Begin(name string, args ...Arg) {
	for _, t := range m {
		t.Begin(name, args...)
	}
}

func (m multi) End(args ...Arg) {
	for _, t := range m {
		t.End(args...)
	}
}

func (m multi) Instant(name string, args ...Arg) {
	for _, t := range m {
		t.Instant(name, args...)
	}
}

func (m multi) Counter(name string, values map[string]float64) {
	for _, t := range m {
		t.Counter(name, values)
	}
}
