package main

import "time"

// maxSpans bounds the in-memory span buffer of a traced run, and
// spanOpsPerUnit the operations per unit and round whose spans are kept,
// so every engine and cell is represented in the dump.
const (
	maxSpans       = 200_000
	spanOpsPerUnit = 2_000
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one operation share Op.
type span struct {
	ID, Parent, Op uint64
	Name, Unit     string
	host0, host1   time.Time
	V0, V1         int64 // virtual start and end, ns on the client clock
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing.
type tracer struct {
	spans   []span
	next    uint64
	dropped int
}

func (t *tracer) newID() uint64 {
	if t == nil {
		return 0
	}
	t.next++
	return t.next
}

// op records the span of one workload operation, if it is among the
// first spanOpsPerUnit of its unit.
func (t *tracer) op(s span) {
	if t != nil && s.Op > spanOpsPerUnit {
		t.dropped++
		return
	}
	t.add(s)
}

func (t *tracer) add(s span) {
	if t == nil {
		return
	}
	if s.ID == 0 {
		s.ID = t.newID()
	}
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}
