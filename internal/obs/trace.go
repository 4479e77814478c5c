package obs

import "time"

// SpanRecord is one completed stage timing. Stage names are hierarchical
// ("tune/dynamic/fit"); Worker is the engine replica index the work
// ran on, or -1 when the span is not attributed to a worker. ID is unique
// within the registry and Parent links a child span to the span that
// started it (0 means the span has no recorded parent); Detail carries
// unbounded-cardinality context — a workload name, an operating point —
// that must never become a metric label but belongs in the flight
// recorder and the exported trace.
type SpanRecord struct {
	ID            int64   `json:"id"`
	Parent        int64   `json:"parent,omitempty"`
	Name          string  `json:"name"`
	Detail        string  `json:"detail,omitempty"`
	Worker        int     `json:"worker"`
	StartUnixNano int64   `json:"start_unix_nano"`
	DurationS     float64 `json:"duration_s"`
}

// Span is an in-flight stage timing. Obtain one from StartSpan (or from a
// parent via Child), optionally attribute it with WithWorker/WithDetail,
// and End it exactly once. A nil Span (from a disabled registry) is safe
// to use: every method is a no-op and Child returns nil.
type Span struct {
	reg    *Registry
	id     int64
	parent int64
	name   string
	detail string
	worker int
	start  time.Time
	ended  bool
}

// stageSeconds lazily registers the histogram every ended span feeds, so
// stage timings show up in /metrics without per-call-site plumbing.
func (r *Registry) stageSeconds() *HistogramVec {
	return r.HistogramVec("aw_stage_seconds",
		"Wall-clock duration of pipeline stages and sub-stages.",
		ExpBuckets(0.0001, 4, 12), "stage")
}

// traceDropped lazily registers the counter of span records lost to ring
// overflow, so a wrapped flight recorder is visible instead of silent.
func (r *Registry) traceDropped() *Counter {
	return r.Counter("aw_trace_dropped_total",
		"Span records overwritten after the bounded span ring filled.")
}

// StartSpan begins timing a stage. Returns nil when the registry is
// disabled; nil spans no-op on End, so call sites need no guards.
func (r *Registry) StartSpan(name string) *Span {
	if r.off() {
		return nil
	}
	return &Span{reg: r, id: r.spanID.Add(1), name: name, worker: -1, start: time.Now()}
}

// StartSpan begins a stage timing on the default registry.
func StartSpan(name string) *Span { return defaultRegistry.StartSpan(name) }

// Child begins a span whose record links back to s, building the
// session → stage → workload → attempt hierarchy the trace export renders.
// A nil parent (disabled registry) yields a nil child.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.reg.StartSpan(name)
	if c != nil {
		c.parent = s.id
	}
	return c
}

// WithWorker attributes the span to an engine worker (replica index).
func (s *Span) WithWorker(w int) *Span {
	if s != nil {
		s.worker = w
	}
	return s
}

// WithDetail attaches free-form context (a workload name, an operating
// point). Detail is recorded on the span and exported in traces but never
// becomes a metric label — aw_stage_seconds keys on the stage name only,
// keeping its cardinality bounded.
func (s *Span) WithDetail(d string) *Span {
	if s != nil {
		s.detail = d
	}
	return s
}

// End completes the span: it appends the record to the registry's bounded
// ring (oldest records are overwritten once DefaultSpanCapacity is
// reached, counted by aw_trace_dropped_total) and observes the duration
// into aw_stage_seconds{stage=name}. Double-End is a no-op.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	d := time.Since(s.start).Seconds()
	rec := SpanRecord{
		ID:            s.id,
		Parent:        s.parent,
		Name:          s.name,
		Detail:        s.detail,
		Worker:        s.worker,
		StartUnixNano: s.start.UnixNano(),
		DurationS:     d,
	}
	r := s.reg
	dropped := false
	r.spanMu.Lock()
	if len(r.spans) < r.spanCapacity {
		r.spans = append(r.spans, rec)
	} else {
		r.spans[r.spanNext] = rec
		r.spanNext = (r.spanNext + 1) % r.spanCapacity
		dropped = true
	}
	r.spanTotal++
	r.spanMu.Unlock()
	if dropped {
		r.traceDropped().Inc()
	}
	r.stageSeconds().With(s.name).Observe(d)
}

// Spans returns the retained span records, oldest first, plus the total
// number ever recorded (which exceeds len(records) once the ring wrapped).
func (r *Registry) Spans() (records []SpanRecord, total int64) {
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	records = make([]SpanRecord, 0, len(r.spans))
	records = append(records, r.spans[r.spanNext:]...)
	records = append(records, r.spans[:r.spanNext]...)
	return records, r.spanTotal
}
