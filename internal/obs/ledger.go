// The power-attribution ledger: a structured, append-only flight recorder
// for pipeline events — measurements, quarantines, fit coefficients,
// per-kernel power breakdowns — serialised as JSON Lines. Where the metric
// registry answers "how much, in aggregate", the ledger answers "who
// consumed which watts, when, in which stage": one Event per occurrence,
// correlated across a run by a shared run ID, with unbounded-cardinality
// context (workload names, operating points) that must never become a
// metric label.
//
// Like the rest of obs, the ledger is strictly observe-only: no pipeline
// code path reads an event back, so installing or removing a ledger cannot
// change any output. Event *sets* are deterministic at every worker count —
// emission happens inside singleflight artifact computations or a stage's
// sequential fold, never per scheduling decision — while sequence numbers and
// timestamps record the actual interleaving of a particular run.
package obs

import (
	"bufio"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync"
	"time"
)

// Event kinds. The vocabulary is fixed so ledger consumers can switch on
// it; Detail/Coeffs carry the kind-specific payload.
const (
	KindRunStart   = "run_start"   // one per run: Detail = arch, Coeffs = config
	KindRunEnd     = "run_end"     // one per run: Reason = outcome
	KindMeasure    = "measure"     // one per operating point: Workload, ClockMHz, PowerW, Attempts
	KindMeasureErr = "measure_err" // a point that failed every retry: Error
	KindQuarantine = "quarantine"  // workload removed from the flow: Reason
	KindFit        = "fit"         // a stage's fitted coefficients: Stage, Coeffs
	KindBreakdown  = "breakdown"   // per-kernel attribution: Breakdown sums to PowerW
	KindEnergy     = "energy"      // per-tenant energy over one window: Tenant, JoulesActive/Idle/Total
)

// Event is one structured ledger record. Zero-valued fields are omitted
// from the JSONL encoding, so each kind serialises only its payload. The
// encoding round-trips: decode(encode(e)) == e for any event built from
// finite floats (JSON cannot carry NaN/Inf, and no emitter produces them).
type Event struct {
	// Seq orders events within one ledger; TimeUnixNano is the wall-clock
	// stamp. Both are assigned by Emit and describe the particular run's
	// interleaving — determinism tests normalise them away.
	Seq          int64  `json:"seq"`
	TimeUnixNano int64  `json:"t,omitempty"`
	RunID        string `json:"run_id,omitempty"`

	Kind     string `json:"kind"`
	Stage    string `json:"stage,omitempty"`
	Workload string `json:"workload,omitempty"`
	Variant  string `json:"variant,omitempty"`
	// Category tags inference-pack breakdown events with the kernel's
	// behavioural class (gemm, attention, tensorcore, memory, parked), so
	// awreport can fold a ledger into per-category error tables. Empty for
	// classic-suite events.
	Category string `json:"category,omitempty"`
	Detail   string `json:"detail,omitempty"`

	ClockMHz  float64 `json:"clock_mhz,omitempty"`
	PowerW    float64 `json:"power_w,omitempty"`
	MeasuredW float64 `json:"measured_w,omitempty"`
	Attempts  int     `json:"attempts,omitempty"`

	Reason string `json:"reason,omitempty"`
	Error  string `json:"error,omitempty"`

	// Energy-attribution payload (KindEnergy): the tenant charged, the
	// window length in sampling ticks, and the trapezoidally integrated
	// joules per power domain. JoulesTotal is defined as
	// JoulesActive+JoulesIdle evaluated in exactly that order, so consumers
	// (awreport) re-verify the domain split bit-exactly, not within a
	// tolerance. PowerW carries the window's average total power.
	Tenant       string  `json:"tenant,omitempty"`
	Ticks        int64   `json:"ticks,omitempty"`
	JoulesActive float64 `json:"joules_active,omitempty"`
	JoulesIdle   float64 `json:"joules_idle,omitempty"`
	JoulesTotal  float64 `json:"joules_total,omitempty"`

	// Coeffs carries fit coefficients ("const_w": 32.5); Breakdown carries
	// per-component watts keyed by core.Component names and provably sums
	// to PowerW (the attribution invariant).
	Coeffs    map[string]float64 `json:"coeffs,omitempty"`
	Breakdown map[string]float64 `json:"breakdown,omitempty"`
}

// Ledger is a flight recorder of Events. Batch runs use the unbounded form
// (NewLedger): every event is kept and flushed to the JSONL artifact at
// exit. Long-running services use the capped form (NewLedgerCap), a ring
// buffer that retains the most recent events and counts what it sheds —
// bounded memory for an unbounded request stream. The zero value is not
// usable; call a constructor.
//
// Events are stored in fixed chunks of ledgerChunk events, allocated as the
// ledger fills and never copied. One slice grown by append would be copied
// at every growth step, old and new array live at once; a collection that
// marks during the copy of a service's 65,536-event ring (16 MB) sees both.
type Ledger struct {
	runID string

	mu      sync.Mutex
	chunks  [][]Event // every chunk but the last holds ledgerChunk events
	n       int       // events stored
	seq     int64
	cap     int   // 0 = unbounded
	head    int   // oldest event's index when the ring has wrapped
	dropped int64 // events shed by the ring
}

// ledgerChunk is the ledger's unit of growth, in events (32 KB).
const ledgerChunk = 128

// NewLedger returns an empty unbounded ledger stamping runID onto every
// event.
func NewLedger(runID string) *Ledger {
	return &Ledger{runID: runID}
}

// NewLedgerCap returns a ledger that retains at most capacity events,
// shedding the oldest first. capacity < 1 yields an unbounded ledger.
func NewLedgerCap(runID string, capacity int) *Ledger {
	if capacity < 1 {
		capacity = 0
	}
	return &Ledger{runID: runID, cap: capacity}
}

// RunID returns the ledger's run correlation ID.
func (l *Ledger) RunID() string { return l.runID }

// Cap returns the retention bound (0 = unbounded).
func (l *Ledger) Cap() int { return l.cap }

// Dropped returns how many events the ring has shed. Always 0 for an
// unbounded ledger.
func (l *Ledger) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Emit appends an event, stamping Seq, RunID and the wall clock. Nil
// ledgers swallow the event, so call sites need no guards. A capped ledger
// at capacity overwrites its oldest event; Seq keeps counting, so gaps in
// a dumped ledger's sequence reveal exactly what was shed.
func (l *Ledger) Emit(ev Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.seq++
	ev.Seq = l.seq
	ev.RunID = l.runID
	if ev.TimeUnixNano == 0 {
		ev.TimeUnixNano = time.Now().UnixNano()
	}
	if l.cap > 0 && l.n == l.cap {
		*l.at(l.head) = ev
		l.head = (l.head + 1) % l.cap
		l.dropped++
	} else {
		if l.n%ledgerChunk == 0 {
			size := ledgerChunk
			if l.cap > 0 {
				size = min(size, l.cap-l.n)
			}
			l.chunks = append(l.chunks, make([]Event, size))
		}
		*l.at(l.n) = ev
		l.n++
	}
	l.mu.Unlock()
}

// at returns the event stored at index i. Caller holds mu.
func (l *Ledger) at(i int) *Event {
	return &l.chunks[i/ledgerChunk][i%ledgerChunk]
}

// Events returns a copy of the retained events in emission order.
func (l *Ledger) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Event, l.n)
	for i := range out {
		out[i] = *l.at((l.head + i) % l.n)
	}
	return out
}

// Len returns the number of recorded events.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// WriteJSONL renders the ledger as JSON Lines, one event per line, in
// emission order.
func (l *Ledger) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ev := range l.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the JSONL artifact atomically (temp file + rename), so
// a crash mid-write never leaves a truncated ledger on disk.
func (l *Ledger) WriteFile(path string) error {
	return WriteFileAtomic(path, l.WriteJSONL)
}

// ReadLedger decodes a JSONL event stream (the WriteJSONL format). Blank
// lines are skipped; a malformed line aborts with its line number.
func ReadLedger(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var out []Event
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(b, &ev); err != nil {
			return nil, fmt.Errorf("obs: ledger line %d: %w", line, err)
		}
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadLedgerFile reads a ledger artifact from disk.
func ReadLedgerFile(path string) ([]Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadLedger(f)
}

// RegisterLedgerMetrics exposes the active ledger's ring-shed count as the
// aw_ledger_dropped_total counter, sampled lazily on every scrape or
// snapshot via an OnCollect hook (the runtime-metrics idiom). The hook
// follows whichever ledger is installed at scrape time and re-bases its
// delta tracking when the ledger is swapped (a new run) — the exposed total
// only ever accumulates, as a counter must, even though each ledger's own
// Dropped() restarts from zero. Safe to call once per registry; repeat
// calls would stack duplicate hooks and double-count, so callers guard
// with their own once (internal/cli does).
func RegisterLedgerMetrics(r *Registry) {
	dropped := r.Counter("aw_ledger_dropped_total",
		"Ledger events shed by the capped ring buffer (0 under an unbounded ledger).")
	var (
		mu   sync.Mutex
		last *Ledger
		seen int64
	)
	r.OnCollect(func() {
		l := r.ledger.Load()
		mu.Lock()
		defer mu.Unlock()
		if l != last {
			last, seen = l, 0
		}
		if d := l.Dropped(); d > seen {
			dropped.Add(float64(d - seen))
			seen = d
		}
	})
}

// SetLedger installs (or, with nil, removes) the registry's flight
// recorder. Instrumented code reaches it through ActiveLedger.
func (r *Registry) SetLedger(l *Ledger) { r.ledger.Store(l) }

// ActiveLedger returns the installed ledger, or nil when none is installed
// or the registry is disabled — callers use the nil to skip building event
// payloads entirely.
func (r *Registry) ActiveLedger() *Ledger {
	if r.off() {
		return nil
	}
	return r.ledger.Load()
}

// SetLedger installs a flight recorder on the default registry.
func SetLedger(l *Ledger) { defaultRegistry.SetLedger(l) }

// ActiveLedger returns the default registry's ledger (nil when absent or
// collection is disabled).
func ActiveLedger() *Ledger { return defaultRegistry.ActiveLedger() }

// Emit records an event on the default registry's ledger, if one is
// installed and collection is enabled.
func Emit(ev Event) { defaultRegistry.ActiveLedger().Emit(ev) }

// NewRunID returns a 16-hex-character correlation ID for one pipeline run,
// shared by the ledger, the trace export and slog lines.
func NewRunID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the clock; uniqueness within one host is enough.
		return fmt.Sprintf("%016x", time.Now().UnixNano())
	}
	return hex.EncodeToString(b[:])
}

// NewLogger returns a structured logger stamping every line with the run
// ID, replacing the CLIs' ad-hoc fmt/log diagnostics so log lines
// correlate with ledger events and trace spans.
func NewLogger(w io.Writer, runID string) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, nil)).With("run_id", runID)
}
