package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"accelwattch/internal/attr"
	"accelwattch/internal/core"
	"accelwattch/internal/eval"
	"accelwattch/internal/obs"
	"accelwattch/internal/tune"
	"accelwattch/internal/zoo"
)

// Config sizes the service. The zero value of each field selects the
// documented default; Zoo is required.
type Config struct {
	// Zoo is the multi-architecture model set the gateway serves: named
	// entries (tuned, file-loaded, derived), each becoming a model-scoped
	// serving unit with its own cache shard and metrics labels.
	Zoo *zoo.Set

	// MaxModels caps the registry so the bounded `model` metric label and
	// the admin surface cannot grow without limit. Default 64.
	MaxModels int

	// Workers is how many estimate computations run at once; values < 1
	// mean 1. Responses are bit-identical at every setting.
	Workers int

	// QueueSize is how many admitted computations may wait for one of the
	// Workers compute slots. Once Workers+QueueSize computations are
	// admitted, further cache misses answer 429 with Retry-After instead of
	// building unbounded backlog. Default 256.
	QueueSize int

	// Deprecated: MaxBatch is ignored. Estimates are computed in the request
	// handler, so there is no batch to cap.
	MaxBatch int

	// CacheSize is the per-model response LRU shard capacity in entries.
	// Zero or negative disables caching entirely.
	CacheSize int

	// Deadline bounds how long a request waits for a compute slot; a
	// request still waiting when it expires gets 504. Default 5s.
	Deadline time.Duration
}

// Defaults for the zero Config fields.
const (
	DefaultQueueSize = 256
	DefaultDeadline  = 5 * time.Second
	DefaultMaxModels = 64

	// Deprecated: DefaultMaxBatch is the value of the ignored
	// Config.MaxBatch.
	DefaultMaxBatch = 32

	// maxRetiredTombstones bounds how many retired entries /healthz and
	// /readyz keep reporting; beyond it the oldest tombstones are dropped.
	maxRetiredTombstones = 32
)

// Model readiness states reported per entry by /healthz and /readyz.
const (
	StateReady    = "ready"    // installed and serving
	StateDeriving = "deriving" // admin build in progress (replacements keep serving the old model)
	StateRetired  = "retired"  // removed; in-flight requests finished on the old model
)

// Sentinel errors mapped to HTTP statuses by the handlers.
var (
	errBackpressure = errors.New("serve: queue full")
	errDraining     = &statusError{code: http.StatusServiceUnavailable, msg: "server is draining"}
)

// statusError carries an explicit HTTP status from routing and admin
// operations to the handler edge.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

func statusErrorf(code int, format string, args ...any) *statusError {
	return &statusError{code: code, msg: fmt.Sprintf(format, args...)}
}

// unit is one model-scoped serving unit: an immutable zoo entry plus the
// serving state scoped to it — its response-cache shard, the per-variant
// model fingerprints the admin listing reports, and the metric series its
// requests update. Units are immutable once installed; hot add/swap/retire
// replaces the map slot, never the unit, so a request that resolved a unit
// keeps a consistent model for its whole lifetime.
type unit struct {
	entry *zoo.Entry
	fps   [tune.NumVariants]string
	cache *lruCache

	// energy is the model's pre-resolved energy-attribution series (the
	// model is the gateway's "tenant"); resolved once at install so the
	// per-request accounting is two atomic adds.
	energy *attr.Handle

	// The per-request series the unit can emit, resolved at install (so
	// exported from 0): bypass without a cache, hit and miss with one (the
	// cache counts evictions), an estimates series per served variant, and
	// the mismatch counter in each slot whose model records another tuned
	// variant (nil, a no-op, elsewhere). A request in flight when Retire
	// deletes them updates orphaned handles and recreates nothing.
	bypass, hit, miss *obs.Counter
	estimates         [tune.NumVariants]*obs.Counter
	mismatch          [tune.NumVariants]*obs.Counter
}

func newUnit(e *zoo.Entry, cacheSize int) *unit {
	name := e.Name
	u := &unit{entry: e, energy: mEnergy.Handle(name)}
	if cacheSize > 0 {
		u.cache = newLRUCache(cacheSize, mCacheEvents.With(name, "eviction"))
		u.hit = mCacheEvents.With(name, "hit")
		u.miss = mCacheEvents.With(name, "miss")
	} else {
		u.bypass = mCacheEvents.With(name, "bypass")
	}
	for _, v := range e.Variants() {
		u.fps[v] = e.Fingerprint(v)
		u.estimates[v] = mEstimates.With(name, v.String())
		if _, mismatch := e.TunedVariantMismatch(v); mismatch {
			u.mismatch[v] = mVariantMismatch.With(name)
		}
	}
	return u
}

// Server is the power-estimation gateway: a registry of model-scoped
// serving units (the zoo), request routing by model name or architecture,
// per-model LRU response caches, estimates computed in the request handler
// behind a bounded admission semaphore, admin endpoints for hot
// add/swap/retire, and graceful drain on shutdown. It implements
// http.Handler via Mux.
type Server struct {
	workers   int
	deadline  time.Duration
	cacheSize int
	maxModels int

	// umu guards the unit registry: the name->unit map, registration
	// order, per-entry states (including retired tombstones), and the
	// default route. Request paths take the read lock once, to resolve a
	// unit pointer; everything after works on the immutable unit.
	umu         sync.RWMutex
	units       map[string]*unit
	states      map[string]string
	order       []string
	defaultName string

	// admitted holds one token per admitted computation (Workers+QueueSize
	// of them); a cache miss that finds it full answers 429. slots holds
	// one token per running computation (Workers of them); an admitted
	// request waits for one until its deadline.
	admitted chan struct{}
	slots    chan struct{}

	mu       sync.RWMutex // guards draining against admission
	draining bool
	pending  sync.WaitGroup // admitted-but-unfinished computations

	// testHookCompute, when non-nil, runs inside a compute slot just
	// before the computation. Tests use it to hold slots and drive the
	// backpressure, deadline, cancel, and drain paths deterministically.
	// Always nil in production.
	testHookCompute func()

	// testHookAdmin, when non-nil, runs inside admin installs between the
	// "deriving" state flip and the unit swap, so tests can observe the
	// transitional state deterministically. Always nil in production.
	testHookAdmin func(name string)
}

// New builds a gateway over cfg.Zoo.
func New(cfg Config) (*Server, error) {
	set := cfg.Zoo
	if set == nil {
		return nil, fmt.Errorf("serve: no models configured")
	}
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		workers:     max(cfg.Workers, 1),
		deadline:    cfg.Deadline,
		cacheSize:   cfg.CacheSize,
		maxModels:   cfg.MaxModels,
		units:       make(map[string]*unit, len(set.Entries)),
		states:      make(map[string]string, len(set.Entries)),
		defaultName: set.Default,
	}
	if s.maxModels < 1 {
		s.maxModels = DefaultMaxModels
	}
	if len(set.Entries) > s.maxModels {
		return nil, fmt.Errorf("serve: %d models configured, cap is %d", len(set.Entries), s.maxModels)
	}
	for _, e := range set.Entries {
		s.units[e.Name] = newUnit(e, s.cacheSize)
		s.states[e.Name] = StateReady
		s.order = append(s.order, e.Name)
		mModelState.With(e.Name).Set(stateValue(StateReady))
	}
	mModels.Set(float64(len(s.units)))
	if s.deadline <= 0 {
		s.deadline = DefaultDeadline
	}
	queue := cfg.QueueSize
	if queue < 1 {
		queue = DefaultQueueSize
	}
	s.admitted = make(chan struct{}, s.workers+queue)
	s.slots = make(chan struct{}, s.workers)
	// Note: mDraining is deliberately not reset here. The serve metrics are
	// process-global, and a freshly constructed Server must not clear the
	// draining indicator of another instance in the same process.
	return s, nil
}

// stateValue encodes a readiness state as the aw_serve_model_state gauge
// value: 0 deriving, 1 ready, 2 retired.
func stateValue(state string) float64 {
	switch state {
	case StateDeriving:
		return 0
	case StateReady:
		return 1
	default:
		return 2
	}
}

// DefaultName returns the entry requests without a routing field resolve to.
func (s *Server) DefaultName() string {
	s.umu.RLock()
	defer s.umu.RUnlock()
	return s.defaultName
}

// Model returns the default entry's served model for a variant (nil when
// not configured) — the single-model accessor the pre-gateway server had.
func (s *Server) Model(v tune.Variant) *core.Model {
	s.umu.RLock()
	defer s.umu.RUnlock()
	if u := s.units[s.defaultName]; u != nil {
		return u.entry.Model(v)
	}
	return nil
}

// Entry returns the zoo entry registered under name ("" = default), or nil.
func (s *Server) Entry(name string) *zoo.Entry {
	s.umu.RLock()
	defer s.umu.RUnlock()
	if name == "" {
		name = s.defaultName
	}
	if u := s.units[name]; u != nil {
		return u.entry
	}
	return nil
}

// resolveUnit routes a request to a serving unit: by entry name, by
// architecture alias, or to the default when neither is given. Resolution
// takes the registry read lock once; the returned unit is immutable, so a
// concurrent hot swap or retire cannot change this request's model.
func (s *Server) resolveUnit(model, arch string) (*unit, error) {
	s.umu.RLock()
	defer s.umu.RUnlock()
	if model == "" && arch == "" {
		if u := s.units[s.defaultName]; u != nil {
			return u, nil
		}
		return nil, statusErrorf(503, "serve: default model %q is not available", s.defaultName)
	}
	if model != "" {
		u := s.units[model]
		if u == nil {
			if s.states[model] == StateRetired {
				return nil, statusErrorf(404, "serve: model %q has been retired", model)
			}
			return nil, statusErrorf(404, "serve: unknown model %q", model)
		}
		if arch != "" && !zoo.ArchMatches(arch, u.entry.Arch) {
			return nil, statusErrorf(400, "serve: model %q serves arch %s, not %q", model, u.entry.Arch, arch)
		}
		return u, nil
	}
	var hits []string
	for _, name := range s.order {
		if u, ok := s.units[name]; ok && zoo.ArchMatches(arch, u.entry.Arch) {
			hits = append(hits, name)
		}
	}
	switch len(hits) {
	case 0:
		return nil, statusErrorf(404, "serve: no model serves arch %q", arch)
	case 1:
		return s.units[hits[0]], nil
	default:
		return nil, statusErrorf(400, "serve: arch %q is ambiguous across models %v; pass \"model\"", arch, hits)
	}
}

// AddEntry installs (or hot-swaps) a zoo entry as a serving unit without
// draining: the new unit is built off-lock, then swapped into the registry
// under the write lock. Requests that already resolved the old unit finish
// on it — zero in-flight responses change — and requests arriving after the
// swap see the new model. The transitional state is visible as "deriving".
func (s *Server) AddEntry(e *zoo.Entry) error {
	if e == nil {
		return statusErrorf(400, "serve: nil entry")
	}
	if err := e.Validate(); err != nil {
		return statusErrorf(400, "%v", err)
	}
	if s.Draining() {
		return errDraining
	}
	s.umu.Lock()
	_, replacing := s.units[e.Name]
	if !replacing && len(s.units) >= s.maxModels {
		s.umu.Unlock()
		return statusErrorf(409, "serve: model registry is full (%d entries); retire one first", s.maxModels)
	}
	s.states[e.Name] = StateDeriving
	// List the name immediately so /healthz and /readyz report the install
	// in its transitional "deriving" state, not only after it lands.
	if !s.listedLocked(e.Name) {
		s.order = append(s.order, e.Name)
	}
	mModelState.With(e.Name).Set(stateValue(StateDeriving))
	s.umu.Unlock()

	if s.testHookAdmin != nil {
		s.testHookAdmin(e.Name)
	}
	u := newUnit(e, s.cacheSize)

	s.umu.Lock()
	defer s.umu.Unlock()
	s.units[e.Name] = u
	s.states[e.Name] = StateReady
	if !s.listedLocked(e.Name) {
		s.order = append(s.order, e.Name)
	}
	mModelState.With(e.Name).Set(stateValue(StateReady))
	mModels.Set(float64(len(s.units)))
	return nil
}

// listedLocked reports whether name appears in the registration order.
// Caller holds umu.
func (s *Server) listedLocked(name string) bool {
	for _, n := range s.order {
		if n == name {
			return true
		}
	}
	return false
}

// Retire removes a model from the registry under load: requests that
// already resolved its unit finish unchanged; later requests naming it
// answer 404. The default entry cannot be retired (swap it first), so the
// unrouted path always has a target. Retired names remain visible as
// tombstones in /healthz and /readyz (bounded; oldest dropped).
func (s *Server) Retire(name string) error {
	s.umu.Lock()
	defer s.umu.Unlock()
	if _, ok := s.units[name]; !ok {
		if s.states[name] == StateRetired {
			return statusErrorf(404, "serve: model %q is already retired", name)
		}
		return statusErrorf(404, "serve: unknown model %q", name)
	}
	if name == s.defaultName {
		return statusErrorf(409, "serve: model %q is the default route; point the default elsewhere before retiring it", name)
	}
	delete(s.units, name)
	s.states[name] = StateRetired
	mModelState.With(name).Set(stateValue(StateRetired))
	mModels.Set(float64(len(s.units)))
	// Retired entries stop contributing metric series: drop every series
	// labelled with this model so the bounded `model` label cannot
	// accumulate across add/retire churn.
	mEstimates.DeleteLabel("model", name)
	mCacheEvents.DeleteLabel("model", name)
	mVariantMismatch.DeleteLabel("model", name)
	mEnergy.Retire(name)
	s.pruneTombstonesLocked()
	return nil
}

// pruneTombstonesLocked drops the oldest retired tombstones beyond the cap.
// Caller holds umu.
func (s *Server) pruneTombstonesLocked() {
	retired := 0
	for _, st := range s.states {
		if st == StateRetired {
			retired++
		}
	}
	if retired <= maxRetiredTombstones {
		return
	}
	kept := s.order[:0]
	for _, name := range s.order {
		if retired > maxRetiredTombstones && s.states[name] == StateRetired {
			delete(s.states, name)
			mModelState.DeleteLabel("model", name)
			retired--
			continue
		}
		kept = append(kept, name)
	}
	s.order = kept
}

// answer resolves one validated request through the unit's cache shard,
// computing on a miss. A miss must first be admitted — at most
// Workers+QueueSize computations are admitted at once, and Drain waits for
// every one — then takes one of the Workers compute slots. When none is
// free it waits, until the deadline or the client gives up; only that
// waiting path builds the deadline context and counts in the queue depth.
// The computation then runs to the end in the caller's goroutine and lands
// in the cache. A hit takes no slot. The returned result is shared —
// callers must not mutate it.
func (s *Server) answer(ctx context.Context, u *unit, key string, compute func() (result, error)) (result, error) {
	if res, ok := u.cache.Get(key); ok {
		u.hit.Inc()
		return res, nil
	}
	if u.cache == nil {
		u.bypass.Inc()
	} else {
		u.miss.Inc()
	}
	if err := s.admit(); err != nil {
		return result{}, err
	}
	defer s.release()
	select {
	case s.slots <- struct{}{}:
	default:
		ctx, cancel := context.WithTimeout(ctx, s.deadline)
		defer cancel()
		mQueueDepth.Add(1)
		select {
		case s.slots <- struct{}{}:
			mQueueDepth.Add(-1)
		case <-ctx.Done():
			mQueueDepth.Add(-1)
			if errors.Is(ctx.Err(), context.Canceled) {
				mRejected.With("canceled").Inc()
			} else {
				mRejected.With("deadline").Inc()
			}
			return result{}, ctx.Err()
		}
	}
	defer func() { <-s.slots }()
	if s.testHookCompute != nil {
		s.testHookCompute()
	}
	res, err := compute()
	if err == nil {
		u.cache.Put(key, res)
	}
	return res, err
}

// admit takes an admission token, honouring drain and backpressure. The
// pending.Add happens under the read lock after the draining check, and
// Drain takes the write lock before it waits, so no admission can race the
// wait.
func (s *Server) admit() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return errDraining
	}
	select {
	case s.admitted <- struct{}{}:
		s.pending.Add(1)
		return nil
	default:
		return errBackpressure
	}
}

// release returns an admission token taken by admit.
func (s *Server) release() {
	<-s.admitted
	s.pending.Done()
}

// Drain flips the server into draining mode — /estimate and /sweep answer
// 503, /readyz reports not-ready — and waits until every admitted
// computation has finished, or ctx expires. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		mDraining.Set(1)
	}
	s.mu.Unlock()
	drained := make(chan struct{})
	go func() {
		s.pending.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether the server has begun draining.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// Close drains completely: Drain with no time limit. Idempotent — repeat
// calls, concurrent ones, and calls racing an in-flight SIGTERM Drain all
// return once every admitted computation has finished. The server refuses
// new work after Close.
func (s *Server) Close() {
	_ = s.Drain(context.Background())
}

// estimateResult evaluates one request against a model and marshals the
// response with encoding/json — the reference path. The request hot path
// runs computeEstimate (pool.go) instead: the same EstimateOne call and
// the hand-written encoder, which writes the bytes json.Marshal writes, so
// the reference below and the served responses are provably the same
// computation for every zoo entry.
func estimateResult(m *core.Model, req *EstimateRequest) (result, error) {
	a, err := req.Activity()
	if err != nil {
		return result{}, err
	}
	kr, err := eval.EstimateOne(m, req.Name, 0, a)
	if err != nil {
		return result{}, err
	}
	resp := EstimateResponse{Variant: req.Variant, PowerW: kr.EstimatedW, Breakdown: kr.Breakdown.Map()}
	body, err := json.Marshal(&resp)
	if err != nil {
		return result{}, err
	}
	return result{body: body, powerW: kr.EstimatedW, breakdown: resp.Breakdown}, nil
}

// sweepResult evaluates the activity across the frequency ladder one rung
// at a time — the reference path; the hot path is computeSweep (pool.go),
// which runs the whole ladder through Model.SweepLadderInto.
func sweepResult(m *core.Model, req *SweepRequest) (result, error) {
	a, err := req.Activity()
	if err != nil {
		return result{}, err
	}
	ladder := req.Ladder()
	resp := SweepResponse{Variant: req.Variant, Points: make([]SweepPoint, 0, len(ladder))}
	for _, mhz := range ladder {
		pa := a
		pa.ClockMHz = mhz
		kr, err := eval.EstimateOne(m, req.Name, 0, pa)
		if err != nil {
			return result{}, err
		}
		resp.Points = append(resp.Points, SweepPoint{ClockMHz: mhz, PowerW: kr.EstimatedW})
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		return result{}, err
	}
	return result{body: body}, nil
}

// EstimateOnce is the single-shot reference path: decode, validate, and
// evaluate one estimate body against one model through eval.EstimateOne,
// with no gateway, admission, ladder path, hand-written encoder or cache in
// the way. The
// serving determinism suite asserts that what the HTTP service returns
// under concurrency — for tuned and derived entries alike — is
// bit-identical to these bytes.
func EstimateOnce(m *core.Model, body []byte) ([]byte, error) {
	req, err := DecodeEstimateRequest(body)
	if err != nil {
		return nil, err
	}
	res, err := estimateResult(m, req)
	if err != nil {
		return nil, err
	}
	return res.body, nil
}

// SweepOnce is EstimateOnce for /sweep bodies.
func SweepOnce(m *core.Model, body []byte) ([]byte, error) {
	req, err := DecodeSweepRequest(body)
	if err != nil {
		return nil, err
	}
	res, err := sweepResult(m, req)
	if err != nil {
		return nil, err
	}
	return res.body, nil
}

// emitEstimate records one served estimate in the attribution ledger and
// the energy meter: one KindBreakdown event per answered /estimate request
// (cache hits included), run-ID correlated like every other ledger event,
// tagged with the serving model's name and carrying the request window's
// joules split by power domain. Sweeps carry no attribution payload and
// emit nothing.
//
// Energy accounting treats each request as one execution window of
// Cycles/clock seconds: the breakdown's active and idle domain watts times
// the window length are charged to the model's tenant series. Per-model
// joules totals are deterministic for a given request set (each request's
// charge is a pure function of its body and model), though the interleaving
// of concurrent counter adds is not ordered — the collector pipeline in
// internal/attr is the bit-reproducibility reference, this is the live
// traffic view.
func emitEstimate(u *unit, v tune.Variant, req *EstimateRequest, res result) {
	u.estimates[v].Inc()
	// A model tagged as tuned under one variant answering for another is a
	// modelling smell the operator opted into (all_variants); make it
	// loudly visible without per-request log spam.
	u.mismatch[v].Inc()
	var activeJ, idleJ float64
	charged := false
	if m := u.entry.Model(v); m != nil && res.breakdown != nil {
		clock := req.ClockMHz
		if clock == 0 {
			clock = m.Arch.BaseClockMHz
		}
		if dtS := req.Cycles / (clock * 1e6); dtS > 0 && !math.IsInf(dtS, 0) {
			activeJ, idleJ = res.split.ActiveW*dtS, res.split.IdleW*dtS
			u.energy.Account(activeJ, idleJ)
			u.energy.SetWatts(res.powerW)
			charged = true
		}
	}
	if led := obs.ActiveLedger(); led != nil && res.breakdown != nil {
		ev := obs.Event{
			Kind: obs.KindBreakdown, Stage: "serve/estimate",
			Workload: req.Name, Variant: req.Variant, Detail: u.entry.Name,
			PowerW: res.powerW, Breakdown: res.breakdown,
		}
		if charged {
			ev.Tenant = u.entry.Name
			ev.Ticks = 1
			ev.JoulesActive, ev.JoulesIdle = activeJ, idleJ
			ev.JoulesTotal = activeJ + idleJ
		}
		led.Emit(ev)
	}
}
