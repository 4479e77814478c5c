package attr

import (
	"fmt"
	"sync"

	"accelwattch/internal/core"
	"accelwattch/internal/faults"
	"accelwattch/internal/obs"
	"accelwattch/internal/workloads"
)

// Config parameterises a Collector. Model and Tenants are required;
// everything else has serviceable defaults.
type Config struct {
	// Model is the power model every sample is evaluated through (see
	// ReferenceModel for the untuned default awmeterd uses).
	Model *core.Model

	// Registry receives the attribution metric families; nil means
	// obs.Default(). The ledger installed on this registry (if any)
	// receives the KindEnergy attribution events.
	Registry *obs.Registry

	// Tenants is the fleet size; Workers the sampling parallelism
	// (default 1; capped at Tenants). Worker count never changes any
	// output bit — it only changes wall-clock.
	Tenants int
	Workers int

	// Seed keys every tenant feed. Same seed, same fleet, bit-for-bit.
	Seed int64

	// TickSeconds is the virtual length of one sampling window (default
	// 1ms, matching the workloads profile shapes). WindowTicks is the
	// attribution-event cadence: every WindowTicks ticks each live tenant
	// settles a KindEnergy ledger event covering the window (default 100;
	// 0 disables window events, leaving only final flushes).
	TickSeconds float64
	WindowTicks int

	// MaxTenantSeries caps exported per-tenant label cardinality
	// (default DefaultMaxTenantSeries; see Meter).
	MaxTenantSeries int

	// Chaos, when non-nil, perturbs every tenant feed deterministically
	// (see TenantFeed).
	Chaos *faults.Profile

	// LifetimeTicks, when non-nil, returns the tick count after which
	// tenant i ("tenant-%04d") retires (0 = immortal): its final window
	// settles, its metric labels are garbage-collected, and it stops being
	// sampled.
	LifetimeTicks func(i int) int64
}

// TenantEnergy is one tenant's ledger position: the integrated joules per
// domain since the collector started. TotalJ is defined as ActiveJ+IdleJ
// evaluated in that order (the package's bit-exactness anchor).
type TenantEnergy struct {
	Tenant  string  `json:"tenant"`
	Profile string  `json:"profile"`
	ActiveJ float64 `json:"joules_active"`
	IdleJ   float64 `json:"joules_idle"`
	TotalJ  float64 `json:"joules_total"`
	LastW   float64 `json:"watts"`
	Retired bool    `json:"retired,omitempty"`
}

// tenantState is the per-tenant mutable state. The parallel sampling phase
// touches each tenant from exactly one worker per tick, and nothing here
// is shared across tenants, so the phase is race-free and order-free by
// construction.
type tenantState struct {
	acc   Accumulator
	lastW float64

	// Joules already pushed into the metric counters / settled into
	// window events; publish pushes deltas in tenant-index order.
	pushedA, pushedI float64
	winA, winI       float64
	winTick          int64

	errs, pushedErrs int64
	retired          bool
}

// Collector is the streaming attribution pipeline: N tenant feeds sampled
// every tick through the model's EstimateInto, integrated per tenant,
// published as bounded metrics and ledger events.
//
// A tick has two phases. The sampling phase fans tenant-index shards out
// to persistent workers (pre-spawned; woken by a channel send, joined by a
// WaitGroup — nothing on this path allocates) where each tenant's sample
// is evaluated and integrated into purely per-tenant state. The publish
// phase then walks tenants in index order on the calling goroutine,
// pushing joule deltas into the (possibly shared) metric series, settling
// window events and retirements. Every floating-point accumulation that
// crosses tenants happens in that fixed serial order, which is the whole
// determinism argument: worker count cannot reorder anything observable.
//
// Collectors are not safe for concurrent use; one goroutine drives
// Tick/Flush/Snapshot.
type Collector struct {
	cfg   Config
	reg   *obs.Registry
	model *core.Model
	meter *Meter

	feeds   []TenantFeed
	names   []string
	life    []int64
	st      []tenantState
	handles []*Handle

	tick    int64 // completed ticks
	cur     int64 // tick being sampled (workers read after wake)
	scratch core.Breakdown

	wake   []chan struct{}
	done   sync.WaitGroup
	closed bool

	mTicks   *obs.Counter
	mSeconds *obs.Counter
	mErrors  *obs.Counter
	mLive    *obs.Gauge
	mFleetW  *obs.Gauge
}

// New builds a collector and starts its worker pool.
func New(cfg Config) (*Collector, error) {
	if cfg.Model == nil {
		return nil, fmt.Errorf("attr: config has no model")
	}
	if cfg.Tenants < 1 {
		return nil, fmt.Errorf("attr: need at least one tenant, got %d", cfg.Tenants)
	}
	if cfg.TickSeconds == 0 {
		cfg.TickSeconds = 1e-3
	}
	if !(cfg.TickSeconds > 0) {
		return nil, fmt.Errorf("attr: non-positive tick length %g", cfg.TickSeconds)
	}
	if cfg.WindowTicks < 0 {
		return nil, fmt.Errorf("attr: negative window %d", cfg.WindowTicks)
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Workers > cfg.Tenants {
		cfg.Workers = cfg.Tenants
	}
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	var chaos faults.Profile
	if cfg.Chaos != nil {
		if err := cfg.Chaos.Validate(); err != nil {
			return nil, fmt.Errorf("attr: chaos profile: %w", err)
		}
		chaos = *cfg.Chaos
	}
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}

	reg := cfg.Registry
	c := &Collector{
		cfg:   cfg,
		reg:   reg,
		model: cfg.Model,
		meter: NewMeter(reg, cfg.MaxTenantSeries),
		feeds: make([]TenantFeed, cfg.Tenants),
		names: make([]string, cfg.Tenants),
		st:    make([]tenantState, cfg.Tenants),
		mTicks: reg.Counter("aw_attr_ticks_total",
			"Sampling ticks completed by the attribution collector."),
		mSeconds: reg.Counter("aw_attr_sampled_seconds_total",
			"Virtual seconds of tenant activity integrated into the energy ledger."),
		mErrors: reg.Counter("aw_attr_feed_errors_total",
			"Tenant samples rejected by the estimator (skipped, not integrated)."),
		mLive: reg.Gauge("aw_attr_tenants",
			"Tenants currently live (sampled every tick)."),
		mFleetW: reg.Gauge("aw_attr_fleet_watts",
			"Fleet-wide total power at the last completed tick, in watts."),
	}
	profiles := workloads.InferenceProfiles(cfg.Model.Arch)
	c.handles = make([]*Handle, cfg.Tenants)
	for i := 0; i < cfg.Tenants; i++ {
		c.feeds[i] = NewTenantFeed(profiles, i, cfg.Seed, chaos)
		c.names[i] = fmt.Sprintf("tenant-%04d", i)
		c.handles[i] = c.meter.Handle(c.names[i])
	}
	if cfg.LifetimeTicks != nil {
		c.life = make([]int64, cfg.Tenants)
		for i := range c.life {
			c.life[i] = cfg.LifetimeTicks(i)
		}
	}
	c.mLive.Set(float64(cfg.Tenants))

	if cfg.Workers > 1 {
		// Persistent workers over fixed tenant-index shards. Fixed shards
		// are not load-balanced — determinism does not need them to be,
		// and a work-stealing queue would put channel traffic (and
		// allocation) on the per-tenant path instead of per-worker.
		shard := (cfg.Tenants + cfg.Workers - 1) / cfg.Workers
		for w := 0; w < cfg.Workers; w++ {
			lo := w * shard
			hi := lo + shard
			if hi > cfg.Tenants {
				hi = cfg.Tenants
			}
			if lo >= hi {
				break
			}
			ch := make(chan struct{}, 1)
			c.wake = append(c.wake, ch)
			go func(lo, hi int, ch chan struct{}) {
				var b core.Breakdown
				for range ch {
					c.sampleRange(lo, hi, c.cur, &b)
					c.done.Done()
				}
			}(lo, hi, ch)
		}
	}
	return c, nil
}

// Meter exposes the collector's tenant meter (for cardinality assertions).
func (c *Collector) Meter() *Meter { return c.meter }

// Ticks returns how many ticks have completed.
func (c *Collector) Ticks() int64 { return c.tick }

// Live returns how many tenants are still being sampled.
func (c *Collector) Live() int {
	n := 0
	for i := range c.st {
		if !c.st[i].retired {
			n++
		}
	}
	return n
}

// sampleRange evaluates and integrates tenants [lo, hi) at tick t.
func (c *Collector) sampleRange(lo, hi int, t int64, b *core.Breakdown) {
	for i := lo; i < hi; i++ {
		st := &c.st[i]
		if st.retired {
			continue
		}
		act := c.feeds[i].At(t)
		if err := c.model.EstimateInto(&act, b); err != nil {
			st.errs++
			continue
		}
		s := Split(b)
		st.acc.Add(c.cfg.TickSeconds, s)
		st.lastW = s.TotalW()
	}
}

// Tick runs one sampling tick: parallel sample, serial publish. The
// steady-state path (no window boundary, no retirement, or no ledger
// installed) performs no allocation.
func (c *Collector) Tick() {
	t := c.tick
	c.cur = t
	if len(c.wake) == 0 {
		c.sampleRange(0, len(c.st), t, &c.scratch)
	} else {
		c.done.Add(len(c.wake))
		for _, ch := range c.wake {
			ch <- struct{}{}
		}
		c.done.Wait()
	}
	c.tick = t + 1
	c.publish(t)
}

// Run advances the collector n ticks.
func (c *Collector) Run(n int) {
	for i := 0; i < n; i++ {
		c.Tick()
	}
}

// publish is the serial phase: metric pushes, window settlement and
// retirement, all in tenant-index order.
func (c *Collector) publish(t int64) {
	led := c.reg.ActiveLedger()
	window := c.cfg.WindowTicks > 0 && (t+1)%int64(c.cfg.WindowTicks) == 0
	var fleetW, overW float64
	live := 0
	for i := range c.st {
		st := &c.st[i]
		if st.retired {
			continue
		}
		h := c.handles[i]
		h.Account(st.acc.ActiveJ-st.pushedA, st.acc.IdleJ-st.pushedI)
		st.pushedA, st.pushedI = st.acc.ActiveJ, st.acc.IdleJ
		if st.errs > st.pushedErrs {
			c.mErrors.Add(float64(st.errs - st.pushedErrs))
			st.pushedErrs = st.errs
		}
		fleetW += st.lastW
		if h.Overflow() {
			overW += st.lastW
		} else {
			h.SetWatts(st.lastW)
		}
		retire := c.life != nil && c.life[i] > 0 && t+1 >= c.life[i]
		if window || retire {
			c.settleWindow(led, i, st, t+1)
		}
		if retire {
			st.retired = true
			c.handles[i] = nil
			c.meter.Retire(c.names[i])
			continue
		}
		live++
	}
	c.meter.over.SetWatts(overW)
	c.mLive.Set(float64(live))
	c.mFleetW.Set(fleetW)
	c.mTicks.Inc()
	c.mSeconds.Add(c.cfg.TickSeconds)
}

// settleWindow emits the KindEnergy event covering ticks since the
// tenant's last settlement, ending just after tick end-1.
func (c *Collector) settleWindow(led *obs.Ledger, i int, st *tenantState, end int64) {
	n := end - st.winTick
	if n <= 0 {
		return
	}
	wA := st.acc.ActiveJ - st.winA
	wI := st.acc.IdleJ - st.winI
	st.winA, st.winI, st.winTick = st.acc.ActiveJ, st.acc.IdleJ, end
	if led == nil {
		return
	}
	led.Emit(obs.Event{
		Kind:         obs.KindEnergy,
		Stage:        "attr",
		Tenant:       c.names[i],
		Ticks:        n,
		JoulesActive: wA,
		JoulesIdle:   wI,
		JoulesTotal:  wA + wI,
		PowerW:       (wA + wI) / (float64(n) * c.cfg.TickSeconds),
	})
}

// Flush settles every live tenant's partial window (emitting KindEnergy
// events for any unsettled ticks) — the shutdown path awmeterd/awexport
// run on SIGTERM so the ledger artifact accounts for every integrated
// joule.
func (c *Collector) Flush() {
	led := c.reg.ActiveLedger()
	for i := range c.st {
		st := &c.st[i]
		if st.retired {
			continue
		}
		c.settleWindow(led, i, st, c.tick)
	}
}

// Snapshot returns every tenant's ledger position in tenant-index order
// (retired tenants keep their final totals).
func (c *Collector) Snapshot() []TenantEnergy {
	out := make([]TenantEnergy, len(c.st))
	for i := range c.st {
		st := &c.st[i]
		out[i] = TenantEnergy{
			Tenant:  c.names[i],
			Profile: c.feeds[i].Profile(),
			ActiveJ: st.acc.ActiveJ,
			IdleJ:   st.acc.IdleJ,
			TotalJ:  st.acc.TotalJ(),
			LastW:   st.lastW,
			Retired: st.retired,
		}
	}
	return out
}

// Close stops the worker pool. The collector must not Tick afterwards.
func (c *Collector) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, ch := range c.wake {
		close(ch)
	}
}
