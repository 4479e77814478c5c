package attr

import (
	"math"
	"strings"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/faults"
	"accelwattch/internal/obs"
	"accelwattch/internal/workloads"
)

func testModel(t testing.TB) *core.Model {
	t.Helper()
	m, err := ReferenceModel(config.Volta())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// The domain split is a pure re-bracketing of the component sum: the two
// domains partition all 25 components, TotalW is active+idle by
// definition, and the result agrees with Breakdown.Total to within float
// re-association.
func TestSplitDomains(t *testing.T) {
	m := testModel(t)
	profiles := workloads.InferenceProfiles(m.Arch)
	for _, p := range profiles {
		for _, util := range []float64{0, 0.25, 0.7, 1} {
			act := p.At(util)
			b, err := m.Estimate(act)
			if err != nil {
				t.Fatalf("%s@%g: %v", p.Name, util, err)
			}
			s := Split(&b)
			if s.ActiveW < 0 || s.IdleW < 0 {
				t.Fatalf("%s@%g: negative domain: %+v", p.Name, util, s)
			}
			if got := s.TotalW(); got != s.ActiveW+s.IdleW {
				t.Fatalf("TotalW not defined as active+idle: %v vs %v", got, s.ActiveW+s.IdleW)
			}
			if want := b.Watts[core.CompIdleSM] + b.Watts[core.CompConst]; s.IdleW != want {
				t.Fatalf("idle domain %v, want idle_sm+const = %v", s.IdleW, want)
			}
			total := b.Total()
			if diff := math.Abs(s.TotalW() - total); diff > 1e-9*math.Max(1, total) {
				t.Fatalf("%s@%g: split total %v vs breakdown total %v", p.Name, util, s.TotalW(), total)
			}
		}
	}
}

// A parked window's power is pure idle domain: the whole "Model Parking
// Tax" floor (const + all-SMs-idle leakage), with zero active watts.
func TestSplitParkedIsAllIdle(t *testing.T) {
	m := testModel(t)
	parked := workloads.InferenceProfiles(m.Arch)[3]
	if parked.Name != "parked-model" {
		t.Fatalf("profile order changed: %q", parked.Name)
	}
	b, err := m.Estimate(parked.At(1))
	if err != nil {
		t.Fatal(err)
	}
	s := Split(&b)
	if s.ActiveW != 0 {
		t.Fatalf("parked window has active watts: %v", s.ActiveW)
	}
	// With no kernel resident the idle-SM term is zero (Eq. 8 only applies
	// while a kernel runs); the parked floor is the constant power alone.
	if diff := math.Abs(s.IdleW - m.ConstW); diff > 1e-9 {
		t.Fatalf("parked floor %v, want const %v", s.IdleW, m.ConstW)
	}
}

func TestAccumulatorTrapezoid(t *testing.T) {
	var a Accumulator
	a.Add(1, Sample{ActiveW: 100, IdleW: 40}) // primes only
	if a.TotalJ() != 0 {
		t.Fatalf("first sample integrated: %v", a.TotalJ())
	}
	a.Add(1, Sample{ActiveW: 200, IdleW: 40}) // 0.5*(100+200)*1, 0.5*(40+40)*1
	a.Add(0.5, Sample{ActiveW: 0, IdleW: 40}) // +0.5*(200+0)*0.5, +0.5*(40+40)*0.5
	if a.ActiveJ != 200 || a.IdleJ != 60 {
		t.Fatalf("got %v/%v J, want 200/60", a.ActiveJ, a.IdleJ)
	}
	if a.TotalJ() != a.ActiveJ+a.IdleJ {
		t.Fatalf("TotalJ not active+idle")
	}
}

func TestAccumulatorMonotone(t *testing.T) {
	var a Accumulator
	r := rng{s: 7}
	prevA, prevI := 0.0, 0.0
	for i := 0; i < 1000; i++ {
		a.Add(1e-3, Sample{ActiveW: 300 * r.unit(), IdleW: 50 * r.unit()})
		if a.ActiveJ < prevA || a.IdleJ < prevI {
			t.Fatalf("tick %d: joules decreased", i)
		}
		prevA, prevI = a.ActiveJ, a.IdleJ
	}
	if !(a.TotalJ() > 0) {
		t.Fatal("nothing integrated")
	}
}

// Feeds are pure in (seed, tenant, tick): re-evaluating any tick — chaos
// on or off — reproduces the sample bit-for-bit, and different seeds
// decorrelate the fleet.
func TestFeedPurity(t *testing.T) {
	arch := config.Volta()
	profiles := workloads.InferenceProfiles(arch)
	chaos, err := faults.Named("chaos", 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, withChaos := range []bool{false, true} {
		var prof faults.Profile
		if withChaos {
			prof = chaos
		}
		f := NewTenantFeed(profiles, 3, 42, prof)
		for _, tick := range []int64{0, 1, 17, 255, 256, 100000} {
			a1, a2 := f.At(tick), f.At(tick)
			if a1 != a2 {
				t.Fatalf("chaos=%v tick %d: feed not pure", withChaos, tick)
			}
		}
	}
	f1 := NewTenantFeed(profiles, 3, 42, faults.Profile{})
	f2 := NewTenantFeed(profiles, 3, 43, faults.Profile{})
	same := 0
	for tick := int64(0); tick < 64; tick++ {
		if f1.At(tick) == f2.At(tick) {
			same++
		}
	}
	if same == 64 {
		t.Fatal("seeds 42 and 43 produced identical feeds")
	}
}

func TestReferenceModel(t *testing.T) {
	for _, arch := range []*config.Arch{config.Volta(), config.Pascal(), config.Turing()} {
		m, err := ReferenceModel(arch)
		if err != nil {
			t.Fatalf("%s: %v", arch.Name, err)
		}
		loaded := workloads.InferenceProfiles(arch)[0].At(1)
		w, err := m.EstimatePower(loaded)
		if err != nil {
			t.Fatal(err)
		}
		if w < 50 || w > 600 {
			t.Fatalf("%s loaded estimate %.1f W implausible", arch.Name, w)
		}
		parked, err := m.EstimatePower(workloads.InferenceProfiles(arch)[3].At(0))
		if err != nil {
			t.Fatal(err)
		}
		if parked <= 0 || parked >= w {
			t.Fatalf("%s parked %.1f W vs loaded %.1f W", arch.Name, parked, w)
		}
	}
	if _, err := ReferenceModel(nil); err == nil {
		t.Fatal("nil arch accepted")
	}
}

// The meter mints per-tenant series up to the cap, folds the excess into
// the overflow series, and DeleteLabel-GCs retired tenants out of the
// exposition, freeing their cap slot.
func TestMeterCapAndRetirement(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewMeter(reg, 2)

	a, b := m.Handle("t-a"), m.Handle("t-b")
	c := m.Handle("t-c") // beyond cap
	if a.Overflow() || b.Overflow() || !c.Overflow() {
		t.Fatalf("cap not applied: %v %v %v", a.Overflow(), b.Overflow(), c.Overflow())
	}
	if m.Handle("t-a") != a {
		t.Fatal("Handle not idempotent")
	}
	a.Account(1.5, 0.5)
	c.Account(2, 1)
	a.SetWatts(100)

	exp := promText(t, reg)
	for _, want := range []string{
		`aw_tenant_joules_total{tenant="t-a",domain="active"} 1.5`,
		`aw_tenant_joules_total{tenant="` + OverflowTenant + `",domain="active"} 2`,
		`aw_tenant_watts{tenant="t-a"} 100`,
	} {
		if !strings.Contains(exp, want) {
			t.Fatalf("exposition missing %q:\n%s", want, exp)
		}
	}

	m.Retire("t-a")
	if got := promText(t, reg); strings.Contains(got, `tenant="t-a"`) {
		t.Fatalf("retired tenant label survived:\n%s", got)
	}
	// The freed slot admits the next tenant with a dedicated series.
	if d := m.Handle("t-d"); d.Overflow() {
		t.Fatal("cap slot not freed by retirement")
	}
	if m.Labeled() != 2 {
		t.Fatalf("labeled %d, want 2", m.Labeled())
	}
	// Retiring an overflow tenant shrinks the overflow population only.
	m.Retire("t-c")
	if got := promText(t, reg); !strings.Contains(got, OverflowTenant) {
		t.Fatalf("overflow series should be permanent:\n%s", got)
	}
}

// Two meters on one registry (the awserve per-model meter and a collector)
// share the same families without re-registration panics.
func TestMeterFamiliesShared(t *testing.T) {
	reg := obs.NewRegistry()
	m1 := NewMeter(reg, 4)
	m2 := NewMeter(reg, 8)
	m1.Handle("x").Account(1, 1)
	m2.Handle("y").Account(2, 2)
	exp := promText(t, reg)
	if !strings.Contains(exp, `tenant="x"`) || !strings.Contains(exp, `tenant="y"`) {
		t.Fatalf("families not shared:\n%s", exp)
	}
}

func promText(t testing.TB, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}
