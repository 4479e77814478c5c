package config

import (
	"math"
	"testing"
)

func TestStockArchsValidate(t *testing.T) {
	for _, a := range []*Arch{Volta(), Pascal(), Turing()} {
		if err := a.Validate(); err != nil {
			t.Errorf("%s: %v", a.Name, err)
		}
	}
}

func TestTableThreeParameters(t *testing.T) {
	v, p, tu := Volta(), Pascal(), Turing()
	if v.NumSMs != 80 {
		t.Errorf("GV100 has 80 SMs, config says %d", v.NumSMs)
	}
	if v.BaseClockMHz != 1417 || p.BaseClockMHz != 1470 || tu.BaseClockMHz != 1905 {
		t.Error("Table 3 clock frequencies wrong")
	}
	if v.TechNodeNM != 12 || p.TechNodeNM != 16 || tu.TechNodeNM != 12 {
		t.Error("Table 3 technology nodes wrong")
	}
	if v.PowerLimitW != 250 || p.PowerLimitW != 250 || tu.PowerLimitW != 175 {
		t.Error("Table 3 power limits wrong")
	}
	if !v.HasTensorCores || p.HasTensorCores || !tu.HasTensorCores {
		t.Error("tensor-core capabilities wrong")
	}
}

func TestVoltageNearLinear(t *testing.T) {
	a := Volta()
	v1 := a.Voltage(700)
	v2 := a.Voltage(1400)
	// The V-f curve must be near-linear: doubling f should roughly
	// double the slope-driven part.
	if v2 <= v1 {
		t.Error("voltage must increase with frequency")
	}
	ratio := v2 / v1
	if ratio < 1.7 || ratio > 2.05 {
		t.Errorf("V(2f)/V(f) = %.3f; want near 2 (near-linear with small offset)", ratio)
	}
}

func TestByName(t *testing.T) {
	for alias, want := range map[string]string{
		"volta": "volta-gv100", "volta-gv100": "volta-gv100", "gv100": "volta-gv100",
		"pascal": "pascal-titanx", "pascal-titanx": "pascal-titanx", "titanx": "pascal-titanx",
		"turing": "turing-rtx2060s", "turing-rtx2060s": "turing-rtx2060s", "rtx2060s": "turing-rtx2060s",
	} {
		a, err := ByName(alias)
		if err != nil {
			t.Errorf("ByName(%q): %v", alias, err)
			continue
		}
		if a.Name != want {
			t.Errorf("ByName(%q) = %q, want %q", alias, a.Name, want)
		}
		if full, ok := FullName(alias); !ok || full != want {
			t.Errorf("FullName(%q) = %q, %v; want %q", alias, full, ok, want)
		}
	}
	for _, bad := range []string{"fermi", "", "Volta", "volta-", "pascal-gv100"} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) accepted an unknown architecture", bad)
		}
		if full, ok := FullName(bad); ok {
			t.Errorf("FullName(%q) = %q, want no match", bad, full)
		}
	}
}

// Request routing resolves the body's arch through FullName on every
// request, so the lookup must not allocate.
func TestFullNameAllocatesNothing(t *testing.T) {
	alias := string([]byte("titanx")) // not a constant the compiler can fold
	if n := testing.AllocsPerRun(100, func() {
		if _, ok := FullName(alias); !ok {
			t.Fatal("titanx did not resolve")
		}
	}); n != 0 {
		t.Fatalf("FullName allocates %v times per call, want 0", n)
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Arch)
	}{
		{"empty name", func(a *Arch) { a.Name = "" }},
		{"zero SMs", func(a *Arch) { a.NumSMs = 0 }},
		{"negative SMs", func(a *Arch) { a.NumSMs = -80 }},
		{"wrong warp size", func(a *Arch) { a.WarpSize = 64 }},
		{"zero proc blocks", func(a *Arch) { a.ProcBlocksPerSM = 0 }},
		{"zero lanes", func(a *Arch) { a.LanesPerBlock = 0 }},
		{"negative lanes", func(a *Arch) { a.LanesPerBlock = -16 }},
		{"full-warp lanes", func(a *Arch) { a.LanesPerBlock = 32 }},
		{"zero base clock", func(a *Arch) { a.BaseClockMHz = 0 }},
		{"zero min clock", func(a *Arch) { a.MinClockMHz = 0 }},
		{"max below base", func(a *Arch) { a.MaxClockMHz = a.BaseClockMHz - 1 }},
		{"inverted clock range", func(a *Arch) { a.MinClockMHz, a.MaxClockMHz = a.MaxClockMHz, a.MinClockMHz }},
		{"base below min", func(a *Arch) { a.BaseClockMHz = a.MinClockMHz - 100 }},
		{"zero volt slope", func(a *Arch) { a.VoltSlope = 0 }},
		{"negative volt slope", func(a *Arch) { a.VoltSlope = -0.3 }},
		{"zero voltage at min clock", func(a *Arch) { a.VoltOffset -= a.Voltage(a.MinClockMHz) }},
		{"negative voltage at min clock", func(a *Arch) { a.VoltOffset = -10 }},
		{"zero L1", func(a *Arch) { a.L1KBPerSM = 0 }},
		{"zero L2", func(a *Arch) { a.L2KB = 0 }},
		{"zero DRAM bandwidth", func(a *Arch) { a.DRAMGBps = 0 }},
		{"zero tech node", func(a *Arch) { a.TechNodeNM = 0 }},
		{"zero power limit", func(a *Arch) { a.PowerLimitW = 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := Volta()
			tc.mut(a)
			if err := a.Validate(); err == nil {
				t.Errorf("%s: produced a valid config", tc.name)
			}
		})
	}
}

func TestTechScale(t *testing.T) {
	ts, err := NewTechScale(12, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Dynamic <= 1 || ts.Static <= 1 {
		t.Errorf("12nm -> 16nm must increase energy and leakage: %+v", ts)
	}
	back := MustTechScale(16, 12)
	if math.Abs(ts.Dynamic*back.Dynamic-1) > 1e-12 {
		t.Error("round-trip scaling must cancel")
	}
	same := MustTechScale(12, 12)
	if !same.Identity() || same.Dynamic != 1 || same.Static != 1 {
		t.Error("same-node scaling must be identity")
	}
	if _, err := NewTechScale(12, 5); err == nil {
		t.Error("unknown node accepted")
	}
}
