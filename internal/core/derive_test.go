package core

import (
	"math"
	"path/filepath"
	"testing"

	"accelwattch/internal/config"
)

// The Section 7.1 Pascal case study: Volta's 12 nm tuned model applied to
// the 16 nm TITAN X through technology scaling only (const_mult 1.0).
// Expected outputs are fixture-checked against the table factors: dynamic
// energies x1.18, static powers x1.12, constant power unchanged.
func TestDeriveVoltaToPascal(t *testing.T) {
	m := testModel()
	dm, d, err := m.Derive(config.Pascal(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if d.FromArch != "volta-gv100" || d.ToArch != "pascal-titanx" {
		t.Fatalf("derivation endpoints %q -> %q", d.FromArch, d.ToArch)
	}
	if d.Tech.Dynamic != 1.18 || d.Tech.Static != 1.12 {
		t.Fatalf("tech factors %v/%v, want 1.18/1.12", d.Tech.Dynamic, d.Tech.Static)
	}
	if d.ConstMult != 1.0 || d.Identity() {
		t.Fatalf("derivation record malformed: %+v", d)
	}
	if dm.Arch.Name != "pascal-titanx" {
		t.Fatalf("derived model targets %q", dm.Arch.Name)
	}
	for _, c := range DynComponents() {
		want := m.BaseEnergyPJ[c] * 1.18
		if dm.BaseEnergyPJ[c] != want {
			t.Fatalf("%v energy = %v, want %v (x1.18)", c, dm.BaseEnergyPJ[c], want)
		}
		if dm.Scale[c] != m.Scale[c] {
			t.Fatalf("%v scale changed: tuned scale factors are node-independent", c)
		}
	}
	if dm.IdleSMW != m.IdleSMW*1.12 {
		t.Fatalf("idle-SM power = %v, want %v (x1.12)", dm.IdleSMW, m.IdleSMW*1.12)
	}
	for mix := MixCategory(0); mix < NumMixCategories; mix++ {
		if dm.Div[mix].FirstLaneW != m.Div[mix].FirstLaneW*1.12 ||
			dm.Div[mix].AddLaneW != m.Div[mix].AddLaneW*1.12 {
			t.Fatalf("mix %v divergence coefficients not scaled x1.12", mix)
		}
	}
	if dm.ConstW != m.ConstW {
		t.Fatalf("constant power changed: %v != %v", dm.ConstW, m.ConstW)
	}
	// Fixture-pinned expected values for the seed coefficients: the paper's
	// transform must keep reproducing exactly these numbers. The factor is
	// held in a variable so the expectation rounds the same way the runtime
	// multiplication does (a folded constant expression rounds once and
	// lands one ULP away).
	static := 1.12
	if got := dm.IdleSMW; got != 0.1*static {
		t.Fatalf("idle-SM fixture %v, want %v", got, 0.1*static)
	}
	if got := dm.Div[MixLight].FirstLaneW; got != 30*static {
		t.Fatalf("first-lane fixture %v, want %v", got, 30*static)
	}
	if err := dm.Validate(); err != nil {
		t.Fatalf("derived model invalid: %v", err)
	}
}

// The Section 7.1 Turing case study: same 12 nm node (identity tech
// scaling), constant power x1.7 for the consumer board.
func TestDeriveVoltaToTuring(t *testing.T) {
	m := testModel()
	dm, d, err := m.Derive(config.Turing(), 1.7)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Tech.Identity() || d.ConstMult != 1.7 || d.Identity() {
		t.Fatalf("derivation record %+v: want identity tech, const x1.7", d)
	}
	if dm.ConstW != m.ConstW*1.7 {
		t.Fatalf("constant power %v, want %v", dm.ConstW, m.ConstW*1.7)
	}
	if dm.ConstW != 32.5*1.7 {
		t.Fatalf("constant-power fixture %v, want %v", dm.ConstW, 32.5*1.7)
	}
	// Identity tech scaling must leave every other coefficient bit-equal.
	for _, c := range DynComponents() {
		if dm.BaseEnergyPJ[c] != m.BaseEnergyPJ[c] {
			t.Fatalf("%v energy changed under identity scaling", c)
		}
	}
	if dm.IdleSMW != m.IdleSMW {
		t.Fatal("idle-SM power changed under identity scaling")
	}
	for mix := MixCategory(0); mix < NumMixCategories; mix++ {
		if dm.Div[mix] != m.Div[mix] {
			t.Fatalf("mix %v divergence model changed under identity scaling", mix)
		}
	}
}

// The Section 7.1 board multiplier: x1.7 on Turing's consumer board, x1.0
// on every other target (a nil target included).
func TestDefaultConstMult(t *testing.T) {
	if got := DefaultConstMult(config.Turing()); got != 1.7 {
		t.Errorf("DefaultConstMult(Turing) = %v, want 1.7", got)
	}
	for _, a := range []*config.Arch{config.Volta(), config.Pascal(), nil} {
		if got := DefaultConstMult(a); got != 1.0 {
			t.Errorf("DefaultConstMult(%v) = %v, want 1.0", a, got)
		}
	}
}

func TestDeriveRejects(t *testing.T) {
	m := testModel()
	for _, cm := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, _, err := m.Derive(config.Turing(), cm); err == nil {
			t.Errorf("Derive accepted constant-power multiplier %v", cm)
		}
	}
	if _, _, err := m.Derive(nil, 1); err == nil {
		t.Error("Derive accepted a nil architecture")
	}
}

// TunedVariant provenance must survive derivation and serialisation: a
// derived model still records what its base was tuned under.
func TestTunedVariantPropagates(t *testing.T) {
	m := testModel()
	m.TunedVariant = "SASS_SIM"
	dm, _, err := m.Derive(config.Pascal(), 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if dm.TunedVariant != "SASS_SIM" {
		t.Fatalf("derived model lost the tuned-variant tag: %q", dm.TunedVariant)
	}
	path := filepath.Join(t.TempDir(), "m.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.TunedVariant != "SASS_SIM" {
		t.Fatalf("tuned-variant tag lost through save/load: %q", back.TunedVariant)
	}
	// Untagged files stay untagged (backward compatibility with models
	// saved before the tag existed).
	m2 := testModel()
	if err := m2.Save(path); err != nil {
		t.Fatal(err)
	}
	if back, err = LoadModel(path); err != nil || back.TunedVariant != "" {
		t.Fatalf("untagged model gained a tag: %q (err %v)", back.TunedVariant, err)
	}
}
