package zoo

import (
	"strings"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/tune"
)

func testModel(t testing.TB, arch *config.Arch) *core.Model {
	t.Helper()
	m := &core.Model{
		Arch:         arch,
		BaseEnergyPJ: core.InitialEnergiesPJ(),
		ConstW:       32.5,
		IdleSMW:      0.1,
		RefSMs:       80,
	}
	for i := range m.Scale {
		m.Scale[i] = 0.1
	}
	for i := range m.Div {
		m.Div[i] = core.DivModel{FirstLaneW: 30, AddLaneW: 0.7}
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("test model invalid: %v", err)
	}
	return m
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"volta-tuned", "a", "pascal_derived.v2", "x0-9"} {
		if !ValidName(ok) {
			t.Errorf("ValidName(%q) = false", ok)
		}
	}
	bad := []string{"", "Volta", "has space", "slash/y", "колбаса", strings.Repeat("a", MaxNameLen+1)}
	for _, s := range bad {
		if ValidName(s) {
			t.Errorf("ValidName(%q) = true", s)
		}
	}
	if !ValidName(strings.Repeat("a", MaxNameLen)) {
		t.Error("exactly MaxNameLen bytes must be valid")
	}
}

func TestUniformEntry(t *testing.T) {
	m := testModel(t, config.Volta())
	e, err := Uniform("volta-saved", m, "file:m.json")
	if err != nil {
		t.Fatal(err)
	}
	if e.Arch != "volta-gv100" || e.Source != "file:m.json" {
		t.Fatalf("entry metadata wrong: %+v", e)
	}
	if got := len(e.Variants()); got != int(tune.NumVariants) {
		t.Fatalf("uniform entry serves %d variants, want all %d", got, int(tune.NumVariants))
	}
	for _, v := range tune.Variants() {
		if e.Model(v) != m {
			t.Fatalf("variant %v does not serve the given model", v)
		}
	}
	if e.Model(tune.Variant(-1)) != nil || e.Model(tune.NumVariants) != nil {
		t.Error("out-of-range variants must return nil")
	}
	if _, err := Uniform("x", nil, "s"); err == nil {
		t.Error("Uniform accepted a nil model")
	}
	if _, err := Uniform("BAD NAME", m, "s"); err == nil {
		t.Error("Uniform accepted an invalid name")
	}
}

func TestPerVariantEntry(t *testing.T) {
	m := testModel(t, config.Volta())
	e, err := PerVariant("v", map[tune.Variant]*core.Model{tune.SASSSIM: m}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Variants(); len(got) != 1 || got[0] != tune.SASSSIM {
		t.Fatalf("variants = %v, want [SASS_SIM]", got)
	}
	if names := e.VariantNames(); len(names) != 1 || names[0] != tune.SASSSIM.String() {
		t.Fatalf("variant names = %v", names)
	}
	if _, err := PerVariant("v", nil, "test"); err == nil {
		t.Error("PerVariant accepted an empty model map")
	}
	if _, err := PerVariant("v", map[tune.Variant]*core.Model{tune.Variant(99): m}, "test"); err == nil {
		t.Error("PerVariant accepted an unknown variant")
	}
	// Mixed architectures within one entry are rejected by Validate.
	pm, _, err := m.Derive(config.Pascal(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PerVariant("v", map[tune.Variant]*core.Model{
		tune.SASSSIM: m, tune.HW: pm,
	}, "test"); err == nil {
		t.Error("PerVariant accepted models targeting different architectures")
	}
}

// The Section 7.1 fixtures as registry operations: deriving onto Pascal
// records the 12->16 nm factors; onto Turing the 1.7 board multiplier by
// default.
func TestDeriveEntryProvenance(t *testing.T) {
	base, err := Uniform("volta", testModel(t, config.Volta()), "test")
	if err != nil {
		t.Fatal(err)
	}

	pd, err := Derive("pascal-derived", base, config.Pascal(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pd.Arch != "pascal-titanx" || pd.BaseName != "volta" || pd.Source != "derived:volta" {
		t.Fatalf("pascal entry provenance wrong: %+v", pd)
	}
	if pd.Derived == nil || pd.Derived.Tech.Dynamic != 1.18 || pd.Derived.Tech.Static != 1.12 {
		t.Fatalf("pascal derivation record %+v, want 12->16 nm factors 1.18/1.12", pd.Derived)
	}
	if pd.Derived.ConstMult != 1.0 {
		t.Fatalf("pascal const mult %v, want default 1.0", pd.Derived.ConstMult)
	}
	if got := len(pd.Variants()); got != len(base.Variants()) {
		t.Fatalf("derived entry serves %d variants, base serves %d", got, len(base.Variants()))
	}

	td, err := Derive("turing-derived", base, config.Turing(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if td.Derived == nil || td.Derived.ConstMult != 1.7 || !td.Derived.Tech.Identity() {
		t.Fatalf("turing derivation record %+v, want identity tech and const x1.7", td.Derived)
	}
	if got, want := td.Model(tune.SASSSIM).ConstW, base.Model(tune.SASSSIM).ConstW*1.7; got != want {
		t.Fatalf("turing constant power %v, want %v", got, want)
	}

	// Explicit const_mult overrides the default.
	td2, err := Derive("t2", base, config.Turing(), 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if td2.Derived.ConstMult != 2.5 {
		t.Fatalf("const mult %v, want explicit 2.5", td2.Derived.ConstMult)
	}

	if _, err := Derive("x", nil, config.Turing(), 0); err == nil {
		t.Error("Derive accepted a nil base")
	}
	if _, err := Derive("x", base, nil, 0); err == nil {
		t.Error("Derive accepted a nil target architecture")
	}
}

func TestDefaultConstMult(t *testing.T) {
	if got := DefaultConstMult(config.Turing()); got != 1.7 {
		t.Errorf("turing default const mult = %v, want 1.7", got)
	}
	for _, a := range []*config.Arch{config.Volta(), config.Pascal(), nil} {
		if got := DefaultConstMult(a); got != 1.0 {
			t.Errorf("DefaultConstMult(%v) = %v, want 1.0", a, got)
		}
	}
}

func TestResolveArch(t *testing.T) {
	for alias, want := range map[string]string{
		"volta": "volta-gv100", "volta-gv100": "volta-gv100",
		"pascal": "pascal-titanx", "pascal-titanx": "pascal-titanx",
		"turing": "turing-rtx2060s", "turing-rtx2060s": "turing-rtx2060s",
	} {
		a, err := ResolveArch(alias)
		if err != nil {
			t.Errorf("ResolveArch(%q): %v", alias, err)
			continue
		}
		if a.Name != want {
			t.Errorf("ResolveArch(%q) = %q, want %q", alias, a.Name, want)
		}
	}
	for _, bad := range []string{"", "ampere", "volta-gv101", "VOLTA"} {
		if _, err := ResolveArch(bad); err == nil {
			t.Errorf("ResolveArch(%q) succeeded", bad)
		}
	}
}

func TestArchMatches(t *testing.T) {
	cases := []struct {
		alias, arch string
		want        bool
	}{
		{"pascal", "pascal-titanx", true},
		{"pascal-titanx", "pascal-titanx", true},
		{"pascal", "volta-gv100", false},
		{"", "volta-gv100", false},
		{"volta-gv100", "volta-gv100", true},
	}
	for _, c := range cases {
		if got := ArchMatches(c.alias, c.arch); got != c.want {
			t.Errorf("ArchMatches(%q, %q) = %v, want %v", c.alias, c.arch, got, c.want)
		}
	}
}

func TestTunedVariantMismatch(t *testing.T) {
	m := testModel(t, config.Volta())
	m.TunedVariant = tune.SASSSIM.String()
	e, err := Uniform("v", m, "test")
	if err != nil {
		t.Fatal(err)
	}
	if rec, mism := e.TunedVariantMismatch(tune.SASSSIM); mism || rec != tune.SASSSIM.String() {
		t.Fatalf("serving the recorded variant must not mismatch (rec %q, mism %v)", rec, mism)
	}
	other := tune.Variants()[0]
	if other == tune.SASSSIM {
		other = tune.Variants()[1]
	}
	if rec, mism := e.TunedVariantMismatch(other); !mism || rec != tune.SASSSIM.String() {
		t.Fatalf("serving %v from a SASS_SIM-tagged model must mismatch (rec %q, mism %v)", other, rec, mism)
	}
	// Untagged models never mismatch.
	e2, err := Uniform("u", testModel(t, config.Volta()), "test")
	if err != nil {
		t.Fatal(err)
	}
	if _, mism := e2.TunedVariantMismatch(other); mism {
		t.Error("untagged model reported a mismatch")
	}
}

func TestFingerprints(t *testing.T) {
	m := testModel(t, config.Volta())
	e, err := Uniform("v", m, "test")
	if err != nil {
		t.Fatal(err)
	}
	fp := e.Fingerprint(tune.SASSSIM)
	if len(fp) != 16 {
		t.Fatalf("fingerprint %q, want 16 hex chars", fp)
	}
	if fp != ModelFingerprint(m) {
		t.Error("entry fingerprint disagrees with ModelFingerprint")
	}
	m2 := testModel(t, config.Volta())
	if ModelFingerprint(m2) != fp {
		t.Error("identical models must fingerprint identically")
	}
	m2.ConstW += 1e-12
	if ModelFingerprint(m2) == fp {
		t.Error("a coefficient change must change the fingerprint")
	}
	pe := &Entry{Name: "p"}
	if pe.Fingerprint(tune.SASSSIM) != "" {
		t.Error("unserved variant must fingerprint empty")
	}
}

func TestSetValidateAndGet(t *testing.T) {
	v, err := Uniform("volta", testModel(t, config.Volta()), "test")
	if err != nil {
		t.Fatal(err)
	}
	p, err := Derive("pascal", v, config.Pascal(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &Set{Default: "volta", Entries: []*Entry{v, p}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.Names(); len(got) != 2 || got[0] != "volta" || got[1] != "pascal" {
		t.Fatalf("Names() = %v", got)
	}
	if s.Get("") != v {
		t.Error(`Get("") must return the default entry`)
	}
	if s.Get("pascal") != p || s.Get("nope") != nil {
		t.Error("Get by name broken")
	}

	if err := (&Set{Default: "volta"}).Validate(); err == nil {
		t.Error("empty set validated")
	}
	if err := (&Set{Default: "", Entries: []*Entry{v}}).Validate(); err == nil {
		t.Error("set without a default validated")
	}
	if err := (&Set{Default: "nope", Entries: []*Entry{v}}).Validate(); err == nil {
		t.Error("set with a non-member default validated")
	}
	if err := (&Set{Default: "volta", Entries: []*Entry{v, v}}).Validate(); err == nil {
		t.Error("set with duplicate names validated")
	}
}
