package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/tune"
)

func testModelFile(t *testing.T, tunedVariant string) string {
	t.Helper()
	m := &core.Model{
		Arch:         config.Volta(),
		BaseEnergyPJ: core.InitialEnergiesPJ(),
		ConstW:       32.5,
		IdleSMW:      0.1,
		RefSMs:       80,
		TunedVariant: tunedVariant,
	}
	for i := range m.Scale {
		m.Scale[i] = 0.1
	}
	for i := range m.Div {
		m.Div[i] = core.DivModel{FirstLaneW: 30, AddLaneW: 0.7}
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatalf("saving model: %v", err)
	}
	return path
}

func TestBuildSetFromFile(t *testing.T) {
	path := testModelFile(t, "")
	set, err := buildSet("", path, "volta", false, 1, nil)
	if err != nil {
		t.Fatalf("buildSet: %v", err)
	}
	e := set.Get("")
	if e == nil {
		t.Fatal("no default entry")
	}
	if !strings.HasPrefix(e.Source, "file:") {
		t.Fatalf("source = %q, want file: prefix", e.Source)
	}
	if got := len(e.Variants()); got != int(tune.NumVariants) {
		t.Fatalf("got %d variants, want %d", got, int(tune.NumVariants))
	}
	for _, v := range tune.Variants() {
		m := e.Model(v)
		if m == nil {
			t.Fatalf("variant %v missing", v)
		}
		if m.ConstW != 32.5 || m.RefSMs != 80 {
			t.Fatalf("variant %v model does not match the saved one", v)
		}
	}
}

// A variant-tagged saved model keeps legacy -model behaviour (all variants
// served) but must warn loudly.
func TestBuildSetTaggedModelWarns(t *testing.T) {
	path := testModelFile(t, tune.SASSSIM.String())
	var warned []string
	set, err := buildSet("", path, "volta", false, 1,
		func(format string, args ...any) { warned = append(warned, fmt.Sprintf(format, args...)) })
	if err != nil {
		t.Fatalf("buildSet: %v", err)
	}
	if got := len(set.Get("").Variants()); got != int(tune.NumVariants) {
		t.Fatalf("tagged model served %d variants under -model, want all %d", got, int(tune.NumVariants))
	}
	if len(warned) == 0 {
		t.Fatal("no warning for serving a variant-tagged model under every variant")
	}
	if !strings.Contains(warned[0], tune.SASSSIM.String()) {
		t.Fatalf("warning does not name the recorded variant: %q", warned[0])
	}
}

// A manifest with file + derived entries builds the full zoo without any
// tuning (TuneFunc never invoked for these sources).
func TestBuildSetFromManifest(t *testing.T) {
	dir := t.TempDir()
	model := testModelFile(t, "")
	manifest := filepath.Join(dir, "manifest.json")
	body := fmt.Sprintf(`{
  "default": "volta-saved",
  "models": [
    {"name": "volta-saved",    "file": %q},
    {"name": "pascal-derived", "derive": {"from": "volta-saved", "arch": "pascal"}},
    {"name": "turing-derived", "derive": {"from": "volta-saved", "arch": "turing"}}
  ]
}`, model)
	if err := os.WriteFile(manifest, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	set, err := buildSet(manifest, "", "volta", false, 1, nil)
	if err != nil {
		t.Fatalf("buildSet: %v", err)
	}
	if len(set.Entries) != 3 {
		t.Fatalf("got %d entries, want 3", len(set.Entries))
	}
	if set.Default != "volta-saved" {
		t.Fatalf("default = %q", set.Default)
	}
	pd := set.Get("pascal-derived")
	if pd == nil || pd.Arch != "pascal-titanx" || pd.Derived == nil {
		t.Fatalf("pascal-derived entry malformed: %+v", pd)
	}
	td := set.Get("turing-derived")
	if td == nil || td.Derived == nil || td.Derived.ConstMult != 1.7 {
		t.Fatalf("turing-derived should default const_mult 1.7: %+v", td.Derived)
	}
}

func TestBuildSetErrors(t *testing.T) {
	if _, err := buildSet("", filepath.Join(t.TempDir(), "nope.json"), "volta", false, 1, nil); err == nil {
		t.Fatal("buildSet accepted a missing model file")
	}
	// An alias the entry name is built from reads as the unknown
	// architecture it is, not as an invalid entry name ("Volta-tuned").
	for _, arch := range []string{"ampere", "Volta"} {
		_, err := buildSet("", "", arch, false, 1, nil)
		if want := fmt.Sprintf("unknown architecture %q", arch); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("buildSet -arch %s: error %v, want %s", arch, err, want)
		}
	}
	if _, err := buildSet(filepath.Join(t.TempDir(), "nope.json"), "", "volta", false, 1, nil); err == nil {
		t.Fatal("buildSet accepted a missing manifest")
	}
}
