package zoo

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

func saveTestModel(t testing.TB, dir, name, tunedVariant string) string {
	t.Helper()
	m := testModel(t, config.Volta())
	m.TunedVariant = tunedVariant
	path := filepath.Join(dir, name)
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestManifestValidate(t *testing.T) {
	file := "m.json"
	good := func() *Manifest {
		return &Manifest{
			Default: "a",
			Models: []ManifestEntry{
				{Name: "a", File: file},
				{Name: "b", Derive: &DeriveSpec{From: "a", Arch: "pascal"}},
			},
		}
	}
	if err := good().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Manifest)
		frag   string
	}{
		{"empty", func(m *Manifest) { m.Models = nil }, "no models"},
		{"bad name", func(m *Manifest) { m.Models[0].Name = "Bad Name" }, "invalid name"},
		{"duplicate", func(m *Manifest) { m.Models[1] = ManifestEntry{Name: "a", File: file} }, "duplicate"},
		{"no source", func(m *Manifest) { m.Models[0].File = "" }, "exactly one"},
		{"two sources", func(m *Manifest) { m.Models[0].Tune = &TuneSpec{Arch: "volta"} }, "exactly one"},
		{"all_variants without file", func(m *Manifest) { m.Models[1].AllVariants = true }, "all_variants"},
		{"derive from later", func(m *Manifest) {
			m.Models[0], m.Models[1] = m.Models[1], m.Models[0]
			m.Default = "b"
		}, "earlier entry"},
		{"derive from self", func(m *Manifest) { m.Models[1].Derive.From = "b" }, "earlier entry"},
		{"derive without arch", func(m *Manifest) { m.Models[1].Derive.Arch = "" }, "target arch"},
		{"unknown default", func(m *Manifest) { m.Default = "zzz" }, "not a listed model"},
	}
	for _, c := range cases {
		m := good()
		c.mutate(m)
		err := m.Validate()
		if err == nil {
			t.Errorf("%s: validated", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.frag)
		}
	}

	// An empty default falls back to the first entry.
	m := good()
	m.Default = ""
	if err := m.Validate(); err != nil {
		t.Fatalf("empty default should fall back to the first entry: %v", err)
	}
}

func TestBuildFromManifest(t *testing.T) {
	dir := t.TempDir()
	saveTestModel(t, dir, "volta.json", "")
	m := &Manifest{
		Models: []ManifestEntry{
			{Name: "volta-saved", File: "volta.json"},
			{Name: "pascal-derived", Derive: &DeriveSpec{From: "volta-saved", Arch: "pascal"}},
			{Name: "turing-derived", Derive: &DeriveSpec{From: "volta-saved", Arch: "turing"}},
		},
	}
	set, err := Build(m, BuildOptions{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if set.Default != "volta-saved" {
		t.Fatalf("default %q, want first entry", set.Default)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	pd := set.Get("pascal-derived")
	if pd.Derived == nil || pd.Derived.Tech.Dynamic != 1.18 {
		t.Fatalf("pascal-derived provenance %+v", pd.Derived)
	}
	td := set.Get("turing-derived")
	if td.Derived == nil || td.Derived.ConstMult != 1.7 {
		t.Fatalf("turing-derived provenance %+v", td.Derived)
	}
	// Relative paths resolved against Dir: the source label keeps the
	// manifest-relative name.
	if got := set.Get("volta-saved").Source; got != "file:volta.json" {
		t.Fatalf("file source label %q", got)
	}
}

func TestBuildTuneEntry(t *testing.T) {
	tuned := 0
	fake := func(archAlias string, full bool) (map[tune.Variant]*core.Model, string, error) {
		tuned++
		if archAlias != "volta" || full {
			return nil, "", fmt.Errorf("unexpected tune request %q full=%v", archAlias, full)
		}
		return map[tune.Variant]*core.Model{tune.SASSSIM: testModel(t, config.Volta())}, "tuned:volta/quick", nil
	}
	m := &Manifest{Models: []ManifestEntry{{Name: "v", Tune: &TuneSpec{Arch: "volta"}}}}
	set, err := Build(m, BuildOptions{Tune: fake})
	if err != nil {
		t.Fatal(err)
	}
	if tuned != 1 {
		t.Fatalf("tuner called %d times, want 1", tuned)
	}
	if e := set.Get("v"); e.Source != "tuned:volta/quick" || len(e.Variants()) != 1 {
		t.Fatalf("tuned entry malformed: %+v", e)
	}
	// Without a tuner, tune entries are rejected (admin/test builds).
	if _, err := Build(m, BuildOptions{}); err == nil {
		t.Fatal("Build tuned without a TuneFunc")
	}
}

// The tuned-variant guard: a tagged file serves only its recorded variant
// unless all_variants loudly overrides.
func TestBuildFileEntryTunedVariantGuard(t *testing.T) {
	dir := t.TempDir()
	saveTestModel(t, dir, "tagged.json", tune.SASSSIM.String())

	var warns []string
	warn := func(format string, args ...any) { warns = append(warns, fmt.Sprintf(format, args...)) }

	m := &Manifest{Models: []ManifestEntry{{Name: "t", File: "tagged.json"}}}
	set, err := Build(m, BuildOptions{Dir: dir, Warn: warn})
	if err != nil {
		t.Fatal(err)
	}
	e := set.Get("t")
	if got := e.Variants(); len(got) != 1 || got[0] != tune.SASSSIM {
		t.Fatalf("tagged model serves %v, want only SASS_SIM", got)
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "SASS_SIM") {
		t.Fatalf("restriction warning missing or vague: %v", warns)
	}

	warns = nil
	m.Models[0].AllVariants = true
	set, err = Build(m, BuildOptions{Dir: dir, Warn: warn})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(set.Get("t").Variants()); got != int(tune.NumVariants) {
		t.Fatalf("all_variants served %d variants, want all %d", got, int(tune.NumVariants))
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "unvalidated") {
		t.Fatalf("all_variants override must warn loudly: %v", warns)
	}

	// A tagged model with an unknown variant name is a hard error.
	saveTestModel(t, dir, "bad.json", "NOT_A_VARIANT")
	m = &Manifest{Models: []ManifestEntry{{Name: "b", File: "bad.json"}}}
	if _, err := Build(m, BuildOptions{Dir: dir}); err == nil {
		t.Fatal("Build accepted an unknown tuned-variant tag")
	}
}

func TestBuildErrors(t *testing.T) {
	m := &Manifest{Models: []ManifestEntry{{Name: "x", File: "nope.json"}}}
	if _, err := Build(m, BuildOptions{Dir: t.TempDir()}); err == nil {
		t.Fatal("Build accepted a missing model file")
	}
	m = &Manifest{Models: []ManifestEntry{}}
	if _, err := Build(m, BuildOptions{}); err == nil {
		t.Fatal("Build accepted an empty manifest")
	}
}

func TestLoadManifest(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "manifest.json")
	body := `{"default": "a", "models": [{"name": "a", "file": "m.json"}]}`
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Default != "a" || len(m.Models) != 1 {
		t.Fatalf("loaded manifest %+v", m)
	}
	if _, err := LoadManifest(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadManifest accepted a missing file")
	}
	if err := os.WriteFile(path, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Error("LoadManifest accepted malformed JSON")
	}
	if err := os.WriteFile(path, []byte(`{"models": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(path); err == nil {
		t.Error("LoadManifest accepted an invalid manifest")
	}
}
