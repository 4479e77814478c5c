package zoo

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/tune"
)

// Manifest is the `awserve -models manifest.json` schema: an ordered list
// of model sources plus the default routing target. Exactly one source
// (tune, file, derive) must be set per entry. Example:
//
//	{
//	  "default": "volta-tuned",
//	  "models": [
//	    {"name": "volta-tuned",    "tune":   {"arch": "volta", "full": false}},
//	    {"name": "pascal-derived", "derive": {"from": "volta-tuned", "arch": "pascal"}},
//	    {"name": "turing-derived", "derive": {"from": "volta-tuned", "arch": "turing"}},
//	    {"name": "saved",          "file":   "model.json"}
//	  ]
//	}
//
// Derive entries default const_mult to the Section 7.1 board adjustment for
// the target (1.7 on turing-rtx2060s, 1.0 otherwise); tech scaling between
// the base and target nodes is always applied.
type Manifest struct {
	Default string          `json:"default"`
	Models  []ManifestEntry `json:"models"`
}

// ManifestEntry is one model source in a manifest.
type ManifestEntry struct {
	Name string `json:"name"`

	// Tune tunes a fresh model set for an architecture at startup.
	Tune *TuneSpec `json:"tune,omitempty"`

	// File loads a saved accelwattch-model-v1 JSON config. Relative paths
	// resolve against the manifest's directory.
	File string `json:"file,omitempty"`

	// AllVariants, with File, serves a variant-tagged saved model for
	// every variant anyway (the loader warns instead of restricting).
	// Untagged files always serve all variants.
	AllVariants bool `json:"all_variants,omitempty"`

	// Derive retargets an earlier entry to another architecture.
	Derive *DeriveSpec `json:"derive,omitempty"`
}

// TuneSpec selects the tuning flow for a manifest entry.
type TuneSpec struct {
	// Arch names the architecture by any alias config.ByName accepts.
	Arch string `json:"arch"`
	Full bool   `json:"full,omitempty"`
}

// DeriveSpec is the Section 7.1 transform as configuration: a manifest
// derive entry, or the body of an admin derive PUT.
type DeriveSpec struct {
	From string `json:"from"`
	// Arch names the target by any alias config.ByName accepts.
	Arch string `json:"arch"`
	// ConstMult 0 (or omitted) selects core.DefaultConstMult for the
	// target. Any other value must be positive and finite.
	ConstMult float64 `json:"const_mult,omitempty"`
}

// Apply derives the entry name from base, the entry d.From names, onto
// the target d.Arch.
func (d *DeriveSpec) Apply(name string, base *Entry) (*Entry, error) {
	arch, err := config.ByName(d.Arch)
	if err != nil {
		return nil, err
	}
	return Derive(name, base, arch, d.ConstMult)
}

// LoadManifest reads and validates a manifest file (structure only; sources
// are resolved by Build).
func LoadManifest(path string) (*Manifest, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("zoo: manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("zoo: manifest %s: %w", path, err)
	}
	return &m, nil
}

// Validate checks manifest structure: architecture aliases config knows,
// unique valid names, exactly one source each, derive references pointing
// at earlier entries.
func (m *Manifest) Validate() error {
	if len(m.Models) == 0 {
		return fmt.Errorf("no models listed")
	}
	known := func(alias string) bool { _, ok := config.FullName(alias); return ok }
	seen := make(map[string]bool, len(m.Models))
	for i := range m.Models {
		e := &m.Models[i]
		// Aliases come before names: awserve names its -arch entry after
		// the alias, so "Volta" must read as an unknown architecture, not
		// as the invalid name "Volta-tuned". Checking every entry here
		// also keeps Build from tuning entries of a manifest it refuses.
		if e.Tune != nil && !known(e.Tune.Arch) {
			return fmt.Errorf("entry %q: unknown architecture %q", e.Name, e.Tune.Arch)
		}
		if e.Derive != nil && !known(e.Derive.Arch) {
			return fmt.Errorf("entry %q: unknown derive target architecture %q", e.Name, e.Derive.Arch)
		}
		if !ValidName(e.Name) {
			return fmt.Errorf("entry %d: invalid name %q", i, e.Name)
		}
		if seen[e.Name] {
			return fmt.Errorf("duplicate entry name %q", e.Name)
		}
		n := 0
		if e.Tune != nil {
			n++
		}
		if e.File != "" {
			n++
		}
		if e.Derive != nil {
			n++
		}
		if n != 1 {
			return fmt.Errorf("entry %q: want exactly one of tune, file, derive (got %d)", e.Name, n)
		}
		if e.AllVariants && e.File == "" {
			return fmt.Errorf("entry %q: all_variants only applies to file entries", e.Name)
		}
		if e.Derive != nil {
			// seen holds strictly earlier entries at this point, so a
			// self-reference fails here too.
			if !seen[e.Derive.From] {
				return fmt.Errorf("entry %q derives from %q, which is not an earlier entry", e.Name, e.Derive.From)
			}
		}
		seen[e.Name] = true
	}
	def := m.Default
	if def == "" {
		def = m.Models[0].Name
	}
	if !seen[def] {
		return fmt.Errorf("default %q is not a listed model", def)
	}
	return nil
}

// TuneFunc tunes a fresh per-variant model set for an architecture — the
// dependency Build needs from the session layer (cmd/awserve supplies it
// via the root accelwattch package). The returned source string labels the
// entry ("tuned:volta/quick").
type TuneFunc func(archAlias string, full bool) (map[tune.Variant]*core.Model, string, error)

// BuildOptions configures Build.
type BuildOptions struct {
	// Tune resolves "tune" entries. Nil rejects manifests that need
	// tuning (admin-initiated builds, tests).
	Tune TuneFunc

	// Dir anchors relative file paths (normally the manifest's directory).
	Dir string

	// Warn receives loud non-fatal conditions (a variant-tagged saved
	// model served for all variants). Nil drops them.
	Warn func(format string, args ...any)
}

// Build resolves a manifest into a servable Set: tune entries are tuned,
// file entries loaded (with the tuned-variant guard applied), and derive
// entries transformed from their already-built base.
func Build(m *Manifest, opts BuildOptions) (*Set, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	warn := opts.Warn
	if warn == nil {
		warn = func(string, ...any) {}
	}
	set := &Set{Default: m.Default}
	if set.Default == "" {
		set.Default = m.Models[0].Name
	}
	byName := make(map[string]*Entry, len(m.Models))
	for i := range m.Models {
		me := &m.Models[i]
		var (
			e   *Entry
			err error
		)
		switch {
		case me.Tune != nil:
			if opts.Tune == nil {
				return nil, fmt.Errorf("zoo: entry %q needs tuning, but no tuner is available here", me.Name)
			}
			var models map[tune.Variant]*core.Model
			var source string
			models, source, err = opts.Tune(me.Tune.Arch, me.Tune.Full)
			if err == nil {
				e, err = PerVariant(me.Name, models, source)
			}
		case me.File != "":
			e, err = buildFileEntry(me, opts.Dir, warn)
		case me.Derive != nil:
			e, err = me.Derive.Apply(me.Name, byName[me.Derive.From])
		}
		if err != nil {
			return nil, fmt.Errorf("zoo: building entry %q: %w", me.Name, err)
		}
		byName[me.Name] = e
		set.Entries = append(set.Entries, e)
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}

// buildFileEntry loads a saved model and applies the tuned-variant guard
// (FromModel), warning whenever a tagged model is restricted or, under
// all_variants, served for every variant.
func buildFileEntry(me *ManifestEntry, dir string, warn func(string, ...any)) (*Entry, error) {
	path := me.File
	if !filepath.IsAbs(path) && dir != "" {
		path = filepath.Join(dir, path)
	}
	model, err := core.LoadModel(path)
	if err != nil {
		return nil, err
	}
	e, err := FromModel(me.Name, model, "file:"+me.File, me.AllVariants)
	if err != nil {
		return nil, err
	}
	switch {
	case model.TunedVariant == "":
	case me.AllVariants:
		warn("entry %q: model %s records tuned variant %s but all_variants serves it for every variant — estimates under other variants are unvalidated",
			me.Name, me.File, model.TunedVariant)
	default:
		warn("entry %q: model %s was tuned under %s; serving it for that variant only (set all_variants to override)",
			me.Name, me.File, model.TunedVariant)
	}
	return e, nil
}
