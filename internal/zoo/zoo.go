// Package zoo is the multi-architecture model registry behind the serving
// gateway: named entries, each owning a full per-variant model set for one
// architecture, with first-class derived models. Where Section 6 tunes one
// model for Volta, the Section 7.1 case studies apply that model — through
// technology scaling and a board-level constant-power adjustment — to
// Pascal TITAN X and Turing RTX 2060S without retuning. This package makes
// those transforms registry citizens: a derived entry records its base, the
// exact scaling factors applied, and the constant-power multiplier, so
// provenance is inspectable wherever the entry is served.
//
// The package holds models and provenance only. Serving state — the
// response cache, admission, readiness — belongs to internal/serve, which
// wraps each entry in a model-scoped serving unit.
package zoo

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/tune"
)

// MaxNameLen bounds entry names; names become metric label values and URL
// path elements, so they stay short and boring.
const MaxNameLen = 64

// Entry is one named member of the zoo: a per-variant model set for a
// single architecture, plus provenance.
type Entry struct {
	// Name is the registry key ("volta-tuned", "pascal-derived", ...).
	Name string

	// Arch is the architecture every model in the entry targets
	// (config.Arch.Name, e.g. "pascal-titanx").
	Arch string

	// Source describes where the models came from, for logs and the admin
	// listing: "tuned:volta/quick", "file:model.json", "derived:volta-tuned",
	// "admin", ...
	Source string

	// Models holds the model served for each variant; nil slots answer
	// "variant not served".
	Models [tune.NumVariants]*core.Model

	// Derived carries the Section 7.1 transform record for derived
	// entries, nil otherwise.
	Derived *core.Derivation

	// BaseName names the entry Derived was applied to, when known.
	BaseName string
}

// ValidName reports whether s is usable as an entry name: non-empty, at
// most MaxNameLen bytes, lowercase letters, digits, '-', '_' and '.' only.
// The charset keeps names safe as URL path elements and metric labels.
func ValidName(s string) bool {
	if s == "" || len(s) > MaxNameLen {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// Validate checks the entry is servable: a valid name, at least one model,
// every model valid and targeting the entry's architecture.
func (e *Entry) Validate() error {
	if !ValidName(e.Name) {
		return fmt.Errorf("zoo: invalid entry name %q (want 1-%d chars of [a-z0-9._-])", e.Name, MaxNameLen)
	}
	any := false
	for v := tune.Variant(0); v < tune.NumVariants; v++ {
		m := e.Models[v]
		if m == nil {
			continue
		}
		if err := m.Validate(); err != nil {
			return fmt.Errorf("zoo: entry %s, variant %v: %w", e.Name, v, err)
		}
		if m.Arch.Name != e.Arch {
			return fmt.Errorf("zoo: entry %s declares arch %q but its %v model targets %q",
				e.Name, e.Arch, v, m.Arch.Name)
		}
		any = true
	}
	if !any {
		return fmt.Errorf("zoo: entry %s has no models", e.Name)
	}
	return nil
}

// Model returns the entry's model for a variant (nil when not served).
func (e *Entry) Model(v tune.Variant) *core.Model {
	if v < 0 || v >= tune.NumVariants {
		return nil
	}
	return e.Models[v]
}

// Variants lists the variants the entry serves, in enum order.
func (e *Entry) Variants() []tune.Variant {
	var out []tune.Variant
	for v := tune.Variant(0); v < tune.NumVariants; v++ {
		if e.Models[v] != nil {
			out = append(out, v)
		}
	}
	return out
}

// VariantNames is Variants as wire names.
func (e *Entry) VariantNames() []string {
	vs := e.Variants()
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.String()
	}
	return out
}

// Fingerprint hashes one variant's model (empty when not served). Two
// processes that loaded or derived the same model agree on it; any
// coefficient drift breaks it.
func (e *Entry) Fingerprint(v tune.Variant) string {
	m := e.Model(v)
	if m == nil {
		return ""
	}
	return ModelFingerprint(m)
}

// ModelFingerprint hashes a model's serialised form.
func ModelFingerprint(m *core.Model) string {
	b, err := json.Marshal(m)
	if err != nil {
		return "unmarshalable"
	}
	h := fnv.New64a()
	_, _ = h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// TunedVariantMismatch returns the recorded tuned variant of the model
// serving v when it differs from v — the satellite contract that a saved
// model tagged "tuned under SASS_SIM" must not silently answer for HW.
// Untagged models (saved before the tag existed, or hand-built) never
// mismatch.
func (e *Entry) TunedVariantMismatch(v tune.Variant) (recorded string, mismatch bool) {
	m := e.Model(v)
	if m == nil || m.TunedVariant == "" {
		return "", false
	}
	return m.TunedVariant, m.TunedVariant != v.String()
}

// Uniform builds an entry serving one model for every variant — the legacy
// `awserve -model file.json` shape.
func Uniform(name string, m *core.Model, source string) (*Entry, error) {
	if m == nil {
		return nil, fmt.Errorf("zoo: entry %s: nil model", name)
	}
	e := &Entry{Name: name, Source: source}
	if m.Arch != nil {
		e.Arch = m.Arch.Name
	}
	for v := tune.Variant(0); v < tune.NumVariants; v++ {
		e.Models[v] = m
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// PerVariant builds an entry from a variant->model map (a tuned session's
// shape). All models must target the same architecture.
func PerVariant(name string, models map[tune.Variant]*core.Model, source string) (*Entry, error) {
	e := &Entry{Name: name, Source: source}
	for v, m := range models {
		if v < 0 || v >= tune.NumVariants {
			return nil, fmt.Errorf("zoo: entry %s: unknown variant %v", name, v)
		}
		if m == nil {
			continue
		}
		if e.Arch == "" && m.Arch != nil {
			e.Arch = m.Arch.Name
		}
		e.Models[v] = m
	}
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// DefaultConstMult returns the Section 7.1 constant-power adjustment for a
// target architecture: 1.7 for Turing's consumer board (fans, peripheral
// circuitry), 1.0 otherwise.
func DefaultConstMult(arch *config.Arch) float64 {
	if arch != nil && arch.Name == "turing-rtx2060s" {
		return 1.7
	}
	return 1.0
}

// Derive builds a derived entry from a base entry: every variant the base
// serves is retargeted to arch through core.Model.Derive, and the entry
// records the transform as provenance. constMult <= 0 selects
// DefaultConstMult(arch).
func Derive(name string, base *Entry, arch *config.Arch, constMult float64) (*Entry, error) {
	if base == nil {
		return nil, fmt.Errorf("zoo: derive %s: nil base entry", name)
	}
	if arch == nil {
		return nil, fmt.Errorf("zoo: derive %s: nil target architecture", name)
	}
	if constMult <= 0 {
		constMult = DefaultConstMult(arch)
	}
	e := &Entry{Name: name, Arch: arch.Name, Source: "derived:" + base.Name, BaseName: base.Name}
	var rec *core.Derivation
	for v := tune.Variant(0); v < tune.NumVariants; v++ {
		m := base.Models[v]
		if m == nil {
			continue
		}
		dm, d, err := m.Derive(arch, constMult)
		if err != nil {
			return nil, fmt.Errorf("zoo: derive %s from %s (%v): %w", name, base.Name, v, err)
		}
		if rec == nil {
			rec = &d
		}
		e.Models[v] = dm
	}
	e.Derived = rec
	if err := e.Validate(); err != nil {
		return nil, err
	}
	return e, nil
}

// ResolveArch maps an architecture alias onto a stock configuration. It
// accepts the full config name ("pascal-titanx") or the family shorthand
// before the dash ("pascal"), matching the `-arch` flag vocabulary.
func ResolveArch(alias string) (*config.Arch, error) {
	for _, a := range []*config.Arch{config.Volta(), config.Pascal(), config.Turing()} {
		if alias == a.Name || alias == archFamily(a.Name) {
			return a, nil
		}
	}
	return nil, fmt.Errorf("zoo: unknown architecture %q (want volta, pascal, turing, or a full config name)", alias)
}

// ArchMatches reports whether an alias ("pascal" or "pascal-titanx")
// denotes the architecture named archName.
func ArchMatches(alias, archName string) bool {
	return alias == archName || alias == archFamily(archName)
}

func archFamily(name string) string {
	if i := strings.IndexByte(name, '-'); i > 0 {
		return name[:i]
	}
	return name
}

// Set is an ordered collection of entries with a designated default — what
// a manifest builds and a gateway serves. Entries are keyed by unique name.
type Set struct {
	Default string
	Entries []*Entry
}

// Get returns the entry for name, or the default entry for "".
func (s *Set) Get(name string) *Entry {
	if name == "" {
		name = s.Default
	}
	for _, e := range s.Entries {
		if e.Name == name {
			return e
		}
	}
	return nil
}

// Names lists entry names in registration order.
func (s *Set) Names() []string {
	out := make([]string, len(s.Entries))
	for i, e := range s.Entries {
		out[i] = e.Name
	}
	return out
}

// Validate checks name uniqueness, per-entry validity, and that the default
// names a member.
func (s *Set) Validate() error {
	if len(s.Entries) == 0 {
		return fmt.Errorf("zoo: empty model set")
	}
	seen := make(map[string]bool, len(s.Entries))
	for _, e := range s.Entries {
		if err := e.Validate(); err != nil {
			return err
		}
		if seen[e.Name] {
			return fmt.Errorf("zoo: duplicate entry name %q", e.Name)
		}
		seen[e.Name] = true
	}
	if s.Default == "" {
		return fmt.Errorf("zoo: no default entry named")
	}
	if !seen[s.Default] {
		names := s.Names()
		sort.Strings(names)
		return fmt.Errorf("zoo: default %q is not a member (have %s)", s.Default, strings.Join(names, ", "))
	}
	return nil
}
