package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"accelwattch/internal/core"
	"accelwattch/internal/zoo"
)

// The admin surface: GET /models lists the registry, PUT /models/{name}
// hot-adds or replaces an entry, DELETE /models/{name} retires one — all
// under load, without draining. An install builds its entry off the
// registry lock, then checks the cap and swaps it in under one critical
// section (AddEntry); in-flight requests hold the unit they resolved, so an
// admin operation changes zero responses already in progress.

// ModelSummary is one registry entry in the admin listing (and the PUT
// response). Retired entries keep a tombstone with only Name and State.
type ModelSummary struct {
	Name         string            `json:"name"`
	State        string            `json:"state"`
	Default      bool              `json:"default,omitempty"`
	Arch         string            `json:"arch,omitempty"`
	Source       string            `json:"source,omitempty"`
	Variants     []string          `json:"variants,omitempty"`
	Cached       int               `json:"cached,omitempty"`
	TunedVariant string            `json:"tuned_variant,omitempty"`
	DerivedFrom  string            `json:"derived_from,omitempty"`
	Derivation   *core.Derivation  `json:"derivation,omitempty"`
	Fingerprints map[string]string `json:"fingerprints,omitempty"`
}

// Summaries lists the registry in registration order, tombstones included.
func (s *Server) Summaries() []ModelSummary {
	s.umu.RLock()
	defer s.umu.RUnlock()
	out := make([]ModelSummary, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, s.summaryLocked(name))
	}
	return out
}

// summaryLocked builds one entry's summary. Caller holds umu (read or
// write).
func (s *Server) summaryLocked(name string) ModelSummary {
	sum := ModelSummary{Name: name, State: s.states[name], Default: name == s.defaultName}
	u, ok := s.units[name]
	if !ok {
		return sum
	}
	e := u.entry
	sum.Arch = e.Arch
	sum.Source = e.Source
	sum.Variants = e.VariantNames()
	sum.Cached = u.cache.Len()
	sum.DerivedFrom = e.BaseName
	sum.Derivation = e.Derived
	sum.Fingerprints = make(map[string]string, len(sum.Variants))
	for _, v := range e.Variants() {
		sum.Fingerprints[v.String()] = u.fps[v]
		if recorded, _ := e.TunedVariantMismatch(v); recorded != "" {
			sum.TunedVariant = recorded
		}
	}
	return sum
}

// handleModels answers GET /models.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(map[string]any{
		"default": s.DefaultName(),
		"models":  s.Summaries(),
	})
}

// adminPut is the PUT /models/{name} body. Exactly one of the model forms
// applies:
//
//   - a raw accelwattch-model-v1 config (detected by its "format" field),
//     served for every variant — unless it records the variant it was tuned
//     under, in which case it serves only that variant;
//   - {"model": {...}, "all_variants": true} to serve a variant-tagged
//     model for every variant anyway (the mismatch is surfaced through the
//     aw_serve_variant_mismatch_total metric rather than refused);
//   - {"derive": {"from": "entry", "arch": "pascal", "const_mult": 1.0}}
//     to retarget an already-registered entry to another architecture, the
//     Section 7.1 transform as an admin operation.
type adminPut struct {
	Format      string          `json:"format,omitempty"`
	Model       json.RawMessage `json:"model,omitempty"`
	AllVariants bool            `json:"all_variants,omitempty"`
	Derive      *zoo.DeriveSpec `json:"derive,omitempty"`
}

// handleModelItem answers GET/PUT/DELETE /models/{name}.
func (s *Server) handleModelItem(w http.ResponseWriter, r *http.Request) {
	name := strings.TrimPrefix(r.URL.Path, "/models/")
	if name == "" || strings.Contains(name, "/") {
		httpError(w, http.StatusNotFound, "no such route")
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.umu.RLock()
		_, live := s.units[name]
		known := live || s.states[name] != ""
		sum := s.summaryLocked(name)
		s.umu.RUnlock()
		if !known {
			httpError(w, http.StatusNotFound, fmt.Sprintf("serve: unknown model %q", name))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(sum)
	case http.MethodPut:
		s.handleModelPut(w, r, name)
	case http.MethodDelete:
		if err := s.Retire(name); err != nil {
			mAdminOps.With("retire", "error").Inc()
			writeStatusErr(w, err)
			return
		}
		mAdminOps.With("retire", "ok").Inc()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(map[string]string{"retired": name})
	default:
		w.Header().Set("Allow", "GET, PUT, DELETE")
		httpError(w, http.StatusMethodNotAllowed, "GET, PUT or DELETE required")
	}
}

func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request, name string) {
	op := "add"
	if s.Entry(name) != nil {
		op = "replace"
	}
	fail := func(err error) {
		mAdminOps.With(op, "error").Inc()
		writeStatusErr(w, err)
	}
	if !zoo.ValidName(name) {
		fail(statusErrorf(400, "serve: invalid model name %q (want 1-%d chars of [a-z0-9._-])", name, zoo.MaxNameLen))
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		mAdminOps.With(op, "error").Inc()
		return
	}
	e, err := s.buildAdminEntry(name, body)
	if err != nil {
		fail(err)
		return
	}
	if err := s.AddEntry(e); err != nil {
		fail(err)
		return
	}
	mAdminOps.With(op, "ok").Inc()
	s.umu.RLock()
	sum := s.summaryLocked(name)
	s.umu.RUnlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(sum)
}

// buildAdminEntry resolves a PUT body into a zoo entry (pure; no registry
// mutation).
func (s *Server) buildAdminEntry(name string, body []byte) (*zoo.Entry, error) {
	var spec adminPut
	if err := json.Unmarshal(body, &spec); err != nil {
		return nil, statusErrorf(400, "serve: admin body: %v", err)
	}
	switch {
	case spec.Format != "":
		// The body is a saved model config itself.
		return adminModelEntry(name, body, false)
	case spec.Model != nil && spec.Derive == nil:
		return adminModelEntry(name, spec.Model, spec.AllVariants)
	case spec.Derive != nil && spec.Model == nil:
		base := s.Entry(spec.Derive.From)
		if base == nil {
			return nil, statusErrorf(404, "serve: derive base %q is not a registered model", spec.Derive.From)
		}
		e, err := spec.Derive.Apply(name, base)
		if err != nil {
			return nil, statusErrorf(400, "%v", err)
		}
		e.Source = "admin-derived:" + base.Name
		return e, nil
	default:
		return nil, statusErrorf(400, "serve: admin body must be a saved model config, {\"model\": ...}, or {\"derive\": ...}")
	}
}

// adminModelEntry builds an entry from raw saved-model JSON under the
// tuned-variant guard (zoo.FromModel).
func adminModelEntry(name string, raw []byte, allVariants bool) (*zoo.Entry, error) {
	m := &core.Model{}
	if err := m.UnmarshalJSON(raw); err != nil {
		return nil, statusErrorf(400, "%v", err)
	}
	e, err := zoo.FromModel(name, m, "admin", allVariants)
	if err != nil {
		return nil, statusErrorf(400, "%v", err)
	}
	return e, nil
}
