package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"accelwattch/internal/obs"
	"accelwattch/internal/tune"
)

// maxBodyBytes bounds request bodies; anything larger answers 413 before
// the decoder sees it.
const maxBodyBytes = 1 << 20

// statusRecorder captures the status code a handler writes so the request
// counter can label by outcome.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with the per-route request counter and latency
// histogram. The route's latency series and its 200 counter are resolved
// once, when the mux is built; other status codes look theirs up per
// request.
func instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	ok := mRequests.With(route, "200")
	latency := mLatency.With(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		h(rec, r)
		if rec.code == http.StatusOK {
			ok.Inc()
		} else {
			mRequests.With(route, strconv.Itoa(rec.code)).Inc()
		}
		latency.Observe(time.Since(start).Seconds())
	}
}

// httpError writes a JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// readBody reads a bounded request body, distinguishing oversize (413)
// from transport errors (400).
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
		} else {
			httpError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		}
		return nil, false
	}
	return body, true
}

// writeResult sends a computed response body (already-encoded JSON).
func writeResult(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// writeStatusErr maps a routing/admin error onto its HTTP status (400 for
// plain errors).
func writeStatusErr(w http.ResponseWriter, err error) {
	var se *statusError
	if errors.As(err, &se) {
		httpError(w, se.code, se.msg)
		return
	}
	httpError(w, http.StatusBadRequest, err.Error())
}

// failServe answers a serving error: drain is 503 and counts as a
// rejection, and any other error is the request's own, 400.
func failServe(w http.ResponseWriter, err error) {
	if errors.Is(err, errDraining) {
		mRejected.With("draining").Inc()
	}
	writeStatusErr(w, err)
}

// handleEstimate answers POST /estimate.
func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.Draining() {
		failServe(w, errDraining)
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeEstimateRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	u, err := s.resolveUnit(req.Model, req.Arch)
	if err != nil {
		writeStatusErr(w, err)
		return
	}
	v, ok := tune.ParseVariant(req.Variant)
	m := u.entry.Model(v)
	if !ok || m == nil {
		httpError(w, http.StatusBadRequest, "variant "+req.Variant+" not served")
		return
	}
	res, err := s.answer(u, req.CacheKey(), func() (result, error) {
		return computeEstimate(m, req)
	})
	if err != nil {
		failServe(w, err)
		return
	}
	emitEstimate(u, v, req, res)
	writeResult(w, res.body)
}

// handleSweep answers POST /sweep.
func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		httpError(w, http.StatusMethodNotAllowed, "POST required")
		return
	}
	if s.Draining() {
		failServe(w, errDraining)
		return
	}
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, err := DecodeSweepRequest(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	u, err := s.resolveUnit(req.Model, req.Arch)
	if err != nil {
		writeStatusErr(w, err)
		return
	}
	v, ok := tune.ParseVariant(req.Variant)
	m := u.entry.Model(v)
	if !ok || m == nil {
		httpError(w, http.StatusBadRequest, "variant "+req.Variant+" not served")
		return
	}
	res, err := s.answer(u, req.CacheKey(), func() (result, error) {
		return computeSweep(m, req)
	})
	if err != nil {
		failServe(w, err)
		return
	}
	writeResult(w, res.body)
}

// handleHealthz reports liveness plus a configuration snapshot. The
// top-level "variants" and "cached" keys describe the default entry, as
// they did when the server held exactly one model set; "models" adds the
// per-entry readiness detail — state, architecture, source, variants, and
// cache occupancy — including retired tombstones.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.umu.RLock()
	variants := []string{}
	cached := 0
	if u := s.units[s.defaultName]; u != nil {
		variants = u.entry.VariantNames()
	}
	models := make(map[string]any, len(s.order))
	for _, name := range s.order {
		state := s.states[name]
		u, live := s.units[name]
		detail := map[string]any{"state": state}
		if live {
			detail["arch"] = u.entry.Arch
			detail["source"] = u.entry.Source
			detail["variants"] = u.entry.VariantNames()
			detail["cached"] = u.cache.Len()
			if u.entry.Derived != nil {
				detail["derived_from"] = u.entry.BaseName
			}
			cached += u.cache.Len()
		}
		models[name] = detail
	}
	defaultName := s.defaultName
	s.umu.RUnlock()
	snapshot := map[string]any{
		"status":   "ok",
		"draining": s.Draining(),
		"variants": variants,
		"cached":   cached,
		"default":  defaultName,
		"models":   models,
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = json.NewEncoder(w).Encode(snapshot)
}

// handleReadyz is the load-balancer gate: ready until drain begins. The
// lines after the first report per-model readiness; a retired model never
// flips overall readiness, because every other entry keeps answering (and a
// replacement's old unit serves until the swap).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, "ok\n")
	s.umu.RLock()
	for _, name := range s.order {
		_, _ = fmt.Fprintf(w, "model %s: %s\n", name, s.states[name])
	}
	s.umu.RUnlock()
}

// handleIndex documents the routes at /.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		httpError(w, http.StatusNotFound, "no such route")
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = io.WriteString(w, `awserve: AccelWattch power-estimation gateway
POST   /estimate       kernel counters + variant [+ model/arch routing] -> power breakdown
POST   /sweep          activity + frequency ladder [+ model/arch routing] -> DVFS curve
GET    /models         model registry listing (entries, states, provenance)
PUT    /models/{name}  hot-add or replace a model (saved-model JSON or derive spec)
DELETE /models/{name}  retire a model (the default route cannot be retired)
GET    /metrics        Prometheus exposition
GET    /healthz        liveness + per-model snapshot
GET    /readyz         readiness (503 while draining; per-model states follow)
`)
}

// Mux returns the service's HTTP routes, instrumented, with /metrics
// served from the shared obs registry.
func (s *Server) Mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/estimate", instrument("estimate", s.handleEstimate))
	mux.HandleFunc("/sweep", instrument("sweep", s.handleSweep))
	mux.HandleFunc("/models", instrument("models", s.handleModels))
	mux.HandleFunc("/models/", instrument("models_item", s.handleModelItem))
	mux.Handle("/metrics", obs.Default().Handler())
	mux.HandleFunc("/healthz", instrument("healthz", s.handleHealthz))
	mux.HandleFunc("/readyz", instrument("readyz", s.handleReadyz))
	mux.HandleFunc("/", s.handleIndex)
	return mux
}
