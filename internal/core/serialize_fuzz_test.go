package core

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// modelSeed is a small valid saved model, compact like FuzzAdminPut's
// seeds. The fuzzer minimizes every input that finds new coverage, in time
// quadratic in its length: seeded with a whole model (2 KB indented, 1.2 KB
// compacted) it sat at 0 execs/s for seconds at a time in a 20 s run.
const modelSeed = `{"format":"accelwattch-model-v1","arch":"volta-gv100","ref_sms":80,"const_w":32.5,"idle_sm_w":0.4,"temp_coeff":0.015,"base_energy_pj":{"alu":1.5,"regfile":0.8},"scale":{"alu":1,"regfile":1},"divergence":{"INT_FP":{"first_lane_w":30,"add_lane_w":0.7}}}`

// FuzzLoadModel feeds arbitrary bytes through the config-file loader. The
// invariant under test: LoadModel either returns an error or returns a model
// that passes Validate — never a panic, and never a silently-accepted model
// carrying NaN/Inf/negative energies that would poison every later power
// estimate.
func FuzzLoadModel(f *testing.F) {
	seed := []byte(modelSeed)
	var m Model
	if err := m.UnmarshalJSON(seed); err != nil {
		f.Fatalf("seed model does not load: %v", err)
	}
	if err := m.Validate(); err != nil {
		f.Fatalf("seed model is invalid: %v", err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2]) // truncated file
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(strings.Replace(string(seed), `"const_w":32.5`, `"const_w":-1`, 1)))
	f.Add([]byte(strings.Replace(string(seed), `"arch":"volta-gv100"`, `"arch":"NOPE"`, 1)))
	f.Add([]byte(strings.Replace(string(seed), `"alu"`, `"bogus_component"`, 1)))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "model.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		m, err := LoadModel(path)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("LoadModel accepted a model that fails Validate: %v", err)
		}
		for i := 0; i < NumDynComponents; i++ {
			if math.IsNaN(m.BaseEnergyPJ[i]) || math.IsInf(m.BaseEnergyPJ[i], 0) || m.BaseEnergyPJ[i] < 0 {
				t.Fatalf("loaded model has bad energy %g for %v", m.BaseEnergyPJ[i], Component(i))
			}
			if math.IsNaN(m.Scale[i]) || math.IsInf(m.Scale[i], 0) || m.Scale[i] < 0 {
				t.Fatalf("loaded model has bad scale %g for %v", m.Scale[i], Component(i))
			}
		}
		if m.ConstW < 0 || math.IsNaN(m.ConstW) {
			t.Fatalf("loaded model has bad constant power %g", m.ConstW)
		}
	})
}
