package zoo

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/tune"
)

// FuzzManifest drives LoadManifest and Build with arbitrary manifest bytes.
// File entries resolve against a directory holding an untagged and a
// SASS_SIM-tagged saved model, and tune entries against a stub tuner that
// returns the test model for the requested architecture. A set Build
// accepts must pass Set.Validate, and every model in it must estimate a
// fixed activity. Manifests naming a file outside that directory are
// skipped: the target reads only files it wrote.
func FuzzManifest(f *testing.F) {
	dir := f.TempDir()
	saveTestModel(f, dir, "m.json", "")
	saveTestModel(f, dir, "tagged.json", tune.SASSSIM.String())

	f.Add([]byte(`{"default":"volta-tuned","models":[
		{"name":"volta-tuned","tune":{"arch":"volta","full":false}},
		{"name":"pascal-derived","derive":{"from":"volta-tuned","arch":"pascal"}},
		{"name":"turing-derived","derive":{"from":"volta-tuned","arch":"turing","const_mult":1.7}},
		{"name":"saved","file":"m.json"}]}`))
	f.Add([]byte(`{"models":[{"name":"t","file":"tagged.json"},{"name":"all","file":"tagged.json","all_variants":true}]}`))
	f.Add([]byte(`{"models":[{"name":"a","file":"m.json"},{"name":"b","derive":{"from":"a","arch":"turing","const_mult":-2}}]}`))
	f.Add([]byte(`{"models":[{"name":"a","tune":{"arch":"hopper"}}]}`))
	f.Add([]byte(`{"models":[{"name":"a","file":"missing.json"}]}`))
	f.Add([]byte(`{"default":"zzz","models":[{"name":"a","file":"m.json"}]}`))
	f.Add([]byte(`{"models":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "manifest.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(path)
		if err != nil {
			return
		}
		for _, me := range m.Models {
			if me.File != "" && (filepath.IsAbs(me.File) || strings.Contains(me.File, "..")) {
				t.Skip("file entry outside the model directory")
			}
		}
		stub := func(archAlias string, full bool) (map[tune.Variant]*core.Model, string, error) {
			arch, err := config.ByName(archAlias)
			if err != nil {
				return nil, "", err
			}
			models := make(map[tune.Variant]*core.Model, tune.NumVariants)
			for _, v := range tune.Variants() {
				models[v] = testModel(t, arch)
			}
			return models, "tuned:stub", nil
		}
		set, err := Build(m, BuildOptions{Tune: stub, Dir: dir})
		if err != nil {
			return
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("Build accepted a set that fails validation: %v", err)
		}
		a := core.Activity{Cycles: 1e6, ActiveSMs: 40, AvgLanes: 16, Mix: core.MixIntFP, TemperatureC: 70}
		a.Counts[core.CompALU] = 1e9
		a.Counts[core.CompDRAMMC] = 3e7
		var b core.Breakdown
		for _, e := range set.Entries {
			for _, v := range e.Variants() {
				if err := e.Model(v).EstimateInto(&a, &b); err != nil {
					t.Fatalf("entry %s, variant %v: %v", e.Name, v, err)
				}
			}
		}
	})
}
