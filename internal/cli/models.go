package cli

import (
	"path/filepath"

	"accelwattch"
	"accelwattch/internal/config"
	"accelwattch/internal/core"
	"accelwattch/internal/tune"
	"accelwattch/internal/zoo"
)

// BuildModelSet resolves an `awserve -models` manifest into a servable zoo
// set: tune entries run a fresh accelwattch session, file entries load
// saved configs (relative paths anchored at the manifest's directory, with
// the tuned-variant guard applied), and derive entries apply the Section
// 7.1 transform to an earlier entry. warn receives loud non-fatal
// conditions; nil drops them. The third argument is ignored.
func BuildModelSet(path string, workers int,
	// Deprecated: ignored. It named remote measurement workers, which no
	// longer exist; pass nil.
	_ any,
	warn func(format string, args ...any)) (*zoo.Set, error) {
	m, err := zoo.LoadManifest(path)
	if err != nil {
		return nil, err
	}
	return zoo.Build(m, zoo.BuildOptions{
		Dir:  filepath.Dir(path),
		Warn: warn,
		Tune: TuneModels(workers),
	})
}

// TuneModels adapts the public session API into the zoo.TuneFunc shape, so
// manifest "tune" entries run the same Figure 1 flow the single-model
// server always ran at startup.
func TuneModels(workers int) zoo.TuneFunc {
	return func(archAlias string, full bool) (map[tune.Variant]*core.Model, string, error) {
		arch, err := config.ByName(archAlias)
		if err != nil {
			return nil, "", err
		}
		sc, scName := accelwattch.Quick, "quick"
		if full {
			sc, scName = accelwattch.Full, "full"
		}
		sess, err := accelwattch.NewSessionWithOptions(arch, sc,
			accelwattch.SessionOptions{Workers: workers})
		if err != nil {
			return nil, "", err
		}
		models := make(map[tune.Variant]*core.Model, tune.NumVariants)
		for _, v := range tune.Variants() {
			models[v] = sess.Model(v)
		}
		return models, "tuned:" + archAlias + "/" + scName, nil
	}
}
