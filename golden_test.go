package accelwattch

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"accelwattch/internal/tune"
)

// TestQuickPipelineGolden pins the outputs of a Quick-scale Volta tune and
// four-variant validation: a digest of the tuned models, a digest of every
// validation row, and each variant's MAPE and kernel count. The digests are
// computed the way perfbench's checkValidation computes them, so a change to
// emu, sim or silicon that moves any result by one bit fails here, not only
// in the benchmark.
func TestQuickPipelineGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline")
	}
	const (
		wantModels = "ebfedade93b59d05"
		wantRows   = "8bdcdd3132810fce"
	)
	wantMAPE := [4]string{"2.4251", "3.2570", "2.9345", "2.7026"}
	wantKernels := [4]int{26, 21, 25, 25}

	sess, err := SharedSession(Volta(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	all, err := sess.ValidateAll()
	if err != nil {
		t.Fatal(err)
	}

	models, rows := sha256.New(), sha256.New()
	word := func(v float64) { _ = binary.Write(rows, binary.LittleEndian, math.Float64bits(v)) }
	for i, v := range tune.Variants() {
		data, err := json.Marshal(sess.Model(v))
		if err != nil {
			t.Fatalf("%v: model does not serialise: %v", v, err)
		}
		models.Write(data)

		r := all[v]
		if r == nil {
			t.Fatalf("%v: no validation result", v)
		}
		if got := fmt.Sprintf("%.4f", r.MAPE); got != wantMAPE[i] {
			t.Errorf("%v: MAPE %s%%, want %s%%", v, got, wantMAPE[i])
		}
		if len(r.Kernels) != wantKernels[i] {
			t.Errorf("%v: %d kernels, want %d", v, len(r.Kernels), wantKernels[i])
		}
		for _, k := range r.Kernels {
			rows.Write([]byte(v.String() + "/" + k.Name))
			word(k.MeasuredW)
			word(k.EstimatedW)
			for _, w := range k.Breakdown.Watts {
				word(w)
			}
		}
	}
	if got := hex.EncodeToString(models.Sum(nil)[:8]); got != wantModels {
		t.Errorf("models digest %s, want %s", got, wantModels)
	}
	if got := hex.EncodeToString(rows.Sum(nil)[:8]); got != wantRows {
		t.Errorf("rows digest %s, want %s", got, wantRows)
	}
}
