package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"time"

	"accelwattch"
	"accelwattch/internal/eval"
	"accelwattch/internal/tune"
	"accelwattch/internal/ubench"
	"accelwattch/internal/workloads"
)

// Peak RSS of the tune_validate child processes, measured on a 2-core /
// 8 GB machine: the untraced job, and the traced job (which holds the
// validation traces through the tune). The preflight refuses to start a run
// when MemAvailable is below the figure it needs, rather than swap or be
// OOM-killed halfway.
const (
	recordedJobPeakMB    = 6600
	recordedTracedPeakMB = 6900
)

// pipelineReport is what a pipeline child prints on standard output.
type pipelineReport struct {
	GOMAXPROCS   int          `json:"gomaxprocs"`
	TuneS        float64      `json:"tune_s"`
	ValidateS    float64      `json:"validate_s"`
	CPUS         float64      `json:"cpu_s"`
	AllocBytes   uint64       `json:"alloc_bytes"`
	MAPE         [4]float64   `json:"mape"`
	Kernels      [4]int       `json:"kernels"`
	Rows         int          `json:"rows"`   // validation rows attempted
	Failed       int          `json:"failed"` // quarantined workloads + rows without a defined error
	Quarantined  []string     `json:"quarantined"`
	Problems     []string     `json:"problems"`
	ModelsDigest string       `json:"models_digest"`
	RowsDigest   string       `json:"rows_digest"`
	Layers       *layerReport `json:"layers,omitempty"`
}

// runPipeline measures tune_validate: setupRuns set-up processes, the
// untraced job and, when tracing, the traced job — each a fresh child.
func runPipeline(ctx context.Context, o options, rec *record) (*outcome, error) {
	need := int64(recordedJobPeakMB)
	if o.trace == 1 {
		need = recordedTracedPeakMB
	}
	if avail := memAvailableMB(); avail < need {
		return nil, fmt.Errorf("MemAvailable is %d MB, below the %d MB peak RSS recorded for tune_validate; the run would swap or be OOM-killed", avail, need)
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var setup setupSamples
	setupOnce := func() (time.Duration, time.Duration, error) { return timeSetupChild(ctx, exe) }
	if err := setup.take(setupRuns/2+1, setupOnce); err != nil {
		return nil, err
	}
	steal0 := stealTime()
	job, jobRU, err := runChild(ctx, exe, "job")
	if err != nil {
		return nil, err
	}
	steal := stealTime() - steal0
	if err := setup.take(setupRuns/2, setupOnce); err != nil {
		return nil, err
	}
	rec.add("setup: %v", &setup)
	describeJob(rec, "untraced job", job, jobRU)
	rec.add("untraced job: %.2f s of CPU stolen by the hypervisor while it ran", steal.Seconds())
	out := &outcome{
		correct:   len(job.Problems) == 0,
		attempted: int64(job.Rows),
		failed:    int64(job.Failed),
	}
	if o.trace == 0 {
		out.values = map[string]float64{
			"setup_s":     median(setup.cpu),
			"cpu_s":       job.CPUS,
			"peak_rss_mb": peakRSSMB(jobRU),
			"ok_pct":      100 * float64(job.Rows-job.Failed) / float64(job.Rows),
		}
		return out, nil
	}

	traced, tracedRU, err := runChild(ctx, exe, "traced")
	if err != nil {
		return nil, err
	}
	describeJob(rec, "traced job", traced, tracedRU)
	if traced.Layers == nil {
		return nil, fmt.Errorf("traced child reported no layers")
	}
	same := traced.ModelsDigest == job.ModelsDigest && traced.RowsDigest == job.RowsDigest && traced.MAPE == job.MAPE
	if !same {
		rec.add("CHECK FAILED: traced outputs differ from the untraced job's")
	}
	out.correct = out.correct && len(traced.Problems) == 0 && same
	out.attempted += int64(traced.Rows)
	out.failed += int64(traced.Failed)
	out.values = pipelineLayers(rec, job, traced)
	return out, nil
}

// timeSetupChild runs one set-up process, which exits once the testbench
// and both kernel suites are built. It returns the wall time from exec to
// the process's ready line and the CPU time the process used.
func timeSetupChild(ctx context.Context, exe string) (wall, cpu time.Duration, err error) {
	cmd := exec.CommandContext(ctx, exe, "-child", "setup")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, 0, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	wall = time.Since(start)
	if err := cmd.Wait(); err != nil {
		return 0, 0, fmt.Errorf("setup child: %w", err)
	}
	if readErr != nil || line != "ready\n" {
		return 0, 0, fmt.Errorf("setup child did not report ready (%q, %v)", line, readErr)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0, fmt.Errorf("setup child: no resource usage")
	}
	return wall, rusageCPU(ru), nil
}

// runChild runs one pipeline child to completion and decodes its report.
func runChild(ctx context.Context, exe, mode string) (*pipelineReport, *syscall.Rusage, error) {
	cmd := exec.CommandContext(ctx, exe, "-child", mode)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return nil, nil, fmt.Errorf("%s child: %w", mode, err)
	}
	var rep pipelineReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, nil, fmt.Errorf("%s child report: %w", mode, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return nil, nil, fmt.Errorf("%s child: no resource usage", mode)
	}
	return &rep, ru, nil
}

// describeJob adds a child's headline figures, outputs and checks to the
// run record.
func describeJob(rec *record, what string, r *pipelineReport, ru *syscall.Rusage) {
	rec.add("%s: GOMAXPROCS %d  tune_s %.3f  validate_s %.3f  cpu_s %.3f  alloc_gb %.4f  peak_rss_mb %.1f",
		what, r.GOMAXPROCS, r.TuneS, r.ValidateS, r.CPUS, float64(r.AllocBytes)/1e9, peakRSSMB(ru))
	var mape []string
	for i, v := range tune.Variants() {
		mape = append(mape, fmt.Sprintf("%v %.4f%% (%d kernels)", v, r.MAPE[i], r.Kernels[i]))
	}
	rec.add("%s: MAPE %s", what, strings.Join(mape, ", "))
	rec.add("%s: rows %d  failed %d (fail_pct %.4f)  quarantined %d  digests: models %s, rows %s",
		what, r.Rows, r.Failed, 100*float64(r.Failed)/float64(max(r.Rows, 1)), len(r.Quarantined), r.ModelsDigest, r.RowsDigest)
	for _, p := range r.Problems {
		rec.add("CHECK FAILED (%s): %s", what, p)
	}
}

// runPipelineChild runs one pipeline phase inside a child process.
func runPipelineChild(mode string) error {
	var rep *pipelineReport
	var err error
	switch mode {
	case "setup":
		return childSetup()
	case "job":
		rep, err = childJob()
	case "traced":
		rep, err = childTraced()
	default:
		return fmt.Errorf("unknown child phase %q", mode)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// childSetup builds what a session builds before it tunes — the testbench
// and the Table 2 and Table 4 kernel suites — and reports ready.
func childSetup() error {
	arch := accelwattch.Volta()
	if _, err := accelwattch.NewWorkerTestbench(arch, accelwattch.Quick, accelwattch.SessionOptions{Workers: 1}); err != nil {
		return err
	}
	if _, err := ubench.Suite(arch, accelwattch.Quick); err != nil {
		return err
	}
	if _, err := workloads.ValidationSuite(arch, accelwattch.Quick); err != nil {
		return err
	}
	_, err := fmt.Println("ready")
	return err
}

// childJob is the untraced job: what `awvalidate -workers 1` does before it
// prints Figure 7 — a Quick Volta tune on one engine worker with a clean
// meter and an empty artifact store, then the four-variant validation.
func childJob() (*pipelineReport, error) {
	rep := &pipelineReport{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	cpu0, rt0 := selfCPU(), readRuntime()
	start := time.Now()
	sess, err := accelwattch.NewSessionWithOptions(accelwattch.Volta(), accelwattch.Quick,
		accelwattch.SessionOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	rep.TuneS = time.Since(start).Seconds()
	start = time.Now()
	all, err := sess.ValidateAll()
	if err != nil {
		return nil, err
	}
	rep.ValidateS = time.Since(start).Seconds()
	rep.CPUS = (selfCPU() - cpu0).Seconds()
	rep.AllocBytes = readRuntime().allocBytes - rt0.allocBytes

	suite, err := sess.ValidationSuite()
	if err != nil {
		return nil, err
	}
	checkValidation(rep, suite, sess.Tuned(), all)
	return rep, nil
}

// expectedRows counts the suite kernels a variant validates (Section 6.1's
// exclusions: PTX SIM needs a PTX-compatible kernel, HW and HYBRID a
// profilable one).
func expectedRows(suite []workloads.Kernel, v tune.Variant) int {
	n := 0
	for i := range suite {
		k := &suite[i]
		switch {
		case v == tune.PTXSIM && !k.ForVariantPTX():
		case (v == tune.HW || v == tune.HYBRID) && !k.ForVariantHW():
		default:
			n++
		}
	}
	return n
}

// checkValidation checks the pipeline's outputs and digests them: every
// variant validates its full kernel set, every row is finite, and every
// breakdown sums bit-exactly to its EstimatedW. A row without a defined
// error, and a quarantined workload, count as failed operations.
func checkValidation(rep *pipelineReport, suite []workloads.Kernel, tuned *tune.Result,
	all map[tune.Variant]*eval.ValidationResult) {
	problem := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	models, rows := sha256.New(), sha256.New()
	word := func(v float64) { _ = binary.Write(rows, binary.LittleEndian, math.Float64bits(v)) }
	for i, v := range tune.Variants() {
		m := tuned.Model(v)
		if m == nil {
			problem("%v: no tuned model", v)
		} else if data, err := json.Marshal(m); err != nil {
			problem("%v: model does not serialise: %v", v, err)
		} else {
			models.Write(data)
		}
		want := expectedRows(suite, v)
		rep.Rows += want
		r := all[v]
		if r == nil {
			problem("%v: no validation result", v)
			rep.Failed += want
			continue
		}
		rep.MAPE[i], rep.Kernels[i] = r.MAPE, len(r.Kernels)
		if len(r.Kernels) != want {
			problem("%v: validated %d kernels, the suite has %d", v, len(r.Kernels), want)
			rep.Failed += max(want-len(r.Kernels), 0)
		}
		if !finite(r.MAPE) {
			problem("%v: MAPE %v", v, r.MAPE)
		}
		for _, k := range r.Kernels {
			sum := 0.0
			for _, w := range k.Breakdown.Watts {
				sum += w
				if !finite(w) {
					problem("%v/%s: non-finite component power", v, k.Name)
				}
			}
			if !finite(k.MeasuredW) || !finite(k.EstimatedW) {
				problem("%v/%s: non-finite row (measured %v, estimated %v)", v, k.Name, k.MeasuredW, k.EstimatedW)
			}
			if math.Float64bits(sum) != math.Float64bits(k.EstimatedW) {
				problem("%v/%s: breakdown sums to %v, not EstimatedW %v", v, k.Name, sum, k.EstimatedW)
			}
			if e := k.RelErrPct(); !finite(e) {
				rep.Failed++
			}
			rows.Write([]byte(v.String() + "/" + k.Name))
			word(k.MeasuredW)
			word(k.EstimatedW)
			for _, w := range k.Breakdown.Watts {
				word(w)
			}
		}
	}
	rep.Quarantined = tuned.Quarantined
	rep.Failed += len(tuned.Quarantined)
	rep.ModelsDigest = hex.EncodeToString(models.Sum(nil)[:8])
	rep.RowsDigest = hex.EncodeToString(rows.Sum(nil)[:8])
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
