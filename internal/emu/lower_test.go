package emu_test

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/emu"
	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
	"accelwattch/internal/ubench"
	"accelwattch/internal/workloads"
)

// launch is one kernel the pipeline traces, with its memory setup.
type launch struct {
	kernel *isa.Kernel
	setup  func(*emu.Memory)
}

func (l launch) run(t *testing.T, k *isa.Kernel) (*trace.KernelTrace, error) {
	t.Helper()
	mem := emu.NewMemory()
	if l.setup != nil {
		l.setup(mem)
	}
	return emu.Run(k, mem)
}

// quickLaunches lists every kernel a Quick Volta tune + validate and
// awvalidate trace: the DVFS, divergence and occupancy sweeps, the Table 2
// microbenchmarks, the Table 4 suite with its memory setups, DeepBench and
// the inference pack (whose parked scenarios execute nothing).
func quickLaunches(t *testing.T) []launch {
	t.Helper()
	arch, sc := config.Volta(), ubench.Quick
	var out []launch
	bench := func(b ubench.Bench) { out = append(out, launch{b.Kernel, b.SetupMem}) }
	kernel := func(k workloads.Kernel) {
		if k.Kernel != nil {
			out = append(out, launch{k.Kernel, k.Setup})
		}
	}
	for _, b := range ubench.DVFSSuite(arch, sc) {
		bench(b)
	}
	for _, mix := range ubench.DivergenceMixes(arch) {
		for _, y := range []int{1, 4, 8, 12, 16, 20, 24, 28, 32} {
			bench(ubench.DivergenceBench(arch, sc, mix, y))
		}
	}
	n := arch.NumSMs
	for _, k := range []int{n, n / 8, n / 4, n / 2, 3 * n / 4} {
		bench(ubench.OccupancyBench(arch, sc, k))
		bench(ubench.OccupancyBenchFP(arch, sc, k))
	}
	for _, b := range ubench.MustSuite(arch, sc) {
		bench(b)
	}
	for _, k := range workloads.MustValidationSuite(arch, sc) {
		kernel(k)
	}
	for _, db := range workloads.DeepBenchSuite(arch, sc) {
		for _, k := range db.Kernels {
			kernel(k)
		}
	}
	for _, k := range workloads.MustInferencePack(arch, sc) {
		kernel(k)
	}
	return out
}

// sameTrace reports how got differs from want, the trace Run gave: in its
// kernel, its warps (compared record for record and entry for entry), its
// arena or the shape of its record streams.
func sameTrace(got, want *trace.KernelTrace) error {
	if !reflect.DeepEqual(got.Kernel, want.Kernel) {
		return fmt.Errorf("kernels differ")
	}
	if !slices.Equal(got.Addrs, want.Addrs) {
		return fmt.Errorf("arenas differ: %d addresses, want %d", len(got.Addrs), len(want.Addrs))
	}
	if len(got.Warps) != len(want.Warps) {
		return fmt.Errorf("%d warps, want %d", len(got.Warps), len(want.Warps))
	}
	type pair struct{ got, want *trace.Rec }
	equal := map[pair]bool{}
	for i := range got.Warps {
		g, w := &got.Warps[i], &want.Warps[i]
		if g.CTA != w.CTA || g.Warp != w.Warp || len(g.Recs) != len(w.Recs) {
			return fmt.Errorf("warp %d is (%d,%d) with %d records, want (%d,%d) with %d",
				i, g.CTA, g.Warp, len(g.Recs), w.CTA, w.Warp, len(w.Recs))
		}
		if len(g.Recs) > 0 {
			p := pair{&g.Recs[0], &w.Recs[0]}
			eq, ok := equal[p]
			if !ok {
				eq = slices.Equal(g.Recs, w.Recs)
				equal[p] = eq
			}
			if !eq {
				return fmt.Errorf("warp %d: records differ", i)
			}
		}
		if !slices.Equal(g.Mem, w.Mem) {
			return fmt.Errorf("warp %d: address entries differ", i)
		}
	}
	gs, ws := got.Streams(), want.Streams()
	if len(gs) != len(ws) {
		return fmt.Errorf("%d streams, want %d", len(gs), len(ws))
	}
	for i := range gs {
		if gs[i].Warps != ws[i].Warps || len(gs[i].Recs) != len(ws[i].Recs) {
			return fmt.Errorf("stream %d: %d warps of %d records, want %d of %d",
				i, gs[i].Warps, len(gs[i].Recs), ws[i].Warps, len(ws[i].Recs))
		}
	}
	return nil
}

// TestLowerMatchesEmu checks Lower against its oracle, Run at SASS, on
// every kernel the pipeline traces at Quick scale: the lowered trace must
// equal Run's in kernel, warps, arena and stream shapes, validate, and
// share the PTX trace's address entries and arena.
func TestLowerMatchesEmu(t *testing.T) {
	if testing.Short() {
		t.Skip("emulates every Quick kernel at both ISA levels")
	}
	launches := quickLaunches(t)
	expanded := 0
	for _, l := range launches {
		ptx, err := l.run(t, l.kernel)
		if err != nil {
			t.Fatalf("%s (PTX): %v", l.kernel.Name, err)
		}
		want, err := l.run(t, isa.MustLower(l.kernel))
		if err != nil {
			t.Fatalf("%s (SASS): %v", l.kernel.Name, err)
		}
		got, err := emu.Lower(ptx)
		if err != nil {
			t.Fatalf("%s: Lower: %v", l.kernel.Name, err)
		}
		if err := sameTrace(got, want); err != nil {
			t.Errorf("%s: lowered trace: %v", l.kernel.Name, err)
			continue
		}
		if err := got.Validate(); err != nil {
			t.Errorf("%s: lowered trace: %v", l.kernel.Name, err)
		}
		if len(got.Addrs) > 0 && &got.Addrs[0] != &ptx.Addrs[0] {
			t.Errorf("%s: the lowered trace copies the arena", l.kernel.Name)
		}
		for i := range got.Warps {
			if m := got.Warps[i].Mem; len(m) > 0 && &m[0] != &ptx.Warps[i].Mem[0] {
				t.Errorf("%s: warp %d copies its address entries", l.kernel.Name, i)
				break
			}
		}
		if len(got.Kernel.Code) != len(ptx.Kernel.Code) {
			expanded++
		} else if &got.Warps[0] != &ptx.Warps[0] {
			t.Errorf("%s: no opcode expands, yet the lowered trace copies the warps", l.kernel.Name)
		}
	}
	t.Logf("%d kernels, %d with expanding opcodes", len(launches), expanded)
	if len(launches) < 240 || expanded == 0 {
		t.Errorf("%d kernels, %d with expanding opcodes: the list lost its suites", len(launches), expanded)
	}
}

// budgetLoop assembles a one-CTA kernel whose warps run iters iterations
// of body, each ending at a barrier.
func budgetLoop(t *testing.T, threads, iters int, body string) *isa.Kernel {
	t.Helper()
	k, err := isa.Assemble(fmt.Sprintf(`.kernel lower_budget
.block %d
    S2R R1, warpid
    MOVI R3, %d
    MOVI R5, 7
loop:
%s
    BAR
    IADD R3, R3, -1
    ISETP.gt P0, R3, 0
@P0 BRA loop
    EXIT
`, threads, iters, body))
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestLowerBudget drives kernels that keep within the record bounds at PTX
// and exceed them at SASS. Lower must fail with Run's error at SASS, which
// depends on the order Run executes warps between barriers: in warp order
// the first warp would be the one to exceed MaxDynInstrsPerWarp in both
// cases.
func TestLowerBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs traces up to their budgets")
	}
	cases := []struct {
		name   string
		kernel *isa.Kernel
		budget bool
	}{{
		// Warp 0 runs 7 PTX and 11 SASS records an iteration, warp 1 runs
		// 8 and 13, so warp 1 passes MaxDynInstrsPerWarp first.
		name: "per_warp", budget: false,
		kernel: budgetLoop(t, 64, 450000, `    ISETP.eq P1, R1, 0
@P1 BRA w0
    REM.S32 R4, R3, R5
    BRA join
w0:
    DIV.S32 R4, R3, R5
join:`),
	}, {
		// Five warps each run 7 PTX and 22 SASS records an iteration:
		// 7.0 M records at PTX, and the launch passes MaxTraceRecords at
		// SASS before any warp passes MaxDynInstrsPerWarp.
		name: "records", budget: true,
		kernel: budgetLoop(t, 160, 200000, `    REM.S32 R4, R3, R5
    REM.S32 R6, R3, R5
    REM.S32 R7, R3, R5`),
	}}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ptx, err := emu.Run(c.kernel, nil)
			if err != nil {
				t.Fatalf("PTX: %v", err)
			}
			_, want := emu.Run(isa.MustLower(c.kernel), nil)
			if want == nil || errors.Is(want, emu.ErrTraceBudget) != c.budget {
				t.Fatalf("Run at SASS: %v, want an error with ErrTraceBudget %v", want, c.budget)
			}
			_, got := emu.Lower(ptx)
			if got == nil || got.Error() != want.Error() || errors.Is(got, emu.ErrTraceBudget) != c.budget {
				t.Errorf("Lower: %v, want %v", got, want)
			}
		})
	}
}
