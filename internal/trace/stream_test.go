package trace_test

import (
	"reflect"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/emu"
	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
	"accelwattch/internal/trace/tracetest"
	"accelwattch/internal/ubench"
	"accelwattch/internal/workloads"
)

// Streams groups warps by the slice their records are, not by the records'
// values: a prefix of a stream, an equal copy and an equal run at another
// offset are streams of their own, and warps without records are skipped.
func TestStreams(t *testing.T) {
	recs := []trace.Rec{{PC: 0, Mask: 1}, {PC: 1, Mask: 3}, {PC: 2, Mask: 7}, {PC: 0, Mask: 1}, {PC: 1, Mask: 3}}
	a := recs[:3]
	copyA := append([]trace.Rec(nil), a...)
	kt := &trace.KernelTrace{}
	for _, r := range [][]trace.Rec{a, copyA, a, recs[:2], nil, recs[3:], a} {
		kt.Warps = append(kt.Warps, trace.WarpTrace{Recs: r})
	}
	want := []trace.Stream{{Recs: a, Warps: 3}, {Recs: copyA, Warps: 1}, {Recs: recs[:2], Warps: 1}, {Recs: recs[3:], Warps: 1}}
	got := kt.Streams()
	if len(got) != len(want) {
		t.Fatalf("%d streams, want %d: %v", len(got), len(want), got)
	}
	for i := range want {
		if &got[i].Recs[0] != &want[i].Recs[0] || len(got[i].Recs) != len(want[i].Recs) || got[i].Warps != want[i].Warps {
			t.Errorf("stream %d: %d records of %d warps at %p, want %d of %d at %p", i,
				len(got[i].Recs), got[i].Warps, &got[i].Recs[0], len(want[i].Recs), want[i].Warps, &want[i].Recs[0])
		}
	}
}

// censusKernels are Quick validation kernels whose traces share records:
// ALU work, atomics, shared memory behind barriers and divergent pointer
// chasing.
var censusKernels = []string{"binOpt_K1", "histo_K1", "walsh_K1", "b+tree_K1"}

// Summarize must count a trace whose warps share records as a walk over
// every warp's records counts it, and the same for a copy of the trace in
// which no warp shares its records.
func TestSummarizeMatchesWalk(t *testing.T) {
	suite, err := workloads.ValidationSuite(config.Volta(), ubench.Quick)
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]workloads.Kernel, len(suite))
	for _, k := range suite {
		byName[k.Name] = k
	}
	for _, name := range censusKernels {
		k, ok := byName[name]
		if !ok {
			t.Fatalf("no kernel %s in the Quick suite", name)
		}
		for _, level := range []isa.Level{isa.PTX, isa.SASS} {
			kk, err := isa.ForLevel(k.Kernel, level)
			if err != nil {
				t.Fatal(err)
			}
			mem := emu.NewMemory()
			if k.Setup != nil {
				k.Setup(mem)
			}
			kt, err := emu.Run(kk, mem)
			if err != nil {
				t.Fatal(err)
			}
			if n := len(kt.Streams()); n >= len(kt.Warps) {
				t.Errorf("%s (%v): %d streams for %d warps, want sharing", name, level, n, len(kt.Warps))
			}
			unshared := tracetest.Unshared(kt)
			if n := len(unshared.Streams()); n != len(kt.Warps) {
				t.Errorf("%s (%v) unshared: %d streams for %d warps", name, level, n, len(kt.Warps))
			}
			want, _ := tracetest.Walk(kt)
			if got := trace.Summarize(kt); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (%v): Summarize %+v, warp walk %+v", name, level, got, want)
			}
			if got := trace.Summarize(unshared); !reflect.DeepEqual(got, want) {
				t.Errorf("%s (%v) unshared: Summarize %+v, warp walk %+v", name, level, got, want)
			}
		}
	}
}
