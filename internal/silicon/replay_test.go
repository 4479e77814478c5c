package silicon

import (
	"fmt"
	"math"
	"math/bits"
	"reflect"
	"sync"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/emu"
	"accelwattch/internal/isa"
	"accelwattch/internal/trace"
)

// replayMemSrc exercises every latency class: global loads that miss L1
// and L2 (CTA 0) or miss L1 and hit L2 (later CTAs, which read the same
// lines), sector fills, L1 hits, a warp-wide load that misses a line and
// fills its other sectors, a load whose even lanes hit and odd lanes fill
// (an L1 hit and a scaled fill in one record), stores, atomics, shared
// loads with 32, 2 and 1 bank passes, texture and constant loads,
// NANOSLEEP, and a guarded load whose mask is empty in all but each CTA's
// first warp. Memory reads 0, so adding a loaded value to R2 keeps the
// addresses while it chains each load's latency into the warp's time.
const replayMemSrc = `
.kernel replay_mem
.grid 16
.block 128
.shared 16384
.param 0x1000 64
    S2R R1, tid.x
    S2R R13, gtid
    SHL R2, R1, 7
    SHL R14, R13, 7
    SHL R10, R1, 7
    SHL R15, R1, 2
    SHL R18, R1, 3
    SHL R21, R1, 2
    AND R23, R1, 1
    IMUL R23, R23, 96
    MOVI R3, 6
    ISETP.lt P1, R1, 32
loop:
    LDG R4, [R2+0]
    LDG R5, [R2+32]
    LDG R6, [R2+0]
    IADD R2, R2, R6
    IADD R24, R2, R23
    LDG R25, [R24+0]
    IADD R2, R2, R25
    LDG R22, [R21+2097152]
    IADD R2, R2, R22
    IADD R7, R4, R5
    STG [R14+64], R7
    IADD R14, R14, 262144
    ATOMG R9, [R1+1048576], R7
    IADD R2, R2, R9
    LDS R11, [R10+0]
    LDS R19, [R18+0]
    STS [R15+0], R11
    LDC R8, [R1+0]
    TEX R12, [R2+0]
@P1 LDG R16, [R2+64]
    IADD R17, R16, R12
    NANOSLEEP 50
    ISETP.gt P0, R3, 1
    IADD R3, R3, -1
@P0 BRA loop
    EXIT
`

// replayStoresSrc streams stores through 12 MiB, twice the Volta L2, so
// dirty lines are written back, with a load per store that misses L1.
const replayStoresSrc = `
.kernel replay_stores
.grid 32
.block 256
    S2R R1, gtid
    SHL R2, R1, 7
    MOVI R3, 12
loop:
    STG [R2+0], R3
    LDG R4, [R2+32]
    IADD R5, R4, R3
    IADD R2, R2, 1048576
    ISETP.gt P0, R3, 1
    IADD R3, R3, -1
@P0 BRA loop
    EXIT
`

// replayCrossoverSrc puts the low-clock crossover on the critical path.
// CTA 0 loads all four sectors of its lanes' lines, which leaves them in
// the L2. CTA 1, on another SM, then chains three loads whose even lanes
// hit a resident sector and whose odd lanes fill the next one from the
// L2: below 361 MHz each exposes the unscaled L1 hit, not the scaled
// fill, and CTA 1's chain is the kernel's warp time.
const replayCrossoverSrc = `
.kernel replay_crossover
.grid 2
.block 32
    S2R R1, tid.x
    S2R R30, ctaid.x
    SHL R2, R1, 7
    ISETP.eq P2, R30, 0
@P2 BRA preload
    AND R23, R1, 1
    SHL R23, R23, 5
    MOV R26, R23
    LDG R4, [R2+0]
    IADD R2, R2, R4
    MOVI R3, 3
loop:
    IADD R24, R2, R23
    LDG R25, [R24+0]
    IADD R2, R2, R25
    IADD R23, R23, R26
    ISETP.gt P0, R3, 1
    IADD R3, R3, -1
@P0 BRA loop
    EXIT
preload:
    LDG R4, [R2+0]
    LDG R5, [R2+32]
    LDG R6, [R2+64]
    LDG R7, [R2+96]
    EXIT
`

func replayTrace(t *testing.T, src string) *trace.KernelTrace {
	t.Helper()
	k, err := isa.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	kt, err := emu.Run(isa.MustLower(k), emu.NewMemory())
	if err != nil {
		t.Fatal(err)
	}
	return kt
}

// smallCacheVolta shrinks Volta's caches (8 L1 sets, 24 L2 sets) so the
// small test kernels evict and write back at every level.
func smallCacheVolta() *config.Arch {
	a := config.Volta()
	a.L1KBPerSM = 4
	a.L2KB = 48
	return a
}

// oracleRun and oracleProfile are Run and Profile over the single-pass
// replay.
func oracleRun(t *testing.T, d *Device, kts ...*trace.KernelTrace) *Measurement {
	t.Helper()
	a, err := d.replayOracle(kts)
	if err != nil {
		t.Fatal(err)
	}
	return d.measurement(kts, a.footprint(), a.cycles)
}

func oracleProfile(t *testing.T, d *Device, kts ...*trace.KernelTrace) *Counters {
	t.Helper()
	a, err := d.replayOracle(kts)
	if err != nil {
		t.Fatal(err)
	}
	return profile(a.footprint(), a.cycles)
}

func (a *oracleAcct) footprint() *footprint {
	return &footprint{dynEnergyPJ: a.dynEnergyPJ, activeSMs: a.activeSMs,
		poweredLanes: a.poweredLanes, counters: a.counters}
}

// diffBits lists the fields of two structs of one type whose bits differ:
// floats by math.Float64bits, float slices element by element, integers
// by value.
func diffBits(want, got any) []string {
	w, g := reflect.ValueOf(want).Elem(), reflect.ValueOf(got).Elem()
	var diffs []string
	for i := 0; i < w.NumField(); i++ {
		name := w.Type().Field(i).Name
		wf, gf := w.Field(i), g.Field(i)
		switch wf.Kind() {
		case reflect.Float64:
			if math.Float64bits(wf.Float()) != math.Float64bits(gf.Float()) {
				diffs = append(diffs, fmt.Sprintf("%s: %v, oracle %v", name, gf.Float(), wf.Float()))
			}
		case reflect.Slice:
			ws, gs := wf.Interface().([]float64), gf.Interface().([]float64)
			if len(ws) != len(gs) {
				diffs = append(diffs, fmt.Sprintf("%s: %d values, oracle %d", name, len(gs), len(ws)))
				continue
			}
			for j := range ws {
				if math.Float64bits(ws[j]) != math.Float64bits(gs[j]) {
					diffs = append(diffs, fmt.Sprintf("%s[%d]: %v, oracle %v", name, j, gs[j], ws[j]))
					break
				}
			}
		case reflect.Int, reflect.Int64:
			if wf.Int() != gf.Int() {
				diffs = append(diffs, fmt.Sprintf("%s: %d, oracle %d", name, gf.Int(), wf.Int()))
			}
		case reflect.Uint64:
			if wf.Uint() != gf.Uint() {
				diffs = append(diffs, fmt.Sprintf("%s: %d, oracle %d", name, gf.Uint(), wf.Uint()))
			}
		default:
			panic("diffBits: unhandled field " + name)
		}
	}
	return diffs
}

func expectBits(t *testing.T, what string, want, got any) {
	t.Helper()
	for _, d := range diffBits(want, got) {
		t.Errorf("%s: %s", what, d)
	}
}

// replayClocks are the oracle test's clocks: the two lowest, where the
// unscaled L1 hit outlasts a scaled sector fill, the base and the maximum.
func replayClocks(arch *config.Arch) []float64 {
	return []float64{135, 200, arch.BaseClockMHz, arch.MaxClockMHz}
}

func setClock(t *testing.T, d *Device, mhz float64) {
	t.Helper()
	if err := d.SetClock(mhz); err != nil {
		t.Fatal(err)
	}
}

// Every Measurement and Counters field of the two-pass replay must match
// the single-pass oracle bit for bit, at every clock and in every order a
// caller can reach the memo: the same clock read twice, Profile before Run
// and Run before Profile, a replica reading what its original memoized,
// and a two-trace run, which bypasses the memo.
func TestReplayMatchesOracle(t *testing.T) {
	for _, arch := range []*config.Arch{config.Volta(), smallCacheVolta()} {
		arch := arch
		t.Run(fmt.Sprintf("L2=%dKB", arch.L2KB), func(t *testing.T) {
			mem := replayTrace(t, replayMemSrc)
			stores := replayTrace(t, replayStoresSrc)
			cross := replayTrace(t, replayCrossoverSrc)
			runFirst := mustNewDevice(t, arch)
			for _, mhz := range replayClocks(arch) {
				ref := mustNewDevice(t, arch)
				setClock(t, ref, mhz)
				for _, kts := range [][]*trace.KernelTrace{{mem}, {stores}, {cross}, {mem, stores}} {
					name := fmt.Sprintf("%.0f MHz, %d trace(s) from %s", mhz, len(kts), kts[0].Kernel.Name)
					wantM := oracleRun(t, ref, kts...)
					wantC := oracleProfile(t, ref, kts...)

					setClock(t, runFirst, mhz)
					for i := 0; i < 2; i++ {
						m, err := runFirst.Run(kts...)
						if err != nil {
							t.Fatal(err)
						}
						expectBits(t, fmt.Sprintf("%s: Run #%d", name, i+1), wantM, m)
					}
					c, err := runFirst.Profile(kts...)
					if err != nil {
						t.Fatal(err)
					}
					expectBits(t, name+": Profile after Run", wantC, c)

					profFirst := mustNewDevice(t, arch)
					setClock(t, profFirst, mhz)
					c, err = profFirst.Profile(kts...)
					if err != nil {
						t.Fatal(err)
					}
					expectBits(t, name+": Profile first", wantC, c)
					m, err := profFirst.Run(kts...)
					if err != nil {
						t.Fatal(err)
					}
					expectBits(t, name+": Run after Profile", wantM, m)

					rep := runFirst.Replica()
					setClock(t, rep, mhz)
					m, err = rep.Run(kts...)
					if err != nil {
						t.Fatal(err)
					}
					expectBits(t, name+": replica Run", wantM, m)
				}
			}
		})
	}
}

// Between them, the oracle test's kernels and architectures must reach
// every latency class and write back from the L2 on both, or a broken
// class could pass unseen.
func TestReplayKernelsCoverLatencyClasses(t *testing.T) {
	mem := replayTrace(t, replayMemSrc)
	stores := replayTrace(t, replayStoresSrc)
	var outcomes uint8
	seen := map[uint8]bool{}
	for _, arch := range []*config.Arch{config.Volta(), smallCacheVolta()} {
		fp := mustNewDevice(t, arch).footprint([]*trace.KernelTrace{mem, stores})
		for _, c := range fp.classes {
			seen[c] = true
			if c&classGlobal != 0 {
				outcomes |= c &^ classGlobal
			}
		}
		if fp.counters.DramWrites == 0 {
			t.Errorf("L2 of %d KB: no writebacks", arch.L2KB)
		}
	}
	if want := uint8(1<<numOutcomes - 1); outcomes != want {
		t.Errorf("sector outcomes seen %07b, want %07b", outcomes, want)
	}
	// The records whose latency crosses over at low clocks: an unscaled
	// L1 hit next to a scaled fill.
	cross := mustNewDevice(t, config.Volta()).footprint([]*trace.KernelTrace{replayTrace(t, replayCrossoverSrc)})
	n := 0
	for _, c := range cross.classes {
		if c == classGlobal|outL1Hit|outFillL2Hit {
			n++
		}
	}
	if n == 0 {
		t.Error("replay_crossover has no record that saw an L1 hit and a fill served by the L2")
	}
	for _, c := range []uint8{classOp, 1, 2, 32, classConst, classTex} {
		if !seen[c] {
			t.Errorf("no memory record of latency class %d", c)
		}
	}
	var empty, sleeps int
	for _, kt := range []*trace.KernelTrace{mem, stores} {
		for wi := range kt.Warps {
			for _, r := range kt.Warps[wi].Recs {
				in := kt.Instr(r)
				if in.Op.Info().IsMem && bits.OnesCount32(r.Mask) == 0 {
					empty++
				}
				if in.Op == isa.OpNANOSLEEP {
					sleeps++
				}
			}
		}
	}
	if empty == 0 || sleeps == 0 {
		t.Errorf("%d memory records with an empty mask, %d NANOSLEEPs; want some of each", empty, sleeps)
	}
}

// scaledBaseLatencies is the shortcut the latency classes exist to avoid:
// each record's latency taken at the base clock and scaled to this one.
// Even with a record that saw only L1 hits left unscaled, a record that
// saw an L1 hit and a fill gets the fill's scaled latency, though below
// 361 MHz the unscaled hit outlasts it.
func scaledBaseLatencies(d *Device) *latencies {
	lb := d.Replica().latencies() // a replica starts at the base clock
	lt := d.latencies()
	for c := classGlobal; c < len(lt.class); c++ {
		if c != classGlobal|outL1Hit {
			lt.class[c] = lb.class[c] * lt.scale
		}
	}
	return lt
}

// The oracle comparison must catch a replay that scales one base-clock
// latency per record: at 135 and 200 MHz replay_crossover's chain runs
// through records that saw an L1 hit and a fill, so its cycles, runtime
// and power differ. At the base clock the shortcut is exact.
func TestReplayOracleRejectsScaledBaseLatency(t *testing.T) {
	arch := config.Volta()
	kts := []*trace.KernelTrace{replayTrace(t, replayCrossoverSrc)}
	for _, mhz := range []float64{135, 200, arch.BaseClockMHz} {
		d := mustNewDevice(t, arch)
		setClock(t, d, mhz)
		want := oracleRun(t, d, kts...)
		fp := d.footprint(kts)
		got := d.measurement(kts, fp, d.cycles(fp, d.warpTime(kts, fp.classes, scaledBaseLatencies(d))))
		diffs := diffBits(want, got)
		switch {
		case mhz == arch.BaseClockMHz && len(diffs) > 0:
			t.Errorf("%.0f MHz: scaling by 1 changed the measurement: %v", mhz, diffs)
		case mhz != arch.BaseClockMHz && len(diffs) == 0:
			t.Errorf("%.0f MHz: a scaled base-clock latency per record matches the oracle; the test cannot tell it from the latency classes", mhz)
		}
	}
}

// Replicas share the memo across goroutines: each reads the same traces at
// the oracle test's clocks, in its own order, while the others fill the
// memo, and every reading must match the oracle.
func TestReplayMemoSharedByReplicas(t *testing.T) {
	arch := smallCacheVolta()
	kts := []*trace.KernelTrace{replayTrace(t, replayMemSrc), replayTrace(t, replayStoresSrc),
		replayTrace(t, replayCrossoverSrc)}
	clocks := replayClocks(arch)
	type key struct{ trace, clock int }
	wantM := map[key]*Measurement{}
	wantC := map[key]*Counters{}
	ref := mustNewDevice(t, arch)
	for ti, kt := range kts {
		for ci, mhz := range clocks {
			setClock(t, ref, mhz)
			wantM[key{ti, ci}] = oracleRun(t, ref, kt)
			wantC[key{ti, ci}] = oracleProfile(t, ref, kt)
		}
	}
	primary := mustNewDevice(t, arch)
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		d := primary.Replica()
		wg.Add(1)
		go func(w int, d *Device) {
			defer wg.Done()
			for i := 0; i < len(kts)*len(clocks); i++ {
				j := (i + w*3) % (len(kts) * len(clocks))
				k := key{j % len(kts), j / len(kts)}
				if err := d.SetClock(clocks[k.clock]); err != nil {
					t.Error(err)
					return
				}
				m, err := d.Run(kts[k.trace])
				if err != nil {
					t.Error(err)
					return
				}
				c, err := d.Profile(kts[k.trace])
				if err != nil {
					t.Error(err)
					return
				}
				what := fmt.Sprintf("worker %d, %s at %.0f MHz", w, kts[k.trace].Kernel.Name, clocks[k.clock])
				expectBits(t, what+": Run", wantM[k], m)
				expectBits(t, what+": Profile", wantC[k], c)
			}
		}(w, d)
	}
	wg.Wait()
}
