package accelwattch

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func TestStockArchitectures(t *testing.T) {
	if Volta().NumSMs != 80 || Pascal().NumSMs != 28 || Turing().NumSMs != 34 {
		t.Error("stock architecture SM counts wrong")
	}
}

func TestAssembleFacade(t *testing.T) {
	k, err := Assemble(".kernel k\nIADD R1, R1, 1\nEXIT\n")
	if err != nil {
		t.Fatal(err)
	}
	if k.Name != "k" {
		t.Error("assembly lost the kernel name")
	}
	if _, err := Assemble("garbage"); err == nil {
		t.Error("bad assembly accepted")
	}
}

func TestSessionAccessors(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes a session")
	}
	sess, err := SharedSession(Volta(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Arch().Name != "volta-gv100" {
		t.Error("Arch accessor wrong")
	}
	if sess.Tuned() == nil || sess.Testbench() == nil {
		t.Error("nil accessors")
	}
	for _, v := range []Variant{SASSSIM, PTXSIM, HW, HYBRID} {
		m := sess.Model(v)
		if m == nil || m.ConstW <= 0 {
			t.Errorf("%v: bad model", v)
		}
	}
	suite, err := sess.ValidationSuite()
	if err != nil || len(suite) != 26 {
		t.Errorf("validation suite: %d kernels, err %v", len(suite), err)
	}
}

func TestSharedSessionCaches(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes a session")
	}
	s1, err := SharedSession(Volta(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := SharedSession(Volta(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("SharedSession must return the cached session")
	}
}

func TestEstimateKernelFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes a session")
	}
	sess, err := SharedSession(Volta(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	k, err := Assemble(strings.TrimSpace(`
.kernel facade_test
.grid 80
.block 256
    S2R R1, gtid
    MOVI R2, 8
loop:
    FFMA R3, R3, R3, R3
    IADD R2, R2, -1
    ISETP.gt P0, R2, 0
@P0 BRA loop
    EXIT
`))
	if err != nil {
		t.Fatal(err)
	}
	bd, err := sess.EstimateKernel(k, nil, SASSSIM)
	if err != nil {
		t.Fatal(err)
	}
	if total := bd.Total(); total < 40 || total > 260 {
		t.Errorf("kernel power %.1f W implausible for GV100", total)
	}
	series, avg, err := sess.PowerTrace(k, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 || avg <= 0 {
		t.Error("empty power trace")
	}
}

// TestEstimateKernelOwnEntries: a caller's kernel gets its own entries in
// the session's artifact store, which tuning has filled with every
// microbenchmark under its name. A kernel named like a microbenchmark
// estimates what its renamed twin does, under a simulated and a hardware
// variant and in its power trace, and a second, different kernel with a
// name the session has seen gets its own answer.
func TestEstimateKernelOwnEntries(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes a session")
	}
	sess, err := SharedSession(Volta(), Quick)
	if err != nil {
		t.Fatal(err)
	}
	type answer struct {
		sassW, hwW, avgW float64
		series           []float64
	}
	run := func(name string, trips int) answer {
		t.Helper()
		k, err := Assemble(fmt.Sprintf(`.kernel %s
.grid 80
.block 256
    S2R R1, gtid
    MOVI R2, %d
loop:
    FFMA R3, R3, R3, R3
    IADD R2, R2, -1
    ISETP.gt P0, R2, 0
@P0 BRA loop
    EXIT`, name, trips))
		if err != nil {
			t.Fatal(err)
		}
		var a answer
		for _, c := range []struct {
			v Variant
			w *float64
		}{{SASSSIM, &a.sassW}, {HW, &a.hwW}} {
			bd, err := sess.EstimateKernel(k, nil, c.v)
			if err != nil {
				t.Fatalf("%s under %v: %v", name, c.v, err)
			}
			*c.w = bd.Total()
		}
		if a.series, a.avgW, err = sess.PowerTrace(k, nil); err != nil {
			t.Fatalf("%s power trace: %v", name, err)
		}
		return a
	}
	same := func(a, b answer) bool {
		return a.sassW == b.sassW && a.hwW == b.hwW && a.avgW == b.avgW && slices.Equal(a.series, b.series)
	}

	want := run("own_kernel", 8)
	for _, name := range []string{"int_add", "dvfs_int_add"} {
		if got := run(name, 8); !same(got, want) {
			t.Errorf("kernel named %s: SASS_SIM %.3f W, HW %.3f W, trace avg %.3f W; its renamed twin: %.3f, %.3f, %.3f W",
				name, got.sassW, got.hwW, got.avgW, want.sassW, want.hwW, want.avgW)
		}
	}
	other := run("own_kernel", 32)
	if other.sassW == want.sassW || other.hwW == want.hwW || slices.Equal(other.series, want.series) {
		t.Errorf("a second own_kernel with 4x the trips answered SASS_SIM %.3f W, HW %.3f W, %d trace windows: the first one's %.3f, %.3f W, %d windows",
			other.sassW, other.hwW, len(other.series), want.sassW, want.hwW, len(want.series))
	}
}

func TestSessionWithFaultOptions(t *testing.T) {
	if testing.Short() {
		t.Skip("tunes a session")
	}
	tiny := Scale{Iters: 2, Unroll: 1, WarpsPerCTA: 2}
	prof, err := NamedFaultProfile("noisy", 42)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := NewSessionWithOptions(Volta(), tiny, SessionOptions{Faults: &prof})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := sess.FaultStats()
	if !ok || st.Reads == 0 {
		t.Errorf("fault-injected session reports no meter stats: %+v ok=%v", st, ok)
	}
	if m := sess.Model(SASSSIM); m == nil || !(m.ConstW > 0) {
		t.Error("fault-injected tune produced a bad model")
	}

	// A clean session must report no fault stats and no quarantine.
	clean, err := NewSessionWithOptions(Volta(), tiny, SessionOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := clean.FaultStats(); ok {
		t.Error("clean session claims a fault-injected meter")
	}
	if q := clean.Quarantined(); len(q) != 0 {
		t.Errorf("clean session quarantined %v", q)
	}

	if _, err := NamedFaultProfile("no-such-profile", 1); err == nil {
		t.Error("unknown fault profile accepted")
	}
}
