package isa

import (
	"strings"
	"testing"
)

func TestOpInfoComplete(t *testing.T) {
	for op := Op(1); int(op) < NumOps; op++ {
		info := op.Info()
		if info.Name == "" {
			t.Errorf("opcode %d has no metadata", op)
			continue
		}
		if info.Unit == UnitNone {
			t.Errorf("%s has no functional unit", info.Name)
		}
		if info.WritesReg && info.WritesPred {
			t.Errorf("%s cannot write both a register and a predicate", info.Name)
		}
	}
}

func TestOpInvalidHasNoInfo(t *testing.T) {
	if OpInvalid.Info().Name != "" {
		t.Error("OpInvalid must have empty metadata")
	}
	if Op(255).Info().Name != "" {
		t.Error("out-of-range opcode must have empty metadata")
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := Op(1); int(op) < NumOps; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v; want %v", op.String(), got, ok, op)
		}
	}
	if _, ok := OpByName("BOGUS"); ok {
		t.Error("OpByName accepted an unknown mnemonic")
	}
}

func TestMemOpsHaveSpaces(t *testing.T) {
	for op := Op(1); int(op) < NumOps; op++ {
		info := op.Info()
		if info.IsMem && spaceOf(op) == SpaceNone {
			t.Errorf("%s is a memory op without a space", info.Name)
		}
		if !info.IsMem && spaceOf(op) != SpaceNone {
			t.Errorf("%s is not a memory op but has a space", info.Name)
		}
	}
}

func TestDim3Count(t *testing.T) {
	cases := []struct {
		d    Dim3
		want int
	}{
		{Dim3{}, 1},
		{Dim3{X: 5}, 5},
		{Dim3{X: 2, Y: 3}, 6},
		{Dim3{X: 2, Y: 3, Z: 4}, 24},
	}
	for _, c := range cases {
		if got := c.d.Count(); got != c.want {
			t.Errorf("Count(%+v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func buildTestKernel(t *testing.T) *Kernel {
	t.Helper()
	b := NewKernel("test").Grid(2).Block(64)
	b.S2R(1, SRegTIDX)
	b.MovI(2, 10)
	b.Label("loop")
	b.Op2(OpIADD, 3, 3, 1)
	b.Op2i(OpIADD, 2, 2, -1)
	b.SetPi(OpISETP, 0, CmpGT, 2, 0)
	b.Bra("loop").Guard(0)
	b.Exit()
	return b.MustBuild()
}

func TestBuilderLabels(t *testing.T) {
	k := buildTestKernel(t)
	var bra *Instr
	for i := range k.Code {
		if k.Code[i].Op == OpBRA {
			bra = &k.Code[i]
		}
	}
	if bra == nil {
		t.Fatal("no branch emitted")
	}
	if k.Code[bra.Target].Op != OpIADD {
		t.Errorf("branch targets %v, want the loop head IADD", k.Code[bra.Target].Op)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewKernel("bad").Block(32)
	b.Bra("nowhere")
	b.Exit()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Errorf("want undefined-label error, got %v", err)
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewKernel("bad").Block(32)
	b.Label("x")
	b.Label("x")
	b.Exit()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate label") {
		t.Errorf("want duplicate-label error, got %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Kernel { return buildTestKernel(t) }
	cases := []struct {
		name   string
		mutate func(*Kernel)
	}{
		{"no name", func(k *Kernel) { k.Name = "" }},
		{"no code", func(k *Kernel) { k.Code = nil }},
		{"no exit", func(k *Kernel) { k.Code = k.Code[:len(k.Code)-1] }},
		{"zero grid", func(k *Kernel) { k.Grid = Dim3{}; k.Grid.X = 0; k.Grid = Dim3{X: 0, Y: 0, Z: 0}; k.Grid.X = -1 }},
		{"huge block", func(k *Kernel) { k.Block = Dim3{X: 2048} }},
		{"bad branch target", func(k *Kernel) {
			for i := range k.Code {
				if k.Code[i].Op == OpBRA {
					k.Code[i].Target = 999
				}
			}
		}},
		{"invalid opcode", func(k *Kernel) { k.Code[0].Op = OpInvalid }},
		{"unused destination out of range", func(k *Kernel) { k.Code[len(k.Code)-1].Dst = NumRegs }},
		{"unused source out of range", func(k *Kernel) { k.Code[len(k.Code)-1].Srcs[2] = NumRegs }},
		{"exit not last", func(k *Kernel) { k.Code = append(k.Code, k.Code[0]) }},
	}
	for _, c := range cases {
		k := base()
		c.mutate(k)
		if err := k.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid kernel", c.name)
		}
	}
}

func TestValidateRejectsPTXOnlyInSASS(t *testing.T) {
	b := NewKernel("p").Block(32)
	b.Op2(OpDIVS32, 1, 2, 3)
	b.Exit()
	k := b.MustBuild()
	k.Level = SASS
	if err := k.Validate(); err == nil {
		t.Error("SASS kernel with PTX-only op must not validate")
	}
}

func TestClone(t *testing.T) {
	k := buildTestKernel(t)
	c := k.Clone()
	c.Code[0].Op = OpNOP
	c.Params = append(c.Params, 1)
	if k.Code[0].Op == OpNOP {
		t.Error("Clone shares code with the original")
	}
	if len(k.Params) == len(c.Params) {
		t.Error("Clone shares params with the original")
	}
}

func TestGuardHelpers(t *testing.T) {
	b := NewKernel("g").Block(32)
	in1 := b.Op2(OpIADD, 1, 2, 3).Guard(2)
	in2 := b.Op2(OpIADD, 1, 2, 3).GuardNot(3)
	b.Exit()
	if in1.Pred != 2 || in1.PredNeg {
		t.Errorf("Guard: got P%d neg=%v", in1.Pred, in1.PredNeg)
	}
	if in2.Pred != 3 || !in2.PredNeg {
		t.Errorf("GuardNot: got P%d neg=%v", in2.Pred, in2.PredNeg)
	}
}
