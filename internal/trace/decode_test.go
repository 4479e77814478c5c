package trace

import (
	"strings"
	"testing"

	"accelwattch/internal/isa"
)

// sampleTrace is a small valid trace: one warp with an ALU record, an
// affine load, a listed store and the EXIT.
func sampleTrace(t *testing.T) *KernelTrace {
	t.Helper()
	b := isa.NewKernel("rt").Block(32)
	b.Op2i(isa.OpIADD, 1, 1, 4)
	b.Ld(isa.OpLDG, 2, 1, 0)
	b.St(isa.OpSTG, 1, 2, 0)
	b.Exit()
	k, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return &KernelTrace{
		Kernel: k,
		Warps: []WarpTrace{{
			CTA: 0, Warp: 0,
			Recs: []Rec{{0, 0xffff}, {1, 0xf}, {2, 0x7}, {3, 0xffffffff}},
			Mem:  []Mem{{Base: 0, Stride: 4}, {Base: 0, Listed: true}},
		}},
		Addrs: []uint64{64, 0, 4096},
	}
}

// Decode must reject malformed input with an error, never a panic: trace
// files are the framework's NVBit stand-in and arrive from disk.
func TestDecodeMalformed(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"zero-length", []byte{}},
		{"garbage", []byte("this is not a gob stream")},
		{"single byte", []byte{0x42}},
		{"nul run", make([]byte, 64)},
		{"magic only", []byte(fileMagic)},
		{"header only", []byte(fileMagic + "\x02")},
		{"header then garbage", []byte(fileMagic + "\x02garbage")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kt, err := Decode(tc.data)
			if err == nil {
				t.Fatalf("Decode(%q) accepted malformed input: %+v", tc.name, kt)
			}
		})
	}
}

func TestDecodeTruncated(t *testing.T) {
	full, err := Encode(sampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	// Every strict prefix must fail cleanly, not panic or return a
	// half-filled trace as success.
	for cut := 1; cut < len(full); cut += 7 {
		if _, err := Decode(full[:cut]); err == nil {
			t.Fatalf("truncated trace (%d/%d bytes) decoded without error", cut, len(full))
		}
	}
	if _, err := Decode(append(full, 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecodeRoundTrip(t *testing.T) {
	in := sampleTrace(t)
	data, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Warps) != 1 || len(out.Warps[0].Recs) != 4 || out.Kernel.Name != "rt" {
		t.Fatalf("round trip lost records: %+v", out)
	}
	w := &out.Warps[0]
	if acc := out.Access(w.Mem[1], w.Recs[2].Mask); acc.Len() != 3 || acc.Lane(2) != 4096 {
		t.Fatalf("round trip corrupted listed addresses: %+v", acc)
	}
	if acc := out.Access(w.Mem[0], w.Recs[1].Mask); acc.Lane(3) != 12 {
		t.Fatalf("round trip corrupted affine addresses: %+v", acc)
	}
}

// Decode validates what it decodes: each case encodes a trace that no
// consumer could replay and must be refused with the named reason.
func TestDecodeRejectsUnreplayable(t *testing.T) {
	cases := []struct {
		name   string
		break_ func(kt *KernelTrace)
		want   string
	}{
		{"no kernel", func(kt *KernelTrace) { kt.Kernel = nil }, "no kernel"},
		{"invalid kernel", func(kt *KernelTrace) { kt.Kernel.Code = kt.Kernel.Code[:2] }, "EXIT"},
		{"pc out of range", func(kt *KernelTrace) { kt.Warps[0].Recs[0].PC = 9 }, "outside"},
		{"negative pc", func(kt *KernelTrace) { kt.Warps[0].Recs[3].PC = -1 }, "outside"},
		{"cta out of range", func(kt *KernelTrace) { kt.Warps[0].CTA = -1 }, "CTA"},
		{"warp out of range", func(kt *KernelTrace) { kt.Warps[0].Warp = 1 }, "warp index"},
		{"missing addresses", func(kt *KernelTrace) { kt.Warps[0].Mem = kt.Warps[0].Mem[:1] }, "without addresses"},
		{"extra addresses", func(kt *KernelTrace) {
			kt.Warps[0].Mem = append(kt.Warps[0].Mem, Mem{})
		}, "address entries"},
		{"more lanes than addresses", func(kt *KernelTrace) { kt.Warps[0].Recs[2].Mask = 0xf }, "run past"},
		{"fewer lanes than addresses", func(kt *KernelTrace) { kt.Warps[0].Recs[2].Mask = 0x3 }, "listed addresses"},
		{"listed base out of order", func(kt *KernelTrace) { kt.Warps[0].Mem[1].Base = 1 }, "want 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kt := sampleTrace(t)
			tc.break_(kt)
			data, err := Encode(kt)
			if err != nil {
				t.Fatal(err)
			}
			_, err = Decode(data)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Decode error %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// A file in another format version, including the headerless gob of the
// per-lane record format, is refused with an error that says so.
func TestDecodeRejectsOtherVersions(t *testing.T) {
	data, err := Encode(sampleTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	data[len(fileMagic)] = 1
	if _, err := Decode(data); err == nil || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("version 1 file: %v", err)
	}
	if _, err := Decode(data[len(fileMagic)+1:]); err == nil || !strings.Contains(err.Error(), "not a trace file") {
		t.Fatalf("headerless gob: %v", err)
	}
}

// Summarize must tolerate empty traces — a kernel whose every lane exited
// immediately produces one.
func TestSummarizeEmptyTrace(t *testing.T) {
	s := Summarize(&KernelTrace{Kernel: &isa.Kernel{Name: "empty"}})
	if s.WarpCount != 0 || s.DynInstrs != 0 || s.AvgLanes != 0 {
		t.Fatalf("empty trace summarised as %+v", s)
	}
	// A warp with no records is likewise fine.
	s = Summarize(&KernelTrace{
		Kernel: &isa.Kernel{Name: "empty"},
		Warps:  []WarpTrace{{CTA: 0, Warp: 0}},
	})
	if s.WarpCount != 1 || s.DynInstrs != 0 {
		t.Fatalf("record-free warp summarised as %+v", s)
	}
}
