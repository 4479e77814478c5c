package obs

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestLedgerEmitAndRoundTrip(t *testing.T) {
	l := NewLedger("runabc")
	l.Emit(Event{Kind: KindMeasure, Workload: "fp32_fma", ClockMHz: 1380, PowerW: 123.5, Attempts: 2})
	l.Emit(Event{Kind: KindBreakdown, Stage: "eval/validate", Workload: "gemm", Variant: "SASS_SIM",
		PowerW: 200, MeasuredW: 198, Breakdown: map[string]float64{"alu": 12.5, "const": 32.5}})
	l.Emit(Event{Kind: KindQuarantine, Workload: "bad_bench", Reason: "2 failed operating points"})

	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	evs := l.Events()
	for i, ev := range evs {
		if ev.Seq != int64(i+1) {
			t.Errorf("event %d Seq = %d, want %d", i, ev.Seq, i+1)
		}
		if ev.RunID != "runabc" {
			t.Errorf("event %d RunID = %q", i, ev.RunID)
		}
		if ev.TimeUnixNano == 0 {
			t.Errorf("event %d has no timestamp", i)
		}
	}

	var sb strings.Builder
	if err := l.WriteJSONL(&sb); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLedger(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, evs)
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.Emit(Event{Kind: KindMeasure}) // must not panic
	r := NewRegistry()
	if r.ActiveLedger() != nil {
		t.Fatal("fresh registry must have no ledger")
	}
	r.ActiveLedger().Emit(Event{Kind: KindMeasure}) // nil chain must no-op
}

func TestLedgerDisabledRegistryHidesLedger(t *testing.T) {
	r := NewRegistry()
	l := NewLedger("x")
	r.SetLedger(l)
	if r.ActiveLedger() != l {
		t.Fatal("installed ledger not returned")
	}
	r.SetEnabled(false)
	if r.ActiveLedger() != nil {
		t.Error("disabled registry must report no active ledger")
	}
	r.SetEnabled(true)
	if r.ActiveLedger() != l {
		t.Error("re-enabling must restore the ledger")
	}
}

func TestLedgerWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ledger.jsonl")
	l := NewLedger(NewRunID())
	l.Emit(Event{Kind: KindRunStart, Detail: "volta"})
	if err := l.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadLedgerFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Kind != KindRunStart {
		t.Fatalf("read back %+v", evs)
	}
	// No temp litter left behind.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory has %d entries after atomic write, want 1", len(entries))
	}
}

func TestWriteFileAtomicReplacesNotTruncates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := os.WriteFile(path, []byte("old artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A failing writer must leave the previous artifact untouched.
	boom := os.ErrClosed
	err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if err != boom {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "old artifact" {
		t.Errorf("failed write clobbered the artifact: %q", data)
	}
}

func TestNewRunID(t *testing.T) {
	a, b := NewRunID(), NewRunID()
	if len(a) != 16 || len(b) != 16 {
		t.Errorf("run IDs %q/%q, want 16 hex chars", a, b)
	}
	if a == b {
		t.Errorf("two run IDs collided: %q", a)
	}
}

func TestNewLogger(t *testing.T) {
	var sb strings.Builder
	lg := NewLogger(&sb, "deadbeef00000000")
	lg.Info("pipeline run complete", "arch", "volta")
	out := sb.String()
	if !strings.Contains(out, "run_id=deadbeef00000000") || !strings.Contains(out, "arch=volta") {
		t.Errorf("log line missing correlation attrs: %q", out)
	}
}

func TestLedgerCapRing(t *testing.T) {
	// The second ring crosses chunk boundaries with a capacity that is not
	// a multiple of the chunk size.
	for _, tc := range []struct{ cap, emits int }{{3, 5}, {300, 1000}} {
		l := NewLedgerCap("capped", tc.cap)
		if l.Cap() != tc.cap {
			t.Fatalf("Cap = %d, want %d", l.Cap(), tc.cap)
		}
		for i := 0; i < tc.emits; i++ {
			l.Emit(Event{Kind: KindMeasure, ClockMHz: float64(i)})
		}
		if l.Len() != tc.cap {
			t.Fatalf("Len = %d, want %d (ring at capacity)", l.Len(), tc.cap)
		}
		if l.Dropped() != int64(tc.emits-tc.cap) {
			t.Fatalf("Dropped = %d, want %d", l.Dropped(), tc.emits-tc.cap)
		}
		evs := l.Events()
		// The most recent events survive, in emission order, with their
		// original sequence numbers (so the shed prefix is visible as a gap).
		for i, ev := range evs {
			shed := tc.emits - tc.cap
			if ev.Seq != int64(shed+i+1) || ev.ClockMHz != float64(shed+i) {
				t.Fatalf("cap %d: event %d = {Seq:%d ClockMHz:%g}, want {Seq:%d ClockMHz:%d}",
					tc.cap, i, ev.Seq, ev.ClockMHz, shed+i+1, shed+i)
			}
		}
	}
	// Below capacity the ring behaves exactly like the unbounded ledger.
	small := NewLedgerCap("small", 8)
	small.Emit(Event{Kind: KindMeasure})
	if small.Len() != 1 || small.Dropped() != 0 {
		t.Fatalf("under-capacity ring: Len=%d Dropped=%d", small.Len(), small.Dropped())
	}
	// capacity < 1 falls back to unbounded.
	if NewLedgerCap("x", 0).Cap() != 0 {
		t.Fatal("capacity 0 should mean unbounded")
	}
	var nilLedger *Ledger
	if nilLedger.Dropped() != 0 {
		t.Fatal("nil ledger Dropped should be 0")
	}
}
