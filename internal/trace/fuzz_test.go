package trace_test

import (
	"reflect"
	"testing"

	"accelwattch/internal/config"
	"accelwattch/internal/sim"
	"accelwattch/internal/trace"
	"accelwattch/internal/trace/tracetest"
)

// FuzzTraceDecode feeds arbitrary bytes to the trace-file decoder. It must
// return an error, never panic, and any trace it accepts must replay: the
// summary and the simulator index records, PCs and the address arena
// without further checks. The summary of an accepted trace, whose warps
// share no records, must equal the warp-by-warp walk's. The corpus under
// testdata holds a valid file and four that must be refused: truncated,
// without a kernel, with a PC past the code, and with more active lanes
// than listed addresses.
func FuzzTraceDecode(f *testing.F) {
	s, err := sim.New(config.Volta())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		kt, err := trace.Decode(data)
		if err != nil {
			if kt != nil {
				t.Fatalf("Decode returned a trace with error %v", err)
			}
			return
		}
		want, _ := tracetest.Walk(kt)
		if got := trace.Summarize(kt); !reflect.DeepEqual(got, want) {
			t.Fatalf("Summarize %+v, warp walk %+v", got, want)
		}
		if _, err := s.Run(kt); err != nil {
			t.Fatalf("accepted trace does not simulate: %v", err)
		}
	})
}
