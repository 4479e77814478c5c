package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"accelwattch/internal/core"
	"accelwattch/internal/tune"
)

// decodeStrict is the decoder's oracle: encoding/json with unknown fields
// disallowed, then nothing but JSON white space after the body.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return errTrailing
	}
	return nil
}

// FuzzDecodeVsStrict requires the hand-written decoder to agree with its
// oracle on every body, as an estimate and as a sweep: the same decision
// and, on acceptance, a deeply equal request with the same cache key. An
// accepted sweep must also yield a ladder of 1 to maxSweepPoints+1
// ascending points.
func FuzzDecodeVsStrict(f *testing.F) {
	for _, body := range []string{
		`{"variant":"SASS_SIM","cycles":1}`,
		`{"name":"k1","model":"volta-tuned","arch":"volta","variant":"HW","cycles":1e6,"clock_mhz":1200,"voltage":1,"active_sms":80,"avg_lanes":32,"mix":"INT_FP","temperature_c":65,"counts":{"alu":5e8,"regfile":2e9}}`,
		`{"variant":"HW","cycles":1,"min_mhz":800,"max_mhz":1400,"step_mhz":100}`,
		`{"variant":"HW","cycles":1,"min_mhz":2000,"max_mhz":2000,"step_mhz":1e-13}`,
		// Field names fold as bytes.EqualFold folds them: the Kelvin sign
		// and the long s match 'k' and 's'.
		`{"Variant":"HW","CYCLES":1}`,
		"{\"variant\":\"HW\",\"cycles\":1,\"clocK_mhz\":900,\"active_ſms\":8}",
		// Escapes, surrogates, invalid UTF-8 and raw control bytes.
		`{"variant":"HW","cycles":1,"name":"a\"b\\c\/dé😀"}`,
		`{"variant":"HW","cycles":1,"name":"\ud800"}`,
		"{\"variant\":\"HW\",\"cycles\":1,\"name\":\"\xff\xfe\"}",
		"{\"variant\":\"HW\",\"cycles\":1,\"name\":\"a\x01b\"}",
		`{"variant":"HW","cycles":1,"name":"\x"}`,
		`{"variant":"HW","cycles":1,"counts":{"alu":2}}`,
		// null, repeats and merges.
		`{"variant":"HW","cycles":1,"name":null,"counts":null}`,
		`{"variant":"HW","cycles":1,"counts":{"alu":1},"counts":null}`,
		`{"variant":"HW","cycles":1,"counts":{"alu":null}}`,
		`{"variant":"HW","cycles":1,"counts":{}}`,
		`{"variant":"PTX_SIM","variant":"HW","cycles":2,"cycles":1}`,
		`{"variant":"HW","cycles":1,"counts":{"alu":1},"counts":{"fpu":2,"alu":3}}`,
		`{"variant":"HW","cycles":1,"counts":{"alu":1,"alu":4}}`,
		// Numbers.
		`{"variant":"HW","cycles":1e400}`,
		`{"variant":"HW","cycles":1e-400}`,
		`{"variant":"HW","cycles":5e-324}`,
		`{"variant":"HW","cycles":-0}`,
		`{"variant":"HW","cycles":1E+2}`,
		`{"variant":"HW","cycles":01}`,
		`{"variant":"HW","cycles":1.}`,
		`{"variant":"HW","cycles":.5}`,
		`{"variant":"HW","cycles":1e}`,
		`{"variant":"HW","cycles":-}`,
		`{"variant":"HW","cycles":+1}`,
		// Other types, unknown fields.
		`{"variant":1,"cycles":1}`,
		`{"variant":"HW","cycles":"1"}`,
		`{"variant":"HW","cycles":true}`,
		`{"variant":"HW","cycles":1,"counts":[]}`,
		`{"variant":"HW","cycles":1,"counts":{"alu":"1"}}`,
		`{"variant":"HW","cycles":1,"wattage":3}`,
		// Trailing data, and the white space allowed after the body.
		`{"variant":"SASS_SIM","cycles":1} xyz`,
		`{"variant":"SASS_SIM","cycles":1}}`,
		`{"variant":"SASS_SIM","cycles":1}]`,
		`{"variant":"SASS_SIM","cycles":1}{`,
		`{"variant":"SASS_SIM","cycles":1}{"x":1}`,
		"{\"variant\":\"SASS_SIM\",\"cycles\":1} \t\r\n",
		"{\"variant\":\"SASS_SIM\",\"cycles\":1}\x00",
		// Bodies that are not objects.
		`null`, `[]`, `"x"`, `1`, ``, ` `, `{}`, `{`, `{"variant"}`, `{,}`, `{"variant":"HW",}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got, want EstimateRequest
		agree(t, "estimate", decodeRequest(data, &got, nil), decodeStrict(data, &want), &got, &want)
		var gotS, wantS SweepRequest
		agree(t, "sweep", decodeRequest(data, &gotS.EstimateRequest, &gotS), decodeStrict(data, &wantS), &gotS, &wantS)

		sw, err := DecodeSweepRequest(data)
		if err != nil {
			return
		}
		ladder := sw.Ladder()
		if len(ladder) < 1 || len(ladder) > maxSweepPoints+1 {
			t.Fatalf("accepted sweep has a ladder of %d points: %s", len(ladder), data)
		}
		for i := 1; i < len(ladder); i++ {
			if !(ladder[i] > ladder[i-1]) {
				t.Fatalf("ladder not ascending at point %d (%v after %v): %s", i, ladder[i], ladder[i-1], data)
			}
		}
	})
}

// agree fails the test unless the decoder and the oracle reached the same
// decision and, on acceptance, the same request.
func agree[R interface{ CacheKey() string }](t *testing.T, shape string, errGot, errWant error, got, want R) {
	t.Helper()
	if (errGot == nil) != (errWant == nil) {
		t.Fatalf("%s: decoder err=%v, oracle err=%v", shape, errGot, errWant)
	}
	if errGot != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: decoded\n %+v\noracle\n %+v", shape, got, want)
	}
	// The key renders every float in exact hex, so it also tells -0 from 0.
	if got.CacheKey() != want.CacheKey() {
		t.Fatalf("%s: cache keys differ:\n %q\n %q", shape, got.CacheKey(), want.CacheKey())
	}
}

// FuzzEncodeVsMarshal requires the hand-written encoders to write the bytes
// json.Marshal writes, or fail with its error text, for arbitrary float64
// bit patterns: the input's 8-byte words, read cyclically, fill power_w,
// the breakdown, and the clock and power of each sweep point.
func FuzzEncodeVsMarshal(f *testing.F) {
	var seed []byte
	for _, v := range []float64{
		32.5, 84.52879999999999, 1e-7, 1e-6, 9.999999999999999e-7, 1e20, 1e21, 1e-9,
		-1e-10, math.Copysign(0, -1), 5e-324, math.MaxFloat64, 123456789.125, 1e300,
	} {
		seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(v))
	}
	f.Add(uint8(0), seed)
	f.Add(uint8(2), binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1))))
	f.Add(uint8(3), append(seed, binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))...))
	f.Add(uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, v uint8, words []byte) {
		word := func(i int) float64 {
			if len(words) == 0 {
				return 0
			}
			var w [8]byte
			for j := range w {
				w[j] = words[(8*i+j)%len(words)]
			}
			return math.Float64frombits(binary.LittleEndian.Uint64(w[:]))
		}
		variant := tune.Variant(int(v) % int(tune.NumVariants)).String()

		var bd core.Breakdown
		for c := range bd.Watts {
			bd.Watts[c] = word(c + 1)
		}
		got, errGot := appendEstimateResponse(nil, variant, word(0), &bd)
		want, errWant := json.Marshal(&EstimateResponse{Variant: variant, PowerW: word(0), Breakdown: bd.Map()})
		sameEncoding(t, "estimate", got, errGot, want, errWant)

		n := len(words) / 16
		clocks, powers := make([]float64, n), make([]float64, n)
		points := make([]SweepPoint, n)
		for i := range points {
			clocks[i], powers[i] = word(2*i), word(2*i+1)
			points[i] = SweepPoint{ClockMHz: clocks[i], PowerW: powers[i]}
		}
		got, errGot = appendSweepResponse(nil, variant, clocks, powers)
		want, errWant = json.Marshal(&SweepResponse{Variant: variant, Points: points})
		sameEncoding(t, "sweep", got, errGot, want, errWant)
	})
}

func sameEncoding(t *testing.T, shape string, got []byte, errGot error, want []byte, errWant error) {
	t.Helper()
	if (errGot == nil) != (errWant == nil) || errGot != nil && errGot.Error() != errWant.Error() {
		t.Fatalf("%s: encoder err=%v, json.Marshal err=%v", shape, errGot, errWant)
	}
	if errGot == nil && !bytes.Equal(got, want) {
		t.Fatalf("%s: encoder wrote\n %s\njson.Marshal wrote\n %s", shape, got, want)
	}
}

// benchBody is a typical /estimate body: routing-free, five counters.
var benchBody = []byte(`{"name":"k42","variant":"HW","cycles":1000042,"clock_mhz":1250,"active_sms":64,"avg_lanes":24,"mix":"INT_FP","counts":{"alu":31415926,"fpu":27182818,"l1d":1618033,"regfile":14142135,"dram_mc":1732050}}`)

var benchSink any

// BenchmarkDecodeEstimateRequest times decode plus validate of benchBody.
func BenchmarkDecodeEstimateRequest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		req, err := DecodeEstimateRequest(benchBody)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = req
	}
}

// BenchmarkEncodeEstimateResponse times encoding benchBody's response into
// a reused buffer; it allocates nothing.
func BenchmarkEncodeEstimateResponse(b *testing.B) {
	req, err := DecodeEstimateRequest(benchBody)
	if err != nil {
		b.Fatal(err)
	}
	a, err := req.Activity()
	if err != nil {
		b.Fatal(err)
	}
	bd, err := testModel().Estimate(a)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if buf, err = appendEstimateResponse(buf[:0], req.Variant, bd.Total(), &bd); err != nil {
			b.Fatal(err)
		}
	}
	benchSink = buf
}
