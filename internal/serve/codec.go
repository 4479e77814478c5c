package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"accelwattch/internal/core"
	"accelwattch/internal/tune"
)

// The wire format of the two request shapes and the two response shapes,
// written by hand: one pass over the body, no reflection. encoding/json
// stays the reference for both directions — the decoder must reach the
// same accept/reject decision and the same request as a strict
// json.Decoder (FuzzDecodeVsStrict), and the encoders must write the bytes
// json.Marshal writes (FuzzEncodeVsMarshal). DESIGN §11 lists the rules.

// requestFields are the JSON names of a request's fields: the estimate
// fields, then the three a sweep adds. Names match as encoding/json matches
// them, by bytes.EqualFold.
var requestFields = [...]string{
	"name", "model", "arch", "variant", "mix", "counts",
	"cycles", "clock_mhz", "voltage", "active_sms", "avg_lanes", "temperature_c",
	"min_mhz", "max_mhz", "step_mhz",
}

// numEstimateFields is how many of requestFields an /estimate body may use.
const numEstimateFields = 12

// interned holds one copy of the names requests spell most — variants, mix
// categories and component names — so decoding them allocates nothing.
var interned = func() map[string]string {
	m := map[string]string{}
	for v := tune.Variant(0); v < tune.NumVariants; v++ {
		m[v.String()] = v.String()
	}
	for x := core.MixCategory(0); x < core.NumMixCategories; x++ {
		m[x.String()] = x.String()
	}
	for c := core.Component(0); int(c) < core.NumComponents; c++ {
		m[c.String()] = c.String()
	}
	return m
}()

func intern(b []byte) string {
	if s, ok := interned[string(b)]; ok {
		return s
	}
	return string(b)
}

var errTrailing = errors.New("serve: trailing data after request body")

// decodeRequest parses an /estimate body into r, or with sw non-nil a
// /sweep body into sw (r is then &sw.EstimateRequest). Like encoding/json
// it leaves a field untouched on null, clears counts on "counts": null,
// lets a repeated key overwrite and merges a repeated counts object; unlike
// it, it stops at the first problem, since any problem rejects the body.
func decodeRequest(data []byte, r *EstimateRequest, sw *SweepRequest) error {
	d := decoder{data: data}
	switch d.peek() {
	case 'n':
		if err := d.null(); err != nil {
			return err
		}
	case '{':
		if err := d.object(r, sw); err != nil {
			return err
		}
	default:
		return d.fail("a request object")
	}
	d.skipSpace()
	if d.pos < len(d.data) {
		return errTrailing
	}
	return nil
}

// decoder is a cursor over a request body.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) skipSpace() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\r', '\n':
			d.pos++
		default:
			return
		}
	}
}

// peek skips white space and returns the next byte, 0 at the end of input.
func (d *decoder) peek() byte {
	d.skipSpace()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

func (d *decoder) fail(want string) error {
	if d.pos >= len(d.data) {
		return fmt.Errorf("serve: request body ends where %s should be", want)
	}
	return fmt.Errorf("serve: malformed request body: byte %d is %q where %s should be", d.pos, d.data[d.pos], want)
}

func (d *decoder) null() error {
	if !bytes.HasPrefix(d.data[d.pos:], []byte("null")) {
		return d.fail("null")
	}
	d.pos += 4
	return nil
}

// members walks an object's members, calling value with each key once the
// cursor sits at its value. The cursor sits at the object's '{'.
func (d *decoder) members(value func(key []byte) error) error {
	d.pos++
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.fail("a field name")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.fail("':'")
		}
		d.pos++
		if err := value(key); err != nil {
			return err
		}
		switch d.peek() {
		case ',':
			d.pos++
		case '}':
			d.pos++
			return nil
		default:
			return d.fail("',' or '}'")
		}
	}
}

func (d *decoder) object(r *EstimateRequest, sw *SweepRequest) error {
	fields := requestFields[:numEstimateFields]
	if sw != nil {
		fields = requestFields[:]
	}
	return d.members(func(key []byte) error {
		switch slices.IndexFunc(fields, func(f string) bool { return bytes.EqualFold(key, []byte(f)) }) {
		case 0:
			return d.text(&r.Name)
		case 1:
			return d.text(&r.Model)
		case 2:
			return d.text(&r.Arch)
		case 3:
			return d.text(&r.Variant)
		case 4:
			return d.text(&r.Mix)
		case 5:
			return d.counts(r)
		case 6:
			return d.number(&r.Cycles)
		case 7:
			return d.number(&r.ClockMHz)
		case 8:
			return d.number(&r.Voltage)
		case 9:
			return d.number(&r.ActiveSMs)
		case 10:
			return d.number(&r.AvgLanes)
		case 11:
			return d.number(&r.TemperatureC)
		case 12:
			return d.number(&sw.MinMHz)
		case 13:
			return d.number(&sw.MaxMHz)
		case 14:
			return d.number(&sw.StepMHz)
		}
		return fmt.Errorf("serve: unknown field %q in request body", key)
	})
}

// counts decodes the counts object, merging into a map an earlier counts
// member made.
func (d *decoder) counts(r *EstimateRequest) error {
	switch d.peek() {
	case 'n':
		r.Counts = nil
		return d.null()
	case '{':
	default:
		return d.fail("the counts object")
	}
	if r.Counts == nil {
		r.Counts = make(map[string]float64)
	}
	return d.members(func(key []byte) error {
		var v float64
		if err := d.number(&v); err != nil {
			return err
		}
		r.Counts[intern(key)] = v
		return nil
	})
}

// text decodes a string value into dst; null leaves dst as it was.
func (d *decoder) text(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.null()
	case '"':
	default:
		return d.fail("a string")
	}
	s, err := d.str()
	if err != nil {
		return err
	}
	*dst = intern(s)
	return nil
}

// str consumes a string token and returns its contents. A string with no
// escape and no byte >= 0x80 is the input's own bytes; any other is
// unquoted by encoding/json, so escapes, lone surrogates and invalid UTF-8
// come out as its decoder makes them. The cursor sits at the opening quote.
func (d *decoder) str() ([]byte, error) {
	start := d.pos
	plain := true
	for d.pos++; d.pos < len(d.data); {
		switch c := d.data[d.pos]; {
		case c == '"':
			d.pos++
			if plain {
				return d.data[start+1 : d.pos-1], nil
			}
			var s string
			if err := json.Unmarshal(d.data[start:d.pos], &s); err != nil {
				return nil, fmt.Errorf("serve: malformed string at byte %d of the request body: %w", start, err)
			}
			return []byte(s), nil
		case c == '\\':
			plain = false
			d.pos += 2
		case c < 0x20:
			return nil, d.fail("a string character")
		default:
			plain = plain && c < 0x80
			d.pos++
		}
	}
	d.pos = len(d.data)
	return nil, d.fail("the end of a string")
}

// number decodes a JSON number into dst; null leaves dst as it was. The
// token must follow the JSON grammar, and strconv.ParseFloat must read it
// without a range error, as encoding/json requires.
func (d *decoder) number(dst *float64) error {
	c := d.peek()
	if c == 'n' {
		return d.null()
	}
	start := d.pos
	if c == '-' {
		d.pos++
	}
	switch {
	case d.pos < len(d.data) && d.data[d.pos] == '0':
		d.pos++
	case !d.digits():
		return d.fail("a number")
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if !d.digits() {
			return d.fail("a fraction digit")
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if !d.digits() {
			return d.fail("an exponent digit")
		}
	}
	f, err := strconv.ParseFloat(string(d.data[start:d.pos]), 64)
	if err != nil {
		return fmt.Errorf("serve: number %s in request body: %w", d.data[start:d.pos], err)
	}
	*dst = f
	return nil
}

// digits consumes a run of decimal digits and reports whether it was
// non-empty.
func (d *decoder) digits() bool {
	start := d.pos
	for d.pos < len(d.data) && '0' <= d.data[d.pos] && d.data[d.pos] <= '9' {
		d.pos++
	}
	return d.pos > start
}

// breakdownOrder lists the components in the order json.Marshal writes a
// breakdown map: sorted by name.
var breakdownOrder = func() []core.Component {
	cs := make([]core.Component, core.NumComponents)
	for i := range cs {
		cs[i] = core.Component(i)
	}
	slices.SortFunc(cs, func(a, b core.Component) int { return strings.Compare(a.String(), b.String()) })
	return cs
}()

// appendEstimateResponse appends the JSON of an EstimateResponse with the
// given fields — the bytes json.Marshal writes for it, breakdown keys
// sorted. The variant is one of the four validated names, so it is written
// unescaped.
func appendEstimateResponse(b []byte, variant string, powerW float64, bd *core.Breakdown) ([]byte, error) {
	b = append(b, `{"variant":"`...)
	b = append(b, variant...)
	b = append(b, `","power_w":`...)
	b, err := appendFloat(b, powerW)
	if err != nil {
		return b, err
	}
	b = append(b, `,"breakdown":{`...)
	for i, c := range breakdownOrder {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, c.String()...)
		b = append(b, `":`...)
		if b, err = appendFloat(b, bd.Watts[c]); err != nil {
			return b, err
		}
	}
	return append(b, "}}"...), nil
}

// appendSweepResponse appends the JSON of a SweepResponse whose points are
// (clocks[i], powers[i]).
func appendSweepResponse(b []byte, variant string, clocks, powers []float64) ([]byte, error) {
	b = append(b, `{"variant":"`...)
	b = append(b, variant...)
	b = append(b, `","points":[`...)
	var err error
	for i, mhz := range clocks {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"clock_mhz":`...)
		if b, err = appendFloat(b, mhz); err != nil {
			return b, err
		}
		b = append(b, `,"power_w":`...)
		if b, err = appendFloat(b, powers[i]); err != nil {
			return b, err
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// appendFloat writes f as encoding/json does: 'f' format, or 'e' below
// 1e-6 and from 1e21 with a two-digit negative exponent shortened
// ("e-09" -> "e-9"). A non-finite value fails with json.Marshal's text.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}
