package config

import (
	"encoding/json"
	"math"
	"testing"
)

// The Section 7.1 case studies need exactly the 12 nm <-> 16 nm pair:
// Volta's tuned model applied to Pascal TITAN X. With the tables normalised
// to 12 nm = 1.0, those factors are the raw 16 nm table entries.
func TestTechScaleVoltaToPascal(t *testing.T) {
	ts, err := NewTechScale(12, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Dynamic != 1.18 {
		t.Errorf("12->16 dynamic factor = %v, want 1.18", ts.Dynamic)
	}
	if ts.Static != 1.12 {
		t.Errorf("12->16 static factor = %v, want 1.12", ts.Static)
	}
	if ts.Identity() {
		t.Error("12->16 must not be an identity scaling")
	}
	if ts.FromNM != 12 || ts.ToNM != 16 {
		t.Errorf("endpoints = %d->%d, want 12->16", ts.FromNM, ts.ToNM)
	}
}

func TestTechScaleIdentity(t *testing.T) {
	for _, nm := range Nodes() {
		ts, err := NewTechScale(nm, nm)
		if err != nil {
			t.Fatalf("NewTechScale(%d, %d): %v", nm, nm, err)
		}
		if !ts.Identity() {
			t.Errorf("%d->%d not identity", nm, nm)
		}
		if ts.Dynamic != 1 || ts.Static != 1 {
			t.Errorf("%d->%d factors = %v/%v, want exactly 1/1", nm, nm, ts.Dynamic, ts.Static)
		}
	}
	// Identity is defined by the endpoints, not the factors.
	if (TechScale{FromNM: 12, ToNM: 16, Dynamic: 1, Static: 1}).Identity() {
		t.Error("cross-node scaling with unit factors must not report Identity")
	}
}

// Scaling there and back must compose to 1 within one ULP for every node
// pair.
func TestTechScaleRoundTrips(t *testing.T) {
	nodes := Nodes()
	for _, from := range nodes {
		for _, to := range nodes {
			fwd, err := NewTechScale(from, to)
			if err != nil {
				t.Fatalf("NewTechScale(%d, %d): %v", from, to, err)
			}
			rev, err := NewTechScale(to, from)
			if err != nil {
				t.Fatalf("NewTechScale(%d, %d): %v", to, from, err)
			}
			for _, pair := range [][2]float64{{fwd.Dynamic, rev.Dynamic}, {fwd.Static, rev.Static}} {
				prod := pair[0] * pair[1]
				if math.Abs(prod-1) > 3*ulp(1) {
					t.Errorf("%d<->%d factors compose to %v, want 1", from, to, prod)
				}
			}
		}
	}
}

// Division by the forward factor is the closest arithmetic inverse of the
// rounded forward multiplication: (x*c)/c recovers x to within one ULP for
// every node pair and representative coefficient (two correct roundings of
// at most half an ULP each), where composing with the reverse table factor
// can drift by several ULPs. So undoing a derivation means dividing by the
// recorded factors rather than multiplying by a reverse scaling, and even
// then the guarantee is a one-ULP bound, not universal bit-equality (even
// (0.9*1.18)/1.18 lands one ULP high).
func TestTechScaleDivisionInvertsMultiplication(t *testing.T) {
	values := []float64{0.1, 0.7, 0.9, 1.18, 7.77, 11.3, 19.9, 30, 32.5, 0.333333, 1e-3, 250}
	nodes := Nodes()
	for _, from := range nodes {
		for _, to := range nodes {
			ts, err := NewTechScale(from, to)
			if err != nil {
				t.Fatal(err)
			}
			for _, factor := range []float64{ts.Dynamic, ts.Static} {
				for _, x := range values {
					got := (x * factor) / factor
					if math.Abs(got-x) > ulp(x) {
						t.Fatalf("(%v * %v) / %v = %v, off by more than one ULP (%d->%d nm)",
							x, factor, factor, got, from, to)
					}
				}
			}
		}
	}
}

func TestTechScaleUnknownNodes(t *testing.T) {
	for _, pair := range [][2]int{{13, 12}, {12, 13}, {0, 12}, {12, -1}, {5, 3}} {
		if _, err := NewTechScale(pair[0], pair[1]); err == nil {
			t.Errorf("NewTechScale(%d, %d) accepted a node outside the table", pair[0], pair[1])
		}
	}
}

func TestTechScaleNodes(t *testing.T) {
	nodes := Nodes()
	if len(nodes) == 0 {
		t.Fatal("empty node table")
	}
	for i := 1; i < len(nodes); i++ {
		if nodes[i] <= nodes[i-1] {
			t.Fatalf("Nodes() not strictly ascending: %v", nodes)
		}
	}
	// The paper's nodes must be present.
	want := map[int]bool{12: true, 16: true}
	for _, nm := range nodes {
		delete(want, nm)
	}
	if len(want) != 0 {
		t.Fatalf("table is missing required nodes %v", want)
	}
}

// TechScale serialises under stable names inside derivation provenance
// records; a rename would silently orphan saved metadata.
func TestTechScaleJSONStable(t *testing.T) {
	ts := MustTechScale(12, 16)
	b, err := json.Marshal(ts)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"from_nm":12,"to_nm":16,"dynamic":1.18,"static":1.12}`
	if string(b) != want {
		t.Fatalf("serialised form %s, want %s", b, want)
	}
	var back TechScale
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back != ts {
		t.Fatalf("round trip changed the value: %+v != %+v", back, ts)
	}
}

func TestMustTechScalePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustTechScale did not panic for an unknown node")
		}
	}()
	MustTechScale(12, 13)
}

// ulp returns the unit in the last place of x.
func ulp(x float64) float64 {
	return math.Nextafter(x, math.Inf(1)) - x
}
