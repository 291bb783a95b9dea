package jsonx

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"
)

type inner struct {
	X float64 `json:"x"`
}

type sample struct {
	Name    string             `json:"name,omitempty"`
	Seed    uint64             `json:"seed,omitempty"`
	P       float64            `json:"p"`
	Skip    float64            `json:"-"`
	Scores  []float64          `json:"scores,omitempty"`
	Nested  inner              `json:"nested"`
	Ptr     *inner             `json:"ptr,omitempty"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Matrix  [][]float64        `json:"matrix,omitempty"`
	Raw     []byte             `json:"raw,omitempty"`
	Elapsed time.Duration      `json:"elapsed_ns,omitempty"`
}

// TestMarshalMatchesEncodingJSON pins the compatibility contract: for any
// value free of non-finite floats, Marshal must produce byte-identical
// output to encoding/json.
func TestMarshalMatchesEncodingJSON(t *testing.T) {
	cases := []any{
		sample{
			Name: "exp", Seed: 7, P: 0.25,
			Scores:  []float64{1, 2.5, -3e-9, 1e21, 0.1},
			Nested:  inner{X: 1.5},
			Ptr:     &inner{X: -2},
			Metrics: map[string]float64{"ns/op": 123.5, "B/op": 0, "allocs/op": 9},
			Matrix:  [][]float64{{1, 2}, {3}},
			Raw:     []byte("hello"),
			Elapsed: 1500 * time.Millisecond,
		},
		sample{}, // every omitempty field empty
		map[string]any{"b": 1, "a": []any{nil, "s", 2.5}},
		[]float64{0.1, 0.2},
		3.14,
		nil,
		"plain",
		struct {
			A int
			B string `json:"b,omitempty"`
		}{A: 4},
	}
	for _, c := range cases {
		want, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("json.Marshal(%+v): %v", c, err)
		}
		got, err := Marshal(c)
		if err != nil {
			t.Fatalf("Marshal(%+v): %v", c, err)
		}
		if string(got) != string(want) {
			t.Errorf("Marshal(%+v):\n got %s\nwant %s", c, got, want)
		}
	}
}

// TestMarshalNonFinite is the point of the package: NaN and ±Inf encode as
// null wherever they appear, instead of failing the whole document.
func TestMarshalNonFinite(t *testing.T) {
	v := sample{
		Name:    "nan",
		P:       math.NaN(),
		Scores:  []float64{1, math.Inf(1), math.Inf(-1)},
		Nested:  inner{X: math.NaN()},
		Metrics: map[string]float64{"rho": math.NaN(), "ok": 2},
		Matrix:  [][]float64{{math.NaN()}},
	}
	if _, err := json.Marshal(v); err == nil {
		t.Fatal("sanity: encoding/json should reject NaN")
	}
	got, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"name":"nan","p":null,"scores":[1,null,null],` +
		`"nested":{"x":null},"metrics":{"ok":2,"rho":null},"matrix":[[null]]}`
	if string(got) != want {
		t.Errorf("non-finite encoding:\n got %s\nwant %s", got, want)
	}
	// The output must round-trip through a plain decode: null leaves float
	// fields at their zero value, per the encoding/json null rule.
	var back sample
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("round-trip decode: %v", err)
	}
	if back.P != 0 || back.Metrics["ok"] != 2 {
		t.Errorf("round-trip values: %+v", back)
	}
}

// TestMarshalHonorsCustomMarshaler: a nested json.Marshaler implementation
// wins, exactly as in encoding/json.
func TestMarshalHonorsCustomMarshaler(t *testing.T) {
	v := struct {
		T time.Time `json:"t"`
	}{T: time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)}
	want, _ := json.Marshal(v)
	got, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("marshaler passthrough:\n got %s\nwant %s", got, want)
	}
}

// TestMarshalAnonymousPromotion: untagged embedded structs flatten into the
// parent object, as encoding/json promotes them.
func TestMarshalAnonymousPromotion(t *testing.T) {
	type base struct {
		A int `json:"a"`
	}
	v := struct {
		base
		B float64 `json:"b"`
	}{base: base{A: 1}, B: math.NaN()}
	got, err := Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != `{"a":1,"b":null}` {
		t.Errorf("got %s", got)
	}
}

func TestMarshalNilsAndPointers(t *testing.T) {
	f := math.NaN()
	cases := []struct {
		in   any
		want string
	}{
		{(*inner)(nil), "null"},
		{&f, "null"},
		{[]any{nil}, "[null]"},
		{map[string][]float64{"a": nil}, `{"a":null}`},
	}
	for _, c := range cases {
		got, err := Marshal(c.in)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("Marshal(%v) = %s, want %s", reflect.TypeOf(c.in), got, c.want)
		}
	}
}
