package ingest

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestScanPrefix pins where Scan stops and when it succeeds: a value ends
// at the first byte that cannot continue it, and a prefix is good only with
// 1 to 15 digits. A good whole-field scan is strconv's value bit for bit.
func TestScanPrefix(t *testing.T) {
	cases := []struct {
		in string
		n  int
		ok bool
	}{
		{"0.5,0.25\n", 3, true},
		{"0.25\n", 4, true},
		{"-0", 2, true},
		{"+.5", 3, true},
		{"5.", 2, true},
		{"1.5.3", 3, true},
		{"123456789012345", 15, true},
		{"1234567890123456", 16, false},
		{"1e5", 1, true},
		{" 1", 0, false},
		{".", 1, false},
		{"-", 1, false},
		{"", 0, false},
		{"\r\n", 0, false},
	}
	for _, c := range cases {
		v, n, ok := Scan([]byte(c.in))
		if n != c.n || ok != c.ok {
			t.Errorf("Scan(%q) = n=%d ok=%v, want n=%d ok=%v", c.in, n, ok, c.n, c.ok)
			continue
		}
		if !ok {
			continue
		}
		want, err := strconv.ParseFloat(c.in[:n], 64)
		if err != nil || math.Float64bits(v) != math.Float64bits(want) {
			t.Errorf("Scan(%q) = %v, strconv says %v (%v)", c.in, v, want, err)
		}
	}
}

// TestLong pins Long to strconv on the prefixes Scan cannot value: 16 and
// 17 digits read, a digit-free prefix or one beyond float64's range fails,
// and a repr-length number allocates nothing.
func TestLong(t *testing.T) {
	for _, c := range []struct {
		in string
		ok bool
	}{
		{"1234567890123456", true},
		{"0.7683333333333333", true},
		{"-0.12345678901234567", true},
		{"+.5", true},
		{"+", false},
		{".", false},
		{"1" + strings.Repeat("0", 400), false},
	} {
		_, n, _ := Scan([]byte(c.in))
		if n != len(c.in) {
			t.Fatalf("Scan(%q) stopped at %d", c.in, n)
		}
		v, ok := Long([]byte(c.in))
		want, err := strconv.ParseFloat(c.in, 64)
		if ok != c.ok || ok != (err == nil) || ok && math.Float64bits(v) != math.Float64bits(want) {
			t.Errorf("Long(%q) = %v, %v; strconv says %v, %v", c.in, v, ok, want, err)
		}
	}
	num := []byte("0.76833333333333331")
	if allocs := testing.AllocsPerRun(100, func() { Long(num) }); allocs != 0 {
		t.Errorf("Long(%q) made %v allocations, want 0", num, allocs)
	}
}
