// Package ingest holds the number scanner that score ingestion parses and
// frames plain score lines with: varbench.ParseScore parses with it, and
// the watch and compare commands frame a plain `a,b` or `score` line by
// where its last number stops.
package ingest

import "strconv"

// pow10 holds the powers of ten Scan divides by; every one is exact in
// float64 (the exact powers run to 1e22).
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// Scan reads the longest prefix of b of the form [+-]?digits[.digits],
// where either run of digits may be empty, and returns its value and
// length. ok is false, and v meaningless, unless the prefix holds 1 to 15
// digits: then its digits m are below 2⁵³ and 10^f, f the number of
// fraction digits, is exact too, so one IEEE division rounds m/10^f
// correctly, which is strconv.ParseFloat's own first step (Clinger's fast
// path). So when ok and n == len(b), v has exactly the bits
// strconv.ParseFloat(string(b), 64) returns. n is where the scan stopped,
// whether or not ok; a prefix of more than 15 digits is Long's to value.
func Scan(b []byte) (v float64, n int, ok bool) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		i, neg = 1, b[0] == '-'
	}
	var m uint64
	start := i
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	digits, f := i-start, 0
	if i < len(b) && b[i] == '.' {
		i++
		start = i
		for ; i < len(b) && b[i]-'0' < 10; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		f = i - start
		digits += f
	}
	if digits == 0 || digits > 15 {
		return 0, i, false
	}
	v = float64(m) / pow10[f]
	if neg {
		v = -v
	}
	return v, i, true
}

// Long returns the value of num, a whole prefix that Scan read but could
// not value, such as the 16 or 17 digits a Python repr writes: exactly
// what strconv.ParseFloat(string(num), 64) returns. ok is false where
// strconv fails, on a prefix with no digit or beyond float64's range. The
// framing calls it only once a line is known to be plain, so that a number
// meets strconv once, whichever path reads its line.
func Long(num []byte) (v float64, ok bool) {
	v, err := strconv.ParseFloat(string(num), 64)
	return v, err == nil
}
