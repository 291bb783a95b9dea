package store

import "testing"

func TestFingerprintProperties(t *testing.T) {
	if Fingerprint("ab", "c") == Fingerprint("a", "bc") {
		t.Error("fingerprint must be length-delimited")
	}
	if Fingerprint("x") != Fingerprint("x") {
		t.Error("fingerprint must be deterministic")
	}
	if len(Fingerprint()) != 32 {
		t.Errorf("fingerprint length = %d, want 32 hex chars", len(Fingerprint()))
	}
}
