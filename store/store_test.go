package store

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

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

// TestCellKeysMatchSprintf pins TrialKey and FailureKey to the fmt.Sprintf
// format every existing store was written with: a key that changed by one
// byte would turn every stored cell into a miss.
func TestCellKeysMatchSprintf(t *testing.T) {
	long := strings.Repeat("x", 200) // past the builder's stack buffer
	for _, seed := range []uint64{0, 1, 4242, math.MaxUint64} {
		for _, dataset := range []string{"", "cifar10", "données-ü-数据", "a/b/run=3/A", long} {
			for _, index := range []int{0, 7, 123456789, math.MaxInt} {
				for _, side := range []string{"A", "B"} {
					want := fmt.Sprintf("trial/seed=%d/dataset=%s/run=%d/%s", seed, dataset, index, side)
					if got := TrialKey(seed, dataset, index, side); got != want {
						t.Errorf("TrialKey = %q, want %q", got, want)
					}
					want = fmt.Sprintf("failure/seed=%d/dataset=%s/run=%d/%s", seed, dataset, index, side)
					if got := FailureKey(seed, dataset, index, side); got != want {
						t.Errorf("FailureKey = %q, want %q", got, want)
					}
				}
			}
		}
	}
}
