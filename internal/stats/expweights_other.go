//go:build !amd64

package stats

// useAVX2 is false off amd64: expWeights runs log1pWeight on every cell.
var useAVX2 = false

// expWeightsVec has no vector kernel to run off amd64: it fills nothing.
func expWeightsVec(ws []float64, ms []uint64) int { return 0 }
