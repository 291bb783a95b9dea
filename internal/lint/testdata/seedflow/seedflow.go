// Package seedflow is a lint fixture: seeds invented from loop-variable
// arithmetic at an xrand constructor's call site must be flagged; seed
// tables, Split-derived labels (whole or as a continued LabelHash) and named
// derivation helpers are declared derivations and stay clean.
package seedflow

import (
	"fmt"

	"varbench/internal/xrand"
)

func perRealization(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = xrand.New(seed + uint64(i)).Uint64() // want `seed for xrand.New derives from loop variable "i"`
	}
	return out
}

func perStream(seed uint64, vars []string) []*xrand.Streams {
	out := make([]*xrand.Streams, 0, len(vars))
	for e := range vars {
		out = append(out, xrand.NewStreams(seed^uint64(e))) // want `seed for xrand.NewStreams derives from loop variable "e"`
	}
	return out
}

func reseeded(src *xrand.Source, rounds int) {
	for r := 0; r < rounds; r++ {
		src.Seed(uint64(r) * 2654435761) // want `seed for xrand.Seed derives from loop variable "r"`
	}
}

func fromTable(roots []uint64) []uint64 {
	out := make([]uint64, len(roots))
	for i := range roots {
		out[i] = xrand.New(roots[i]).Uint64() // table lookup: declared derivation, no finding
	}
	return out
}

func viaSplit(seed uint64, n int) []uint64 {
	root := xrand.New(seed)
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		// A named derivation call owns its arguments: no finding.
		out[i] = root.Split(fmt.Sprintf("realization/%d", i)).Uint64()
	}
	return out
}

func viaLabelHash(seed uint64, n int) []uint64 {
	var root, src xrand.Source
	root.Seed(seed)
	prefix := xrand.HashLabel("realization/")
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		// A continued label hash is a Split label: no finding.
		src.Seed(root.SplitSeed(prefix.AppendInt(i)))
		out[i] = src.Uint64()
	}
	return out
}

func historical(seed uint64) uint64 {
	var last uint64
	for e := 0; e < 4; e++ {
		//lint:allow seedflow(fixture: golden sequence derives from this historical arithmetic)
		last = xrand.New(seed + uint64(e)).Uint64()
	}
	return last
}
