// Package augment implements seedable stochastic data augmentation, one of
// the ξO sources of variation studied in Figure 1. Augmentations draw their
// randomness from a dedicated stream (xrand.VarAugment) so the benchmark can
// vary augmentation noise in isolation, and they are approximately
// label-preserving for the synthetic tasks: small feature jitter, occlusion
// masking (the random-crop analogue) and multiplicative scaling (the
// brightness analogue).
package augment

import (
	"varbench/internal/tensor"
	"varbench/internal/xrand"
)

// Augmenter perturbs one feature row in place using randomness from r.
type Augmenter interface {
	Apply(row []float64, r *xrand.Source)
}

// Jitter adds isotropic Gaussian noise with standard deviation Std.
type Jitter struct {
	Std float64
}

// Apply implements Augmenter. It draws the noise in bulk, a chunk at a
// time, exactly as one NormFloat64 call per element would.
func (j Jitter) Apply(row []float64, r *xrand.Source) {
	var buf [16]float64
	for len(row) > 0 {
		noise := buf[:min(len(row), len(buf))]
		r.NormFloat64s(noise)
		for i, z := range noise {
			row[i] += float64(j.Std * z)
		}
		row = row[len(noise):]
	}
}

// Mask zeroes a random contiguous block covering Frac of the features: the
// vector analogue of random cropping / cutout occlusion.
type Mask struct {
	Frac float64
}

// Apply implements Augmenter.
func (m Mask) Apply(row []float64, r *xrand.Source) {
	w := int(m.Frac * float64(len(row)))
	if w <= 0 {
		return
	}
	if w >= len(row) {
		w = len(row) - 1
	}
	start := r.Intn(len(row) - w + 1)
	for i := start; i < start+w; i++ {
		row[i] = 0
	}
}

// Pipeline applies augmenters in sequence.
type Pipeline []Augmenter

// Apply implements Augmenter.
func (p Pipeline) Apply(row []float64, r *xrand.Source) {
	for _, a := range p {
		a.Apply(row, r)
	}
}

// BatchInto writes an augmented copy of the rows of x indexed by idx into
// out, which it resizes to len(idx)×x.Cols (reusing its backing array when
// large enough) and returns; x is left untouched. Row i of out is row idx[i]
// of x, then augmented by a (a nil augmenter just gathers the rows); rows
// are filled in order, so a draws from r row by row. out must not share
// storage with x.
func BatchInto(out, x *tensor.Matrix, idx []int, a Augmenter, r *xrand.Source) *tensor.Matrix {
	out.Resize(len(idx), x.Cols)
	for i, j := range idx {
		row := out.Row(i)
		copy(row, x.Row(j))
		if a != nil {
			a.Apply(row, r)
		}
	}
	return out
}
