// Package data provides the dataset substrate for the benchmark: a dataset
// container, random train/valid/test splitting, the bootstrap /
// out-of-bootstrap resampling scheme the paper uses to probe data-sampling
// variance (Appendix B), stratified bootstrap for balanced tasks (Appendix
// D.1), cross-validation (for the Appendix B comparison), and synthetic
// generators standing in for the five case-study datasets.
package data

import (
	"fmt"

	"varbench/internal/tensor"
)

// Dataset is a supervised dataset. For classification, Y holds class indices
// (0..NumClasses-1) stored as float64; for regression NumClasses is 0 and Y
// holds real targets. Group optionally assigns each example to a group (e.g.
// the image an individual cell belongs to in the segmentation task) so
// metrics can aggregate per group.
type Dataset struct {
	Name       string
	X          *tensor.Matrix
	Y          []float64
	NumClasses int
	Group      []int
}

// N returns the number of examples.
func (d *Dataset) N() int { return d.X.Rows }

// Dim returns the feature dimension.
func (d *Dataset) Dim() int { return d.X.Cols }

// IsClassification reports whether the targets are class indices.
func (d *Dataset) IsClassification() bool { return d.NumClasses > 0 }

// Subset returns a new dataset containing the rows idx (duplicates allowed:
// bootstrap resamples are legitimate subsets).
func (d *Dataset) Subset(idx []int) *Dataset {
	sub := &Dataset{
		Name:       d.Name,
		X:          tensor.NewMatrix(len(idx), d.Dim()),
		Y:          make([]float64, len(idx)),
		NumClasses: d.NumClasses,
	}
	if d.Group != nil {
		sub.Group = make([]int, len(idx))
	}
	for i, j := range idx {
		copy(sub.X.Row(i), d.X.Row(j))
		sub.Y[i] = d.Y[j]
		if d.Group != nil {
			sub.Group[i] = d.Group[j]
		}
	}
	return sub
}

// Classes returns, for each class, the indices of its examples.
func (d *Dataset) Classes() ([][]int, error) {
	if !d.IsClassification() {
		return nil, fmt.Errorf("data: %s is not a classification dataset", d.Name)
	}
	byClass := make([][]int, d.NumClasses)
	for i, y := range d.Y {
		c := int(y)
		if c < 0 || c >= d.NumClasses {
			return nil, fmt.Errorf("data: label %v out of range [0,%d)", y, d.NumClasses)
		}
		byClass[c] = append(byClass[c], i)
	}
	return byClass, nil
}

// Concat appends other to d, returning a new dataset. Dimensions and target
// types must match.
func Concat(a, b *Dataset) (*Dataset, error) {
	if a.Dim() != b.Dim() || a.NumClasses != b.NumClasses {
		return nil, fmt.Errorf("data: incompatible datasets %s / %s", a.Name, b.Name)
	}
	out := &Dataset{
		Name:       a.Name,
		X:          tensor.NewMatrix(a.N()+b.N(), a.Dim()),
		Y:          make([]float64, 0, a.N()+b.N()),
		NumClasses: a.NumClasses,
	}
	copy(out.X.Data[:len(a.X.Data)], a.X.Data)
	copy(out.X.Data[len(a.X.Data):], b.X.Data)
	out.Y = append(out.Y, a.Y...)
	out.Y = append(out.Y, b.Y...)
	if a.Group != nil && b.Group != nil {
		out.Group = append(append([]int{}, a.Group...), b.Group...)
	}
	return out, nil
}

// TrainValidTest bundles the three splits of one benchmark replication:
// Stv = (Train, Valid) and So = Test in the paper's notation.
type TrainValidTest struct {
	Train, Valid, Test *Dataset
}
