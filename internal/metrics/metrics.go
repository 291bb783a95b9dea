// Package metrics implements the evaluation metrics of the five case
// studies: classification accuracy / error rate (CIFAR10, GLUE tasks), mean
// intersection-over-union (PascalVOC), and ROC-AUC plus Pearson correlation
// (MHC binding affinity). All metrics are plain functions of predictions and
// targets so they compose with any model substrate.
package metrics

import (
	"math"
	"sort"
)

// Accuracy returns the fraction of matching labels.
func Accuracy(pred, target []int) float64 {
	if len(pred) != len(target) || len(pred) == 0 {
		return math.NaN()
	}
	hits := 0
	for i := range pred {
		if pred[i] == target[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(pred))
}

// MeanIoU returns the mean intersection-over-union across classes, the
// PascalVOC segmentation metric: for each class, |pred∩target| /
// |pred∪target| over all cells, averaged over classes that appear in either
// prediction or target.
func MeanIoU(pred, target []int, classes int) float64 {
	if len(pred) != len(target) || len(pred) == 0 {
		return math.NaN()
	}
	inter := make([]int, classes)
	union := make([]int, classes)
	for i := range pred {
		p, t := pred[i], target[i]
		if p == t {
			inter[p]++
			union[p]++
			continue
		}
		union[p]++
		union[t]++
	}
	sum, n := 0.0, 0
	for c := 0; c < classes; c++ {
		if union[c] == 0 {
			continue // class absent everywhere: conventionally skipped
		}
		sum += float64(inter[c]) / float64(union[c])
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// AUC returns the area under the ROC curve for scores against binary labels
// (true = positive), computed with the rank formulation (equivalent to the
// Mann-Whitney statistic), ties handled by midranks.
func AUC(score []float64, positive []bool) float64 {
	n := len(score)
	if n == 0 || len(positive) != n {
		return math.NaN()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return score[idx[a]] < score[idx[b]] })
	// Midranks.
	ranks := make([]float64, n)
	for i := 0; i < n; {
		j := i
		for j+1 < n && score[idx[j+1]] == score[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			ranks[idx[k]] = avg
		}
		i = j + 1
	}
	var rankSum float64
	var nPos int
	for i, p := range positive {
		if p {
			rankSum += ranks[i]
			nPos++
		}
	}
	nNeg := n - nPos
	if nPos == 0 || nNeg == 0 {
		return math.NaN()
	}
	u := rankSum - float64(nPos)*float64(nPos+1)/2
	return u / (float64(nPos) * float64(nNeg))
}

// Pearson returns the Pearson correlation coefficient between predictions
// and targets (the PCC column of Table 8).
func Pearson(pred, target []float64) float64 {
	n := len(pred)
	if n != len(target) || n < 2 {
		return math.NaN()
	}
	var mx, my float64
	for i := range pred {
		mx += pred[i]
		my += target[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := range pred {
		dx, dy := pred[i]-mx, target[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}
