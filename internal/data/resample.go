package data

import (
	"fmt"

	"varbench/internal/xrand"
)

// BootstrapIndices draws k indices with replacement from [0, n) and returns
// them together with the out-of-bootstrap pool: the indices never drawn
// (Efron 1979; Breiman 1996 out-of-bag). The OOB pool is returned in
// ascending order.
func BootstrapIndices(n, k int, r *xrand.Source) (sample, oob []int) {
	sample = make([]int, k)
	seen := make([]bool, n)
	for i := range sample {
		j := r.Intn(n)
		sample[i] = j
		seen[j] = true
	}
	for i, s := range seen {
		if !s {
			oob = append(oob, i)
		}
	}
	return sample, oob
}

// SampleWithoutReplacement draws k distinct values from pool (partial
// Fisher-Yates on a copy). It panics if k > len(pool).
func SampleWithoutReplacement(pool []int, k int, r *xrand.Source) []int {
	if k > len(pool) {
		panic(fmt.Sprintf("data: cannot draw %d from pool of %d", k, len(pool)))
	}
	p := append([]int(nil), pool...)
	for i := 0; i < k; i++ {
		j := i + r.Intn(len(p)-i)
		p[i], p[j] = p[j], p[i]
	}
	return p[:k]
}

// OOBSplit draws one bootstrap benchmark replication following Appendix B:
// the training set St is a bootstrap resample (with replacement) of size
// nTrain, and the validation and test sets are drawn from the
// out-of-bootstrap pool S\St, guaranteeing no example appears in more than
// one role. nValid+nTest must not exceed the expected OOB pool (~36.8% of n
// when nTrain = n); an error is returned when the realized pool is too small.
func OOBSplit(d *Dataset, nTrain, nValid, nTest int, r *xrand.Source) (TrainValidTest, error) {
	trainIdx, oob := BootstrapIndices(d.N(), nTrain, r)
	if len(oob) < nValid+nTest {
		return TrainValidTest{}, fmt.Errorf(
			"data: out-of-bootstrap pool %d too small for valid %d + test %d",
			len(oob), nValid, nTest)
	}
	rest := SampleWithoutReplacement(oob, nValid+nTest, r)
	return TrainValidTest{
		Train: d.Subset(trainIdx),
		Valid: d.Subset(rest[:nValid]),
		Test:  d.Subset(rest[nValid : nValid+nTest]),
	}, nil
}

// StratifiedOOBSplit performs the per-class variant used for CIFAR10
// (Appendix D.1): for each class independently it bootstrap-samples
// perTrain training examples and draws perValid and perTest out-of-bootstrap
// examples, preserving exact class balance in every split.
func StratifiedOOBSplit(d *Dataset, perTrain, perValid, perTest int, r *xrand.Source) (TrainValidTest, error) {
	byClass, err := d.Classes()
	if err != nil {
		return TrainValidTest{}, err
	}
	var trainIdx, validIdx, testIdx []int
	for c, members := range byClass {
		if len(members) == 0 {
			return TrainValidTest{}, fmt.Errorf("data: class %d empty", c)
		}
		sample, oobLocal := BootstrapIndices(len(members), perTrain, r)
		for _, s := range sample {
			trainIdx = append(trainIdx, members[s])
		}
		if len(oobLocal) < perValid+perTest {
			return TrainValidTest{}, fmt.Errorf(
				"data: class %d OOB pool %d too small for %d+%d",
				c, len(oobLocal), perValid, perTest)
		}
		rest := SampleWithoutReplacement(oobLocal, perValid+perTest, r)
		for _, s := range rest[:perValid] {
			validIdx = append(validIdx, members[s])
		}
		for _, s := range rest[perValid:] {
			testIdx = append(testIdx, members[s])
		}
	}
	return TrainValidTest{
		Train: d.Subset(trainIdx),
		Valid: d.Subset(validIdx),
		Test:  d.Subset(testIdx),
	}, nil
}
