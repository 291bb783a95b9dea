package data

import (
	"math"

	"varbench/internal/tensor"
	"varbench/internal/xrand"
)

// Distribution is a "true" data distribution D from which finite datasets
// S ~ D^n can be drawn. The benchmark treats the dataset itself as a random
// variable (Section 2); having an explicit D lets tests validate that
// bootstrap resampling of one finite S approximates true resampling from D.
type Distribution interface {
	// Sample draws n i.i.d. examples using the provided source.
	Sample(n int, r *xrand.Source) *Dataset
}

// GaussianMixture is a C-class mixture of Gaussians in dim dimensions, the
// stand-in for image classification (CIFAR10-like): class identity is
// determined by cluster membership, with controllable separation (class
// difficulty). The class means are a deterministic function of StructSeed so
// that independently drawn datasets come from the same distribution.
type GaussianMixture struct {
	TaskName   string
	Classes    int
	Dim        int
	Sep        float64 // scale of class-mean separation
	Within     float64 // within-class standard deviation
	StructSeed uint64

	means *tensor.Matrix // Classes × Dim, lazily built
}

// NewGaussianMixture builds the distribution and materializes its class means.
func NewGaussianMixture(name string, classes, dim int, sep, within float64, structSeed uint64) *GaussianMixture {
	g := &GaussianMixture{
		TaskName: name, Classes: classes, Dim: dim,
		Sep: sep, Within: within, StructSeed: structSeed,
	}
	r := xrand.New(structSeed)
	g.means = tensor.NewMatrix(classes, dim)
	for i := range g.means.Data {
		g.means.Data[i] = sep * r.NormFloat64()
	}
	return g
}

// Sample implements Distribution.
func (g *GaussianMixture) Sample(n int, r *xrand.Source) *Dataset {
	d := &Dataset{
		Name:       g.TaskName,
		X:          tensor.NewMatrix(n, g.Dim),
		Y:          make([]float64, n),
		NumClasses: g.Classes,
	}
	for i := 0; i < n; i++ {
		c := r.Intn(g.Classes)
		d.Y[i] = float64(c)
		mean := g.means.Row(c)
		row := d.X.Row(i)
		for j := range row {
			row[j] = mean[j] + g.Within*r.NormFloat64()
		}
	}
	return d
}

// TextTopics simulates a GLUE-style binary sentence-classification task fed
// through a frozen pretrained encoder (the BERT fine-tuning regime of
// Appendix D.2/D.3, where only the final classifier head is trained and
// randomly initialized). Raw "sentences" are bags of words with
// class-dependent word frequencies; the frozen encoder is a fixed random
// projection derived from StructSeed — the analogue of loading the same
// pretrained checkpoint for every run.
type TextTopics struct {
	TaskName   string
	Vocab      int
	DocLen     int
	EmbedDim   int
	ClassSkew  float64 // how strongly word use differs between the classes
	PosRate    float64 // marginal probability of the positive class
	StructSeed uint64

	encoder  *tensor.Matrix // Vocab × EmbedDim, frozen
	logitsW  []float64      // per-word class-discriminating weight
	wordBase []float64      // per-word base popularity (unnormalized)
}

// NewTextTopics builds the distribution, its vocabulary statistics, and the
// frozen encoder.
func NewTextTopics(name string, vocab, docLen, embedDim int, skew, posRate float64, structSeed uint64) *TextTopics {
	t := &TextTopics{
		TaskName: name, Vocab: vocab, DocLen: docLen, EmbedDim: embedDim,
		ClassSkew: skew, PosRate: posRate, StructSeed: structSeed,
	}
	r := xrand.New(structSeed)
	t.encoder = tensor.NewMatrix(vocab, embedDim)
	scale := 1 / math.Sqrt(float64(embedDim))
	for i := range t.encoder.Data {
		t.encoder.Data[i] = scale * r.NormFloat64()
	}
	t.logitsW = make([]float64, vocab)
	t.wordBase = make([]float64, vocab)
	for w := 0; w < vocab; w++ {
		t.logitsW[w] = r.NormFloat64()
		t.wordBase[w] = math.Exp(0.8 * r.NormFloat64()) // Zipf-ish popularity
	}
	return t
}

// Sample implements Distribution.
func (t *TextTopics) Sample(n int, r *xrand.Source) *Dataset {
	d := &Dataset{
		Name:       t.TaskName,
		X:          tensor.NewMatrix(n, t.EmbedDim),
		Y:          make([]float64, n),
		NumClasses: 2,
	}
	// Precompute per-class word sampling weights.
	weights := [2][]float64{make([]float64, t.Vocab), make([]float64, t.Vocab)}
	totals := [2]float64{}
	for w := 0; w < t.Vocab; w++ {
		weights[0][w] = t.wordBase[w] * math.Exp(-t.ClassSkew*t.logitsW[w]/2)
		weights[1][w] = t.wordBase[w] * math.Exp(t.ClassSkew*t.logitsW[w]/2)
		totals[0] += weights[0][w]
		totals[1] += weights[1][w]
	}
	counts := make([]float64, t.Vocab)
	for i := 0; i < n; i++ {
		c := 0
		if r.Bernoulli(t.PosRate) {
			c = 1
		}
		d.Y[i] = float64(c)
		for j := range counts {
			counts[j] = 0
		}
		for w := 0; w < t.DocLen; w++ {
			counts[sampleWeighted(weights[c], totals[c], r)]++
		}
		// Frozen-encoder embedding of the bag of words, L2-normalized like a
		// sentence embedding.
		row := d.X.Row(i)
		for w, cnt := range counts {
			if cnt == 0 {
				continue
			}
			tensor.Axpy(cnt, t.encoder.Row(w), row)
		}
		norm := 0.0
		for _, v := range row {
			norm += v * v
		}
		if norm > 0 {
			tensor.Scale(1/math.Sqrt(norm), row)
		}
	}
	return d
}

func sampleWeighted(w []float64, total float64, r *xrand.Source) int {
	u := r.Float64() * total
	acc := 0.0
	for i, v := range w {
		acc += v
		if u < acc {
			return i
		}
	}
	return len(w) - 1
}

// Segmentation simulates a PascalVOC-like dense labelling task. Each "image"
// is a GridSize×GridSize grid of cells; a few object blobs of random classes
// are placed on a background. Each cell is one example whose features mix
// its own class template with its neighbours' (context blur) plus noise; the
// Group field records the image so mean-IoU can be computed per benchmark
// split. Class 0 is background, like the VOC background class.
type Segmentation struct {
	TaskName   string
	GridSize   int
	Classes    int // including background class 0
	FeatDim    int
	MaxObjects int
	NoiseStd   float64
	StructSeed uint64

	templates *tensor.Matrix // Classes × FeatDim
}

// NewSegmentation builds the distribution and its class templates.
func NewSegmentation(name string, grid, classes, featDim, maxObjects int, noise float64, structSeed uint64) *Segmentation {
	s := &Segmentation{
		TaskName: name, GridSize: grid, Classes: classes, FeatDim: featDim,
		MaxObjects: maxObjects, NoiseStd: noise, StructSeed: structSeed,
	}
	r := xrand.New(structSeed)
	s.templates = tensor.NewMatrix(classes, featDim)
	for i := range s.templates.Data {
		s.templates.Data[i] = r.NormFloat64()
	}
	return s
}

// CellsPerImage returns the number of examples one image contributes.
func (s *Segmentation) CellsPerImage() int { return s.GridSize * s.GridSize }

// Sample draws n cells (n is rounded up to whole images).
func (s *Segmentation) Sample(n int, r *xrand.Source) *Dataset {
	cells := s.CellsPerImage()
	images := (n + cells - 1) / cells
	total := images * cells
	d := &Dataset{
		Name:       s.TaskName,
		X:          tensor.NewMatrix(total, s.FeatDim),
		Y:          make([]float64, total),
		NumClasses: s.Classes,
		Group:      make([]int, total),
	}
	g := s.GridSize
	labels := make([]int, cells)
	for img := 0; img < images; img++ {
		for i := range labels {
			labels[i] = 0 // background
		}
		nObj := 1 + r.Intn(s.MaxObjects)
		for o := 0; o < nObj; o++ {
			cls := 1 + r.Intn(s.Classes-1)
			cx, cy := r.Intn(g), r.Intn(g)
			radius := 1 + r.Intn(g/3+1)
			for x := 0; x < g; x++ {
				for y := 0; y < g; y++ {
					dx, dy := x-cx, y-cy
					if dx*dx+dy*dy <= radius*radius {
						labels[x*g+y] = cls
					}
				}
			}
		}
		base := img * cells
		for x := 0; x < g; x++ {
			for y := 0; y < g; y++ {
				i := base + x*g + y
				d.Y[i] = float64(labels[x*g+y])
				d.Group[i] = img
				row := d.X.Row(i)
				// Own template plus blurred neighbour context plus noise.
				copy(row, s.templates.Row(labels[x*g+y]))
				for _, nb := range [][2]int{{x - 1, y}, {x + 1, y}, {x, y - 1}, {x, y + 1}} {
					if nb[0] < 0 || nb[0] >= g || nb[1] < 0 || nb[1] >= g {
						continue
					}
					tensor.Axpy(0.15, s.templates.Row(labels[nb[0]*g+nb[1]]), row)
				}
				for j := range row {
					row[j] += s.NoiseStd * r.NormFloat64()
				}
			}
		}
	}
	return d
}

// Peptide simulates the MHC-I binding-affinity regression task (Appendix
// D.5): inputs are one-hot encoded (allele pocket, peptide) sequence pairs
// and the target is a normalized binding affinity determined by a per-allele
// position-weight motif, plus measurement noise. Alleles and motifs are
// fixed by StructSeed.
type Peptide struct {
	TaskName   string
	Alphabet   int // amino-acid alphabet size (20 in nature)
	PepLen     int
	PocketLen  int
	NumAlleles int
	NoiseStd   float64
	StructSeed uint64

	pockets [][]int          // allele → pocket residue sequence
	motifs  []*tensor.Matrix // allele → PepLen × Alphabet position weights
}

// NewPeptide builds the distribution with its alleles and binding motifs.
func NewPeptide(name string, alphabet, pepLen, pocketLen, alleles int, noise float64, structSeed uint64) *Peptide {
	p := &Peptide{
		TaskName: name, Alphabet: alphabet, PepLen: pepLen,
		PocketLen: pocketLen, NumAlleles: alleles, NoiseStd: noise,
		StructSeed: structSeed,
	}
	r := xrand.New(structSeed)
	p.pockets = make([][]int, alleles)
	p.motifs = make([]*tensor.Matrix, alleles)
	for a := 0; a < alleles; a++ {
		p.pockets[a] = make([]int, pocketLen)
		for i := range p.pockets[a] {
			p.pockets[a][i] = r.Intn(alphabet)
		}
		m := tensor.NewMatrix(pepLen, alphabet)
		for i := range m.Data {
			m.Data[i] = r.NormFloat64()
		}
		p.motifs[a] = m
	}
	return p
}

// Dim returns the one-hot input dimension.
func (p *Peptide) Dim() int { return (p.PocketLen + p.PepLen) * p.Alphabet }

// Sample implements Distribution. Targets are affinities in (0, 1);
// values above 0.5 are conventionally "binders" for AUC evaluation.
func (p *Peptide) Sample(n int, r *xrand.Source) *Dataset {
	d := &Dataset{
		Name: p.TaskName,
		X:    tensor.NewMatrix(n, p.Dim()),
		Y:    make([]float64, n),
	}
	for i := 0; i < n; i++ {
		a := r.Intn(p.NumAlleles)
		row := d.X.Row(i)
		for pos, res := range p.pockets[a] {
			row[pos*p.Alphabet+res] = 1
		}
		score := 0.0
		off := p.PocketLen * p.Alphabet
		for pos := 0; pos < p.PepLen; pos++ {
			res := r.Intn(p.Alphabet)
			row[off+pos*p.Alphabet+res] = 1
			score += p.motifs[a].At(pos, res)
		}
		score = score/math.Sqrt(float64(p.PepLen)) + p.NoiseStd*r.NormFloat64()
		d.Y[i] = 1 / (1 + math.Exp(-score)) // normalized affinity
	}
	return d
}
