package nn

import (
	"fmt"
	"math"

	"varbench/internal/tensor"
	"varbench/internal/xrand"
)

// Activation selects the hidden non-linearity.
type Activation int

// Supported activations.
const (
	ReLU Activation = iota
	Tanh
)

// Loss selects the training objective.
type Loss int

const (
	// CrossEntropy is softmax cross-entropy over class logits.
	CrossEntropy Loss = iota
	// MSELoss is mean squared error for regression.
	MSELoss
)

// MLP is a fully connected network with one output layer and zero or more
// hidden layers. Weights[l] has shape in_l × out_l; Biases[l] has length
// out_l.
type MLP struct {
	Weights    []*tensor.Matrix
	Biases     [][]float64
	Activation Activation
	Loss       Loss
	Dropout    float64 // hidden-layer dropout probability
}

// NewMLP builds a network with the given layer sizes (input, hidden...,
// output) and initializes all weights from init using the weight stream r.
// Biases start at zero, like the PyTorch defaults used in the paper.
func NewMLP(sizes []int, act Activation, loss Loss, dropout float64,
	init Initializer, r *xrand.Source) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, fmt.Errorf("nn: need at least input and output sizes, got %v", sizes)
	}
	m := &MLP{Activation: act, Loss: loss, Dropout: dropout}
	for l := 0; l+1 < len(sizes); l++ {
		w := tensor.NewMatrix(sizes[l], sizes[l+1])
		init.Init(w, r)
		m.Weights = append(m.Weights, w)
		m.Biases = append(m.Biases, make([]float64, sizes[l+1]))
	}
	return m, nil
}

// NumLayers returns the number of weight layers.
func (m *MLP) NumLayers() int { return len(m.Weights) }

// workspace holds every buffer one forward/backward pass writes: layer
// outputs, pre-dropout activations, dropout masks, deltas, softmax
// probabilities, parameter gradients and an input batch. Buffers are sized
// on first use and resized in place after that, so passes over batches no
// larger than an earlier one allocate nothing. A workspace carries no state
// from one pass to the next (each pass overwrites whatever it later reads).
// A workspace serves one goroutine and one model shape.
type workspace struct {
	outs   []tensor.Matrix // outs[l]: layer l's output; hidden layers after activation and dropout
	acts   []tensor.Matrix // acts[l]: hidden layer l's activations before dropout (dropout passes only)
	masks  []tensor.Matrix // masks[l]: hidden layer l's dropout mask (dropout passes only)
	deltas []tensor.Matrix // deltas[l]: dLoss/dz for layer l's pre-activation output z
	probs  tensor.Matrix   // softmax probabilities (CrossEntropy)
	grad   *gradients      // parameter gradients of the last pass
	batch  tensor.Matrix   // the caller's input batch: an augmented mini-batch or a shard's rows
}

// fit makes room for m's layers; matrices are resized as each pass writes
// them.
func (ws *workspace) fit(m *MLP) {
	if len(ws.outs) == m.NumLayers() {
		return
	}
	n := m.NumLayers()
	ws.outs = make([]tensor.Matrix, n)
	ws.acts = make([]tensor.Matrix, n)
	ws.masks = make([]tensor.Matrix, n)
	ws.deltas = make([]tensor.Matrix, n)
	ws.grad = newGradients(m)
}

// Forward computes raw outputs (logits for classification, values for
// regression) in inference mode: no dropout.
func (m *MLP) Forward(x *tensor.Matrix) *tensor.Matrix {
	return m.forward(new(workspace), x, nil)
}

// forward runs the network on x, writing each layer's values into ws, and
// returns the final raw outputs (a matrix owned by ws). If dropoutRng is
// non-nil and the model has dropout, masks are sampled (training mode,
// inverted dropout scaling 1/(1-p)).
func (m *MLP) forward(ws *workspace, x *tensor.Matrix, dropoutRng *xrand.Source) *tensor.Matrix {
	ws.fit(m)
	drop := dropoutRng != nil && m.Dropout > 0
	h := x
	for l := 0; l < m.NumLayers(); l++ {
		z := ws.outs[l].Resize(h.Rows, m.Weights[l].Cols)
		tensor.MatMulInto(z, h, m.Weights[l])
		bias := m.Biases[l]
		if l == m.NumLayers()-1 {
			for i := 0; i < z.Rows; i++ {
				row := z.Row(i)[:len(bias)]
				for j, b := range bias {
					row[j] += b
				}
			}
			return z
		}
		var acts, mask []float64
		if drop {
			acts = ws.acts[l].Resize(z.Rows, z.Cols).Data
			mask = ws.masks[l].Resize(z.Rows, z.Cols).Data
			dropoutRng.Float64s(mask)
		}
		m.activate(z, bias, acts, mask)
		h = z
	}
	return h
}

// activate finishes hidden layer z = h·W in place: z ← f(z + bias) for the
// activation f, where ReLU maps v < 0 to +0 and passes −0 and NaN through.
// Given a dropout pass's buffers, with mask holding one uniform draw per
// element, it also keeps f(z + bias) in acts, turns each draw u into the
// mask value (1/keep if u < keep, else 0) and leaves the masked activations
// in z. For ReLU that is one pass over the elements.
func (m *MLP) activate(z *tensor.Matrix, bias, acts, mask []float64) {
	n := len(bias)
	relu := m.Activation == ReLU
	keep := 1 - m.Dropout
	scale := 1 / keep
	for i := 0; i < z.Rows; i++ {
		row := z.Row(i)[:n]
		if !relu {
			for j, b := range bias {
				row[j] = math.Tanh(row[j] + b)
			}
		}
		if mask == nil {
			if relu {
				for j, b := range bias {
					v := row[j] + b
					row[j] = sel(v < 0, 0, v)
				}
			}
			continue
		}
		arow, mrow := acts[i*n:][:n], mask[i*n:][:n]
		for j, b := range bias {
			v := row[j]
			if relu {
				v = sel(v+b < 0, 0, v+b)
			}
			mk := sel(mrow[j] < keep, scale, 0)
			arow[j], mrow[j], row[j] = v, mk, v*mk
		}
	}
}

// sel returns x if ok and y otherwise. It picks between the bit patterns
// in integer registers, which the compiler does with a conditional move, so
// the data-dependent selects of a training step cost no mispredicted
// branch. Both patterns are read before the if: a call inlined inside it
// would keep the branch.
func sel(ok bool, x, y float64) float64 {
	xb, b := math.Float64bits(x), math.Float64bits(y)
	if ok {
		b = xb
	}
	return math.Float64frombits(b)
}

// softmaxRows replaces each row of p with its softmax.
func softmaxRows(p *tensor.Matrix) {
	for i := 0; i < p.Rows; i++ {
		row := p.Row(i)
		max := row[0]
		for _, v := range row[1:] {
			max = sel(v > max, v, max)
		}
		sum := 0.0
		for j, v := range row {
			e := math.Exp(v - max)
			row[j] = e
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// gradients holds parameter gradients matching the MLP layout.
type gradients struct {
	w []*tensor.Matrix
	b [][]float64
}

func newGradients(m *MLP) *gradients {
	g := &gradients{}
	for l := range m.Weights {
		g.w = append(g.w, tensor.NewMatrix(m.Weights[l].Rows, m.Weights[l].Cols))
		g.b = append(g.b, make([]float64, len(m.Biases[l])))
	}
	return g
}

func (g *gradients) add(o *gradients) {
	for l := range g.w {
		g.w[l].Add(o.w[l])
		tensor.Axpy(1, o.b[l], g.b[l])
	}
}

// lossAndGrad computes the mean loss over the batch and the parameter
// gradients, given targets y (class indices for CrossEntropy, real values
// for MSELoss). Every intermediate value lives in ws, and so do the returned
// gradients: they are valid until the next pass over ws.
func (m *MLP) lossAndGrad(ws *workspace, x *tensor.Matrix, y []float64, dropoutRng *xrand.Source) (float64, *gradients) {
	out := m.forward(ws, x, dropoutRng)
	n := float64(x.Rows)
	last := m.NumLayers() - 1

	// delta = dLoss/dLogits.
	var loss float64
	delta := ws.deltas[last].Resize(out.Rows, out.Cols)
	switch m.Loss {
	case CrossEntropy:
		probs := ws.probs.Resize(out.Rows, out.Cols)
		copy(probs.Data, out.Data)
		softmaxRows(probs)
		for i := 0; i < out.Rows; i++ {
			c := int(y[i])
			p := probs.At(i, c)
			if p < 1e-12 {
				p = 1e-12
			}
			loss -= math.Log(p)
			prow := probs.Row(i)
			drow := delta.Row(i)
			for j := range drow {
				drow[j] = prow[j] / n
			}
			drow[c] -= 1 / n
		}
		loss /= n
	case MSELoss:
		delta.Zero()
		for i := 0; i < out.Rows; i++ {
			d := out.At(i, 0) - y[i]
			loss += float64(d * d)
			delta.Set(i, 0, 2*d/n)
		}
		loss /= n
	}

	g := ws.grad
	dropped := dropoutRng != nil && m.Dropout > 0
	for l := last; l >= 0; l-- {
		in := x
		if l > 0 {
			in = &ws.outs[l-1]
		}
		// dW = inᵀ·delta ; db = column sums of delta.
		tensor.TMatMulInto(g.w[l], in, delta)
		db := g.b[l]
		for j := range db {
			db[j] = 0
		}
		for i := 0; i < delta.Rows; i++ {
			row := delta.Row(i)
			for j, v := range row {
				db[j] += v
			}
		}
		if l == 0 {
			break
		}
		// Propagate: dIn = delta·Wᵀ, back through dropout, then through the
		// activation using the pre-dropout activation values, in one pass.
		back := ws.deltas[l-1].Resize(delta.Rows, m.Weights[l].Rows)
		tensor.MatMulTInto(back, delta, m.Weights[l])
		acts, mask := in.Data, []float64(nil)
		if dropped {
			acts, mask = ws.acts[l-1].Data, ws.masks[l-1].Data[:len(back.Data)]
		}
		acts = acts[:len(back.Data)]
		tanh := m.Activation == Tanh
		for i, d := range back.Data {
			if dropped {
				d *= mask[i]
			}
			v := acts[i]
			if tanh {
				d *= 1 - float64(v*v)
			} else {
				d = sel(v <= 0, 0, d)
			}
			back.Data[i] = d
		}
		delta = back
	}
	return loss, g
}

// PredictLabels returns argmax class predictions for classification models.
func (m *MLP) PredictLabels(x *tensor.Matrix) []int {
	out := m.Forward(x)
	labels := make([]int, out.Rows)
	for i := 0; i < out.Rows; i++ {
		row := out.Row(i)
		best := 0
		for j := 1; j < len(row); j++ {
			if row[j] > row[best] {
				best = j
			}
		}
		labels[i] = best
	}
	return labels
}

// PredictValues returns scalar predictions for regression models.
func (m *MLP) PredictValues(x *tensor.Matrix) []float64 {
	out := m.Forward(x)
	vals := make([]float64, out.Rows)
	for i := range vals {
		vals[i] = out.At(i, 0)
	}
	return vals
}
