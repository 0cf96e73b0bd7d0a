package nn

import (
	"fmt"
	"math"

	"autohet/internal/cpufeat"
	"autohet/internal/mat"
)

// Adam implements the Adam optimizer (Kingma & Ba, 2015) over one Network's
// parameters. DDPG conventionally trains both actor and critic with Adam.
type Adam struct {
	LR      float64 // learning rate (step size)
	Beta1   float64 // first-moment decay, default 0.9
	Beta2   float64 // second-moment decay, default 0.999
	Epsilon float64 // numerical floor, default 1e-8

	t  int // step counter
	mW []*mat.Matrix
	vW []*mat.Matrix
	mB [][]float64
	vB [][]float64
}

// NewAdam returns an Adam optimizer bound to net's parameter shapes with the
// conventional default hyperparameters.
func NewAdam(net *Network, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
	for _, l := range net.Layers {
		a.mW = append(a.mW, mat.New(l.W.Rows, l.W.Cols))
		a.vW = append(a.vW, mat.New(l.W.Rows, l.W.Cols))
		a.mB = append(a.mB, make([]float64, len(l.B)))
		a.vB = append(a.vB, make([]float64, len(l.B)))
	}
	return a
}

// Step applies one Adam update using the gradients accumulated in net
// (scaled by 1/batchSize) and clears each gradient as it reads it.
// batchSize must be ≥ 1, and net must have the layer shapes Adam was built
// for.
func (a *Adam) Step(net *Network, batchSize int) {
	if batchSize < 1 {
		panic("nn: Adam.Step batchSize must be >= 1")
	}
	if len(a.mW) != len(net.Layers) {
		panic(fmt.Sprintf("nn: Adam built for %d layers, network has %d", len(a.mW), len(net.Layers)))
	}
	for li, l := range net.Layers {
		if m := a.mW[li]; l.W.Rows != m.Rows || l.W.Cols != m.Cols || len(l.B) != len(a.mB[li]) {
			panic(fmt.Sprintf("nn: Adam built for a %d×%d layer %d, network's is %d×%d",
				m.Rows, m.Cols, li, l.W.Rows, l.W.Cols))
		}
	}
	a.t++
	k := a.coef(batchSize)
	for li, l := range net.Layers {
		k.step(l.W.Data, a.mW[li].Data, a.vW[li].Data, l.GW.Data)
		k.step(l.B, a.mB[li], a.vB[li], l.GB)
	}
}

// Steps reports how many updates have been applied.
func (a *Adam) Steps() int { return a.t }

// adamCoef holds one step's constants in the order adam4 reads them: the
// gradient scale, β1 and 1−β1, β2 and 1−β2, the two bias corrections, the
// learning rate and ε.
type adamCoef struct {
	scale, b1, c1, b2, c2, bc1, bc2, lr, eps float64
}

// coef returns the constants of step a.t at the given batch size.
func (a *Adam) coef(batchSize int) adamCoef {
	return adamCoef{
		scale: 1 / float64(batchSize),
		b1:    a.Beta1,
		c1:    1 - a.Beta1,
		b2:    a.Beta2,
		c2:    1 - a.Beta2,
		bc1:   1 - math.Pow(a.Beta1, float64(a.t)),
		bc2:   1 - math.Pow(a.Beta2, float64(a.t)),
		lr:    a.LR,
		eps:   a.Epsilon,
	}
}

// step updates every parameter w[i] from its gradient gr[i], which it then
// clears, and its moments m[i] and v[i]. On AVX2 hardware adam4 updates
// every full block of four; stepGo updates the rest, and everything
// elsewhere. Both round each operation of stepGo's expressions on its own,
// in its order, so every parameter gets the same bits whichever updates it.
func (k *adamCoef) step(w, m, v, gr []float64) {
	m, v, gr = m[:len(w)], v[:len(w)], gr[:len(w)]
	i := 0
	if cpufeat.AVX2 && len(w) >= 4 {
		i = len(w) &^ 3
		adam4(&w[0], &m[0], &v[0], &gr[0], i/4, k)
	}
	k.stepGo(w[i:], m[i:], v[i:], gr[i:])
}

// stepGo is the portable loop of step.
func (k *adamCoef) stepGo(w, m, v, gr []float64) {
	m, v, gr = m[:len(w)], v[:len(w)], gr[:len(w)]
	for i, g := range gr {
		gr[i] = 0
		g *= k.scale
		m[i] = k.b1*m[i] + k.c1*g
		v[i] = k.b2*v[i] + k.c2*g*g
		mh := m[i] / k.bc1
		vh := v[i] / k.bc2
		w[i] -= k.lr * mh / (math.Sqrt(vh) + k.eps)
	}
}
