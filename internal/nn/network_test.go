package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func newTestNet(seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	return NewNetwork(rng, 3,
		LayerSpec{Out: 8, Act: ReLU},
		LayerSpec{Out: 8, Act: Tanh},
		LayerSpec{Out: 2, Act: Linear},
	)
}

func TestNetworkShapes(t *testing.T) {
	n := newTestNet(1)
	if n.InputSize() != 3 || n.OutputSize() != 2 {
		t.Fatalf("shapes in=%d out=%d", n.InputSize(), n.OutputSize())
	}
	want := 3*8 + 8 + 8*8 + 8 + 8*2 + 2
	if n.NumParams() != want {
		t.Fatalf("NumParams = %d, want %d", n.NumParams(), want)
	}
}

func TestForwardDeterministic(t *testing.T) {
	n := newTestNet(2)
	x := []float64{0.1, -0.2, 0.3}
	a := append([]float64(nil), n.Forward(x)...)
	b := n.Forward(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Forward not deterministic")
		}
	}
}

func TestForwardPanicsOnWrongInput(t *testing.T) {
	n := newTestNet(3)
	defer func() {
		if recover() == nil {
			t.Fatal("Forward with wrong input size did not panic")
		}
	}()
	n.Forward([]float64{1})
}

func TestCloneIndependence(t *testing.T) {
	n := newTestNet(4)
	c := n.Clone()
	x := []float64{1, 2, 3}
	before := append([]float64(nil), c.Forward(x)...)
	n.Layers[0].W.Fill(0)
	after := c.Forward(x)
	for i := range before {
		if before[i] != after[i] {
			t.Fatal("Clone shares weights with original")
		}
	}
}

func TestSoftUpdateConverges(t *testing.T) {
	a := newTestNet(5)
	b := newTestNet(6)
	for i := 0; i < 2000; i++ {
		a.SoftUpdate(b, 0.01)
	}
	for li := range a.Layers {
		if !a.Layers[li].W.Equal(b.Layers[li].W, 1e-6) {
			t.Fatalf("layer %d weights did not converge", li)
		}
	}
}

// TestSoftUpdateBits checks every parameter against (1−τ)·θ + τ·θ_src
// computed in Go, bit for bit, on layers whose sizes leave every tail of
// the 4-wide kernel and with −0, ±Inf and NaN among the parameters.
func TestSoftUpdateBits(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	spec := []LayerSpec{{Out: 7, Act: ReLU}, {Out: 6, Act: Tanh}, {Out: 1, Act: Linear}}
	a, b := NewNetwork(rng, 5, spec...), NewNetwork(rng, 5, spec...)
	specials := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}
	var want [][]float64
	const tau = 0.01
	for i, l := range a.Layers {
		for _, p := range [][2][]float64{{l.W.Data, b.Layers[i].W.Data}, {l.B, b.Layers[i].B}} {
			d, s := p[0], p[1]
			for j := range d {
				if rng.Intn(8) == 0 {
					d[j] = specials[rng.Intn(len(specials))]
				}
				s[j] += rng.NormFloat64()
			}
			w := make([]float64, len(d))
			for j := range w {
				w[j] = (1-tau)*d[j] + tau*s[j]
			}
			want = append(want, w)
		}
	}
	a.SoftUpdate(b, tau)
	for i, l := range a.Layers {
		for p, got := range [][]float64{l.W.Data, l.B} {
			if j := diffAt(got, want[2*i+p]); j >= 0 {
				t.Fatalf("layer %d, %s[%d] = %v, want %v", i, [...]string{"W", "B"}[p], j, got[j], want[2*i+p][j])
			}
		}
	}
}

func TestCopyFrom(t *testing.T) {
	a := newTestNet(7)
	b := newTestNet(8)
	a.CopyFrom(b)
	x := []float64{0.5, -0.5, 0.25}
	av := append([]float64(nil), a.Forward(x)...)
	bv := b.Forward(x)
	for i := range av {
		if math.Abs(av[i]-bv[i]) > 1e-12 {
			t.Fatal("CopyFrom did not copy parameters")
		}
	}
}

// Gradient check: compare analytic Backward gradients against central finite
// differences for every parameter of a small network.
func TestBackwardGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := NewNetwork(rng, 2,
		LayerSpec{Out: 4, Act: Tanh},
		LayerSpec{Out: 3, Act: Sigmoid},
		LayerSpec{Out: 1, Act: Linear},
	)
	x := []float64{0.3, -0.7}
	loss := func() float64 {
		out := n.Forward(x)
		return 0.5 * out[0] * out[0]
	}
	// Analytic gradients.
	n.ZeroGrad()
	out := n.Forward(x)
	n.Backward([]float64{out[0]})
	const eps = 1e-6
	for li, l := range n.Layers {
		for i := range l.W.Data {
			orig := l.W.Data[i]
			l.W.Data[i] = orig + eps
			up := loss()
			l.W.Data[i] = orig - eps
			down := loss()
			l.W.Data[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-l.GW.Data[i]) > 1e-5 {
				t.Fatalf("layer %d W[%d]: analytic %v numeric %v", li, i, l.GW.Data[i], numeric)
			}
		}
		for i := range l.B {
			orig := l.B[i]
			l.B[i] = orig + eps
			up := loss()
			l.B[i] = orig - eps
			down := loss()
			l.B[i] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-l.GB[i]) > 1e-5 {
				t.Fatalf("layer %d B[%d]: analytic %v numeric %v", li, i, l.GB[i], numeric)
			}
		}
	}
}

// Gradient check for the input gradient returned by Backward.
func TestBackwardInputGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := NewNetwork(rng, 3, LayerSpec{Out: 5, Act: ReLU}, LayerSpec{Out: 1, Act: Linear})
	x := []float64{0.4, 0.1, -0.9}
	n.ZeroGrad()
	out := n.Forward(x)
	din := append([]float64(nil), n.Backward([]float64{out[0]})...)
	const eps = 1e-6
	for i := range x {
		xi := x[i]
		x[i] = xi + eps
		up := n.Forward(x)[0]
		upLoss := 0.5 * up * up
		x[i] = xi - eps
		dn := n.Forward(x)[0]
		dnLoss := 0.5 * dn * dn
		x[i] = xi
		numeric := (upLoss - dnLoss) / (2 * eps)
		if math.Abs(numeric-din[i]) > 1e-5 {
			t.Fatalf("input grad[%d]: analytic %v numeric %v", i, din[i], numeric)
		}
	}
}

func TestTrainingReducesLossOnRegression(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := NewNetwork(rng, 1, LayerSpec{Out: 16, Act: Tanh}, LayerSpec{Out: 1, Act: Linear})
	opt := NewAdam(n, 1e-2)
	target := func(x float64) float64 { return math.Sin(3 * x) }
	lossAt := func() float64 {
		var total float64
		for i := 0; i < 50; i++ {
			x := -1 + 2*float64(i)/49
			out := n.Forward([]float64{x})
			d := out[0] - target(x)
			total += d * d
		}
		return total / 50
	}
	before := lossAt()
	for epoch := 0; epoch < 400; epoch++ {
		n.ZeroGrad()
		for i := 0; i < 16; i++ {
			x := rng.Float64()*2 - 1
			out := n.Forward([]float64{x})
			n.Backward([]float64{out[0] - target(x)})
		}
		opt.Step(n, 16)
	}
	after := lossAt()
	if after >= before/4 {
		t.Fatalf("training did not reduce loss: before %v after %v", before, after)
	}
}

func TestAdamStepCountsAndZeroesGrads(t *testing.T) {
	n := newTestNet(12)
	opt := NewAdam(n, 1e-3)
	n.ZeroGrad()
	out := n.Forward([]float64{1, 1, 1})
	n.Backward([]float64{out[0], out[1]})
	if n.GradMaxAbs() == 0 {
		t.Fatal("expected nonzero gradients before step")
	}
	opt.Step(n, 1)
	if opt.Steps() != 1 {
		t.Fatalf("Steps = %d", opt.Steps())
	}
	if n.GradMaxAbs() != 0 {
		t.Fatal("Step must zero gradients")
	}
}

func TestAdamPanicsOnBadBatch(t *testing.T) {
	n := newTestNet(13)
	opt := NewAdam(n, 1e-3)
	defer func() {
		if recover() == nil {
			t.Fatal("Step with batchSize 0 did not panic")
		}
	}()
	opt.Step(n, 0)
}

// TestAdamPanicsOnShapeMismatch steps an optimizer built for one network on
// a network of the same depth with narrower layers: it must panic before
// touching a parameter, not update a part of the network.
func TestAdamPanicsOnShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	opt := NewAdam(newTestNet(14), 1e-3)
	narrow := NewNetwork(rng, 3,
		LayerSpec{Out: 8, Act: ReLU},
		LayerSpec{Out: 4, Act: Tanh},
		LayerSpec{Out: 2, Act: Linear},
	)
	for _, l := range narrow.Layers {
		for i := range l.GW.Data {
			l.GW.Data[i] = 1
		}
	}
	before := narrow.Clone()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Step on a narrower network did not panic")
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, "Adam built for") {
			t.Fatalf("panic %q does not name the shape mismatch", msg)
		}
		for i, l := range narrow.Layers {
			if !l.W.Equal(before.Layers[i].W, 0) {
				t.Fatalf("layer %d updated before the panic", i)
			}
		}
	}()
	opt.Step(narrow, 1)
}

func TestActivationDerivativeMatchesNumeric(t *testing.T) {
	for _, act := range []Activation{Linear, ReLU, Tanh, Sigmoid} {
		for _, x := range []float64{-2, -0.5, 0.3, 1.7} {
			if act == ReLU && x == 0 {
				continue
			}
			const eps = 1e-6
			numeric := (act.Apply(x+eps) - act.Apply(x-eps)) / (2 * eps)
			analytic := act.Derivative(act.Apply(x))
			if math.Abs(numeric-analytic) > 1e-5 {
				t.Errorf("%v'(%v): analytic %v numeric %v", act, x, analytic, numeric)
			}
		}
	}
}

func TestActivationStrings(t *testing.T) {
	names := map[Activation]string{Linear: "linear", ReLU: "relu", Tanh: "tanh", Sigmoid: "sigmoid"}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
	if Activation(99).String() != "unknown" {
		t.Error("unknown activation name wrong")
	}
}

// Property: sigmoid output is always in (0,1) and tanh in (-1,1).
func TestActivationRanges(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		s := Sigmoid.Apply(x)
		th := Tanh.Apply(x)
		return s >= 0 && s <= 1 && th >= -1 && th <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewNetworkPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []func(){
		func() { NewNetwork(rng, 0, LayerSpec{Out: 1}) },
		func() { NewNetwork(rng, 1) },
		func() { NewNetwork(rng, 1, LayerSpec{Out: 0}) },
		func() { NewNetwork(rng, 1, LayerSpec{Out: 8, Act: -1}) },
		func() { NewNetwork(rng, 1, LayerSpec{Out: 8, Act: ReLU}, LayerSpec{Out: 1, Act: Sigmoid + 1}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}
