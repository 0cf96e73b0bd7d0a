package dnn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"autohet/internal/mat"
)

func TestTensorBasics(t *testing.T) {
	ts := NewTensor(2, 3, 4)
	ts.Set(1, 2, 3, 7)
	if ts.At(1, 2, 3) != 7 {
		t.Fatal("At/Set wrong")
	}
	if len(ts.Flatten()) != 24 {
		t.Fatal("Flatten length wrong")
	}
	// Flatten is C-major.
	ts.Set(0, 0, 1, 5)
	if ts.Flatten()[1] != 5 {
		t.Fatal("Flatten order wrong")
	}
}

func TestTensorPanics(t *testing.T) {
	cases := []func(){
		func() { NewTensor(0, 1, 1) },
		func() { NewTensor(1, 1, 1).At(1, 0, 0) },
		func() { NewTensor(1, 1, 1).Set(0, 0, -1, 0) },
		func() { NewTensor(1, 2, 2).Patch(pool("p", 2, 2), 0, 0) },
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

func TestPatchInterior(t *testing.T) {
	// 1 channel, 3x3 input, identity layout. k=3, pad=1: patch at (1,1)
	// covers the whole map.
	in := NewTensor(1, 3, 3)
	for y := 0; y < 3; y++ {
		for x := 0; x < 3; x++ {
			in.Set(0, y, x, float64(y*3+x))
		}
	}
	l := conv("c", 3, 1, 1, 1, 1)
	p := in.Patch(l, 1, 1)
	for i := 0; i < 9; i++ {
		if p[i] != float64(i) {
			t.Fatalf("patch = %v", p)
		}
	}
	// Corner patch at (0,0) has zero padding on top/left.
	corner := in.Patch(l, 0, 0)
	want := []float64{0, 0, 0, 0, 0, 1, 0, 3, 4}
	for i := range want {
		if corner[i] != want[i] {
			t.Fatalf("corner patch = %v, want %v", corner, want)
		}
	}
}

func TestPatchMultiChannelOrder(t *testing.T) {
	in := NewTensor(2, 2, 2)
	in.Set(0, 0, 0, 1)
	in.Set(1, 0, 0, 2)
	l := conv("c", 1, 2, 1, 1, 0)
	p := in.Patch(l, 0, 0)
	if p[0] != 1 || p[1] != 2 {
		t.Fatalf("channel order wrong: %v", p)
	}
}

func TestSyntheticTensorDeterministic(t *testing.T) {
	a := SyntheticTensor(2, 3, 3, 9)
	b := SyntheticTensor(2, 3, 3, 9)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("not deterministic")
		}
		if a.Data[i] < 0 || a.Data[i] >= 1 {
			t.Fatal("value out of [0,1)")
		}
	}
	c := SyntheticTensor(2, 3, 3, 10)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical tensors")
	}
}

func TestConvRefMatchesManual(t *testing.T) {
	// 1 input channel, 2x2 input, k=1, 1 output channel, weight 2.0:
	// output = 2*input.
	in := NewTensor(1, 2, 2)
	in.Set(0, 0, 0, 3)
	in.Set(0, 1, 1, 4)
	l := conv("c", 1, 1, 1, 1, 0)
	l.InH, l.InW, l.OutH, l.OutW = 2, 2, 2, 2
	w := mat.FromSlice(1, 1, []float64{2})
	out := ConvRef(l, in, w)
	if out.At(0, 0, 0) != 6 || out.At(0, 1, 1) != 8 {
		t.Fatalf("ConvRef = %v", out.Data)
	}
}

// Property: ConvRef with a k=1 kernel equals a per-pixel matrix multiply.
func TestConvRef1x1Property(t *testing.T) {
	f := func(seed int64) bool {
		in := SyntheticTensor(3, 4, 4, seed)
		l := conv("c", 1, 3, 2, 1, 0)
		l.InH, l.InW, l.OutH, l.OutW = 4, 4, 4, 4
		w := SyntheticWeights(l, seed)
		out := ConvRef(l, in, w)
		for y := 0; y < 4; y++ {
			for x := 0; x < 4; x++ {
				for j := 0; j < 2; j++ {
					var want float64
					for c := 0; c < 3; c++ {
						want += in.At(c, y, x) * w.At(c, j)
					}
					if math.Abs(out.At(j, y, x)-want) > 1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolMaxRef(t *testing.T) {
	in := NewTensor(1, 4, 4)
	for y := 0; y < 4; y++ {
		for x := 0; x < 4; x++ {
			in.Set(0, y, x, float64(y*4+x))
		}
	}
	out := PoolMaxRef(pool("p", 2, 2), in)
	if out.H != 2 || out.W != 2 {
		t.Fatalf("pool out %dx%d", out.H, out.W)
	}
	want := [][]float64{{5, 7}, {13, 15}}
	for y := range want {
		for x := range want[y] {
			if out.At(0, y, x) != want[y][x] {
				t.Fatalf("pool(%d,%d) = %v, want %v", y, x, out.At(0, y, x), want[y][x])
			}
		}
	}
}

// poolMaxAt is PoolMaxRef's oracle: the same window walk through At, with
// the window clipped by bounds checks.
func poolMaxAt(l *Layer, in *Tensor) *Tensor {
	outH := convOut(in.H, l.K, l.Stride, 0)
	outW := convOut(in.W, l.K, l.Stride, 0)
	out := NewTensor(in.C, outH, outW)
	for c := 0; c < in.C; c++ {
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				best := in.At(c, oy*l.Stride, ox*l.Stride)
				for ky := 0; ky < l.K; ky++ {
					for kx := 0; kx < l.K; kx++ {
						y, x := oy*l.Stride+ky, ox*l.Stride+kx
						if y < in.H && x < in.W {
							if v := in.At(c, y, x); v > best {
								best = v
							}
						}
					}
				}
				out.Set(c, oy, ox, best)
			}
		}
	}
	return out
}

// PoolMaxRef indexes its slices directly; it must keep the At walk's
// result bit for bit — which value of a tie or a NaN wins included — over
// windows that do not tile the map, overlapping windows, maps smaller than
// the window, and maps full of NaN, ±0 and ±Inf.
func TestPoolMaxRefMatchesAtWalk(t *testing.T) {
	specials := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), -1.5, 2.25}
	rng := rand.New(rand.NewSource(5))
	for _, kS := range [][2]int{{2, 2}, {3, 2}, {3, 3}, {2, 1}, {3, 1}, {4, 3}} {
		for _, hw := range [][2]int{{4, 4}, {5, 7}, {7, 5}, {1, 1}, {2, 3}, {9, 9}} {
			in := NewTensor(3, hw[0], hw[1])
			for i := range in.Data {
				if rng.Intn(2) == 0 {
					in.Data[i] = specials[rng.Intn(len(specials))]
				} else {
					in.Data[i] = rng.NormFloat64()
				}
			}
			l := pool("p", kS[0], kS[1])
			got, want := PoolMaxRef(l, in), poolMaxAt(l, in)
			if got.C != want.C || got.H != want.H || got.W != want.W {
				t.Fatalf("K=%d S=%d on %dx%d: shape %dx%dx%d, want %dx%dx%d", kS[0], kS[1], hw[0], hw[1],
					got.C, got.H, got.W, want.C, want.H, want.W)
			}
			for i, w := range want.Data {
				if g := got.Data[i]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("K=%d S=%d on %dx%d: out[%d] = %v (%#x), want %v (%#x)", kS[0], kS[1], hw[0], hw[1],
						i, g, math.Float64bits(g), w, math.Float64bits(w))
				}
			}
		}
	}
}

func TestFCRefAndReLU(t *testing.T) {
	l := fc("f", 2, 2)
	w := mat.FromSlice(2, 2, []float64{1, -1, 2, 3})
	out := FCRef(l, []float64{1, 1}, w)
	if out[0] != 3 || out[1] != 2 {
		t.Fatalf("FCRef = %v", out)
	}
	r := ReLU([]float64{-1, 0.5})
	if r[0] != 0 || r[1] != 0.5 {
		t.Fatalf("ReLU = %v", r)
	}
}

func TestReferencePanics(t *testing.T) {
	l1 := conv("c", 3, 2, 2, 1, 1)
	l1.InH, l1.InW, l1.OutH, l1.OutW = 4, 4, 4, 4
	in := NewTensor(3, 4, 4) // wrong channels
	func() {
		defer func() {
			if recover() == nil {
				t.Error("channel mismatch did not panic")
			}
		}()
		ConvRef(l1, in, SyntheticWeights(l1, 1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FCRef length mismatch did not panic")
			}
		}()
		FCRef(fc("f", 3, 1), []float64{1}, mat.New(3, 1))
	}()
}

func TestRunReferenceSmallCNN(t *testing.T) {
	m, err := NewModel("tinycnn", 6, 6, 1, []*Layer{
		conv("c1", 3, 1, 4, 1, 1),
		pool("p1", 2, 2),
		conv("c2", 3, 4, 8, 1, 1),
		pool("p2", 3, 3),
		fc("f1", 8, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	in := SyntheticTensor(1, 6, 6, 3)
	out, err := RunReference(m, in, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 {
		t.Fatalf("output len %d", len(out))
	}
	// Deterministic.
	again, _ := RunReference(m, in, 3)
	for i := range out {
		if out[i] != again[i] {
			t.Fatal("RunReference not deterministic")
		}
	}
	// Wrong input shape must error.
	if _, err := RunReference(m, NewTensor(1, 5, 5), 3); err == nil {
		t.Fatal("wrong input shape must error")
	}
}
