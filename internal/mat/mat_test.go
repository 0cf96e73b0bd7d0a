package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestNewPanicsOnBadDims(t *testing.T) {
	for _, dims := range [][2]int{{0, 1}, {1, 0}, {-1, 2}, {2, -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) did not panic", dims[0], dims[1])
				}
			}()
			New(dims[0], dims[1])
		}()
	}
}

func TestFromSlice(t *testing.T) {
	d := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, d)
	if m.At(0, 0) != 1 || m.At(0, 2) != 3 || m.At(1, 0) != 4 || m.At(1, 2) != 6 {
		t.Fatalf("FromSlice layout wrong: %v", m)
	}
	m.Set(1, 1, 42)
	if d[4] != 42 {
		t.Fatal("FromSlice must wrap, not copy")
	}
}

func TestFromSlicePanicsOnLenMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float64{1, 2, 3})
}

func TestAtSetBounds(t *testing.T) {
	m := New(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestRowIsView(t *testing.T) {
	m := New(3, 2)
	r := m.Row(1)
	r[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must return a view")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestXavierInitBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := New(50, 50)
	m.XavierInit(rng, 50, 50)
	limit := math.Sqrt(6.0 / 100.0)
	if m.MaxAbs() > limit {
		t.Fatalf("Xavier max %v exceeds limit %v", m.MaxAbs(), limit)
	}
	if m.MaxAbs() == 0 {
		t.Fatal("Xavier produced all zeros")
	}
}

func TestScaleAndZeroAndFill(t *testing.T) {
	m := New(2, 2)
	m.Fill(3)
	m.Scale(2)
	if m.At(1, 1) != 6 {
		t.Fatalf("Fill+Scale = %v", m.At(1, 1))
	}
	m.Zero()
	if m.MaxAbs() != 0 {
		t.Fatal("Zero left nonzero elements")
	}
}

func TestEqual(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(1, 2, []float64{1, 2 + 1e-10})
	if !a.Equal(b, 1e-9) {
		t.Fatal("Equal within tol failed")
	}
	if a.Equal(b, 1e-12) {
		t.Fatal("Equal outside tol succeeded")
	}
	c := New(2, 1)
	if a.Equal(c, 1) {
		t.Fatal("Equal with shape mismatch succeeded")
	}
}

func TestAddScaled(t *testing.T) {
	a := FromSlice(1, 2, []float64{1, 2})
	b := FromSlice(1, 2, []float64{10, 20})
	a.AddScaled(b, 0.1)
	if a.At(0, 0) != 2 || a.At(0, 1) != 4 {
		t.Fatalf("AddScaled = %v", a)
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	big := New(10, 10)
	if s := big.String(); s == "" {
		t.Fatal("String returned empty")
	}
}

// Property: Dot is symmetric and scales exactly with a power-of-two factor.
func TestDotConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i], b[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		if math.Abs(Dot(a, b)-Dot(b, a)) > 1e-12 {
			return false
		}
		a2 := make([]float64, n)
		for i, v := range a {
			a2[i] = 2 * v
		}
		return Dot(a2, b) == 2*Dot(a, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
