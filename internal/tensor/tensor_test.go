package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || m.Stride != 4 {
		t.Fatalf("bad shape: %+v", m)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestSetAtRoundTrip(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At(1,2) = %v, want 7.5", got)
	}
	if m.At(0, 2) != 0 || m.At(1, 1) != 0 {
		t.Fatal("Set modified neighbouring elements")
	}
}

func TestFromSlice(t *testing.T) {
	data := []float32{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, data)
	if m.At(0, 0) != 1 || m.At(1, 2) != 6 {
		t.Fatalf("FromSlice layout wrong: %v", m)
	}
	m.Set(0, 1, 9)
	if data[1] != 9 {
		t.Fatal("FromSlice must share storage")
	}
}

func TestFromSliceBadLength(t *testing.T) {
	defer expectPanic(t, "FromSlice with wrong length")
	FromSlice(2, 3, make([]float32, 5))
}

func TestAtOutOfRange(t *testing.T) {
	m := NewMatrix(2, 2)
	defer expectPanic(t, "At out of range")
	m.At(2, 0)
}

func TestSetOutOfRange(t *testing.T) {
	m := NewMatrix(2, 2)
	defer expectPanic(t, "Set out of range")
	m.Set(0, -1, 1)
}

func TestRowSharesStorage(t *testing.T) {
	m := NewMatrix(3, 3)
	row := m.Row(1)
	row[2] = 42
	if m.At(1, 2) != 42 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestViewAliasing(t *testing.T) {
	m := NewMatrix(4, 5)
	for i := 0; i < 4; i++ {
		for j := 0; j < 5; j++ {
			m.Set(i, j, float32(10*i+j))
		}
	}
	v := m.View(1, 2, 2, 3)
	if v.Rows != 2 || v.Cols != 3 {
		t.Fatalf("view shape %d×%d", v.Rows, v.Cols)
	}
	if v.At(0, 0) != 12 || v.At(1, 2) != 24 {
		t.Fatalf("view contents wrong: %v %v", v.At(0, 0), v.At(1, 2))
	}
	v.Set(0, 0, -1)
	if m.At(1, 2) != -1 {
		t.Fatal("view must alias parent")
	}
}

func TestViewOutOfRange(t *testing.T) {
	m := NewMatrix(4, 5)
	defer expectPanic(t, "View out of range")
	m.View(2, 2, 3, 3)
}

func TestCloneIndependent(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 5)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias source")
	}
}

func TestCloneOfViewIsCompact(t *testing.T) {
	m := NewMatrix(4, 4)
	m.Set(1, 1, 3)
	v := m.View(1, 1, 2, 2)
	c := v.Clone()
	if c.Stride != 2 {
		t.Fatalf("clone of view should be compact, stride %d", c.Stride)
	}
	if c.At(0, 0) != 3 {
		t.Fatal("clone of view lost contents")
	}
}

func TestFillScaleZero(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Fill(2)
	m.Scale(3)
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != 6 {
				t.Fatalf("(%d,%d) = %v, want 6", i, j, m.At(i, j))
			}
		}
	}
	m.Zero()
	if m.At(1, 2) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %d×%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := 1 + int(seed%7&7)
		if r < 1 {
			r = 1
		}
		m := RandMatrix(rng, r, r+1, 1)
		return EqualApprox(m, m.T().T(), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestEqualApprox(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := FromSlice(1, 2, []float32{1.0005, 2})
	if !EqualApprox(a, b, 1e-3) {
		t.Fatal("should be equal within 1e-3")
	}
	if EqualApprox(a, b, 1e-5) {
		t.Fatal("should differ at 1e-5")
	}
	c := NewMatrix(2, 1)
	if EqualApprox(a, c, 1) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{1, 2.5, 2})
	if d := MaxAbsDiff(a, b); math.Abs(d-1) > 1e-9 {
		t.Fatalf("MaxAbsDiff = %v, want 1", d)
	}
}

func TestStringForms(t *testing.T) {
	small := FromSlice(1, 2, []float32{1, 2})
	if s := small.String(); s == "" {
		t.Fatal("empty String for small matrix")
	}
	big := NewMatrix(100, 100)
	if s := big.String(); s != "Matrix(100×100)" {
		t.Fatalf("big matrix String = %q", s)
	}
}

func expectPanic(t *testing.T, what string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s: expected panic", what)
	}
}

// Property: a view's elements always alias the parent at the shifted
// coordinates, for random view rectangles.
func TestViewAliasProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := func(seed uint32) bool {
		m := RandMatrix(rng, 8, 9, 1)
		i := int(seed % 5)
		j := int(seed/5) % 6
		r := int(seed/30)%(8-i) + 1
		c := int(seed/200)%(9-j) + 1
		v := m.View(i, j, r, c)
		for a := 0; a < r; a++ {
			for b := 0; b < c; b++ {
				if v.At(a, b) != m.At(i+a, j+b) {
					return false
				}
			}
		}
		// Mutating the view must hit the parent.
		v.Set(r-1, c-1, 123)
		return m.At(i+r-1, j+c-1) == 123
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
