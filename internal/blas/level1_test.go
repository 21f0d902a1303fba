package blas

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestAxpy(t *testing.T) {
	x := []float32{1, 2, 3}
	y := []float32{10, 20, 30}
	Axpy(2, x, y)
	want := []float32{12, 24, 36}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("y = %v, want %v", y, want)
		}
	}
}

func TestAxpyMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Axpy(1, []float32{1}, []float32{1, 2})
}

func TestDot(t *testing.T) {
	x := []float32{3, -4}
	if d := Dot(x, x); d != 25 {
		t.Fatalf("Dot = %v", d)
	}
}

func TestDotMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Dot([]float32{1}, []float32{1, 2})
}

func TestCopy(t *testing.T) {
	x := []float32{1, 2}
	y := make([]float32, 2)
	Copy(x, y)
	if y[0] != 1 || y[1] != 2 {
		t.Fatalf("Copy wrong: %v", y)
	}
}

func TestCopyMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Copy([]float32{1}, []float32{1, 2})
}

func TestAxpby(t *testing.T) {
	x := []float32{1, 2}
	y := []float32{10, 20}
	Axpby(2, x, 0.5, y)
	if y[0] != 7 || y[1] != 14 {
		t.Fatalf("Axpby wrong: %v", y)
	}
}

func TestAxpbyMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Axpby(1, []float32{1}, 1, []float32{1, 2})
}

// Property: Axpby(a, x, b, y) == a*x + b*y computed elementwise.
func TestAxpbyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func(n uint8, a, b float32) bool {
		if bad(a) || bad(b) {
			return true
		}
		k := int(n%32) + 1
		x := tensor.RandVector(rng, k, 1)
		y := tensor.RandVector(rng, k, 1)
		got := append([]float32(nil), y...)
		Axpby(a, x, b, got)
		for i := range got {
			want := a*x[i] + b*y[i]
			if math.Abs(float64(got[i]-want)) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot agrees with Cauchy-Schwarz: |x·y| <= ||x||·||y||.
func TestCauchySchwarzProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	f := func(n uint8) bool {
		k := int(n%64) + 1
		x := tensor.RandVector(rng, k, 1)
		y := tensor.RandVector(rng, k, 1)
		return math.Abs(Dot(x, y)) <= math.Sqrt(Dot(x, x))*math.Sqrt(Dot(y, y))+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func bad(f float32) bool {
	v := float64(f)
	return math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e3
}
