package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVectorCloneIndependent(t *testing.T) {
	v := Vector{1, 2, 3}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestVectorZeroFillScale(t *testing.T) {
	v := NewVector(3)
	v.Fill(2)
	v.Scale(0.5)
	for _, x := range v {
		if x != 1 {
			t.Fatalf("got %v, want 1", x)
		}
	}
	v.Zero()
	for _, x := range v {
		if x != 0 {
			t.Fatal("Zero failed")
		}
	}
}

func TestAddScaled(t *testing.T) {
	v := Vector{1, 2, 3}
	u := Vector{1, 1, 1}
	v.AddScaled(2, u)
	want := Vector{3, 4, 5}
	if !EqualApproxVec(v, want, 0) {
		t.Fatalf("got %v, want %v", v, want)
	}
}

func TestAddScaledLengthMismatch(t *testing.T) {
	defer expectPanic(t, "AddScaled length mismatch")
	Vector{1}.AddScaled(1, Vector{1, 2})
}

func TestDotKnown(t *testing.T) {
	v := Vector{1, 2, 3}
	u := Vector{4, 5, 6}
	if d := v.Dot(u); d != 32 {
		t.Fatalf("Dot = %v, want 32", d)
	}
}

func TestDotLengthMismatch(t *testing.T) {
	defer expectPanic(t, "Dot length mismatch")
	Vector{1}.Dot(Vector{1, 2})
}

func TestNorm2(t *testing.T) {
	v := Vector{3, 4}
	if n := v.Norm2(); math.Abs(n-5) > 1e-12 {
		t.Fatalf("Norm2 = %v, want 5", n)
	}
}

func TestMaxAbs(t *testing.T) {
	if m := (Vector{1, -7, 3}).MaxAbs(); m != 7 {
		t.Fatalf("MaxAbs = %v, want 7", m)
	}
	if m := (Vector{}).MaxAbs(); m != 0 {
		t.Fatalf("MaxAbs of empty = %v, want 0", m)
	}
}

// Property: dot is symmetric and bilinear within float tolerance.
func TestDotSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(n uint8) bool {
		k := int(n%32) + 1
		v := RandVector(rng, k, 1)
		u := RandVector(rng, k, 1)
		return math.Abs(v.Dot(u)-u.Dot(v)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ||v||² == v·v.
func TestNormDotConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	f := func(n uint8) bool {
		k := int(n%64) + 1
		v := RandVector(rng, k, 2)
		n2 := v.Norm2()
		return math.Abs(n2*n2-v.Dot(v)) < 1e-6*(1+v.Dot(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: AddScaled is linear: (v + a*u) - a*u == v.
func TestAddScaledInverseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(n uint8, a float32) bool {
		if math.IsNaN(float64(a)) || math.IsInf(float64(a), 0) || math.Abs(float64(a)) > 1e3 {
			return true
		}
		k := int(n%32) + 1
		v := RandVector(rng, k, 1)
		orig := v.Clone()
		u := RandVector(rng, k, 1)
		v.AddScaled(a, u)
		v.AddScaled(-a, u)
		return EqualApproxVec(v, orig, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestGlorotInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMatrix(10, 20)
	GlorotInit(rng, m, 10, 20)
	limit := math.Sqrt(6.0 / 30.0)
	var nonZero int
	for _, x := range m.Data {
		if math.Abs(float64(x)) > limit {
			t.Fatalf("Glorot value %v outside ±%v", x, limit)
		}
		if x != 0 {
			nonZero++
		}
	}
	if nonZero < len(m.Data)/2 {
		t.Fatal("Glorot init produced mostly zeros")
	}
}

func TestRandMatrixScale(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := RandMatrix(rng, 8, 8, 0.5)
	for _, x := range m.Data {
		if x < -0.5 || x >= 0.5 {
			t.Fatalf("value %v outside [-0.5, 0.5)", x)
		}
	}
}
