package tensor

import (
	"math"
	"testing"
)

func TestRNGDeterministic(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	rng := NewRNG(7)
	for i := 0; i < 1000; i++ {
		v := rng.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10)=%d out of range", v)
		}
	}
}

func TestRNGFloat32Range(t *testing.T) {
	rng := NewRNG(8)
	for i := 0; i < 1000; i++ {
		v := rng.Float32()
		if v < 0 || v >= 1 {
			t.Fatalf("Float32()=%g out of [0,1)", v)
		}
	}
}

func TestGlorotUniformScale(t *testing.T) {
	rng := NewRNG(9)
	m := GlorotUniform(100, 100, rng)
	limit := float32(math.Sqrt(6.0 / 200))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("glorot value %g outside ±%g", v, limit)
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := NewRNG(10)
	a := Random(3, 3, 1, rng)
	c := a.Clone()
	c.Data[0] = 999
	if a.Data[0] == 999 {
		t.Error("clone aliases original")
	}
}
