package tensor

import (
	"testing"
	"testing/quick"
)

// gemmNaive is the obviously-correct triple loop used as the oracle for the
// blocked Gemm.
func gemmNaive(a, b []float32, m, k, n int) []float32 {
	c := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				c[i*n+j] += a[i*k+p] * b[p*n+j]
			}
		}
	}
	return c
}

func TestGemmSmallKnown(t *testing.T) {
	a := []float32{1, 2, 3, 4} // 2x2
	b := []float32{5, 6, 7, 8} // 2x2
	want := []float32{19, 22, 43, 50}
	c := make([]float32, 4)
	Gemm(a, b, c, 2, 2, 2)
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("Gemm = %v, want %v", c, want)
		}
	}
}

func TestGemmIdentity(t *testing.T) {
	const n = 7
	id := make([]float32, n*n)
	for i := 0; i < n; i++ {
		id[i*n+i] = 1
	}
	r := NewRNG(3)
	a := make([]float32, n*n)
	for i := range a {
		a[i] = float32(r.NormFloat64())
	}
	c := make([]float32, n*n)
	Gemm(a, id, c, n, n, n)
	for i := range a {
		if c[i] != a[i] {
			t.Fatal("A·I must equal A")
		}
	}
}

func TestGemmMatchesNaiveAcrossSizes(t *testing.T) {
	r := NewRNG(11)
	sizes := [][3]int{{1, 1, 1}, {3, 5, 2}, {17, 9, 33}, {64, 64, 64}, {65, 70, 129}, {128, 1, 7}}
	for _, sz := range sizes {
		m, k, n := sz[0], sz[1], sz[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		for i := range a {
			a[i] = float32(r.NormFloat64())
		}
		for i := range b {
			b[i] = float32(r.NormFloat64())
		}
		c := make([]float32, m*n)
		Gemm(a, b, c, m, k, n)
		want := gemmNaive(a, b, m, k, n)
		for i := range want {
			d := float64(c[i] - want[i])
			if d > 1e-4 || d < -1e-4 {
				t.Fatalf("m=%d k=%d n=%d: blocked Gemm diverges from naive at %d: %v vs %v",
					m, k, n, i, c[i], want[i])
			}
		}
	}
}

func TestGemmOverwritesC(t *testing.T) {
	a := []float32{1}
	b := []float32{1}
	c := []float32{99}
	Gemm(a, b, c, 1, 1, 1)
	if c[0] != 1 {
		t.Fatalf("Gemm must overwrite C, got %v", c[0])
	}
}

func TestMatVec(t *testing.T) {
	a := []float32{1, 2, 3, 4, 5, 6} // 2x3
	x := []float32{1, 1, 1}
	y := make([]float32, 2)
	MatVec(a, x, y, 2, 3)
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MatVec = %v, want [6 15]", y)
	}
}

func TestTranspose(t *testing.T) {
	a := From([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	at := Transpose(a)
	if !at.Shape().Equal(Shape{3, 2}) {
		t.Fatalf("transpose shape = %v", at.Shape())
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if at.At(j, i) != a.At(i, j) {
				t.Fatal("transpose values wrong")
			}
		}
	}
}

func TestTransposeInvolutionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, n := 1+r.Intn(20), 1+r.Intn(20)
		a := New(m, n)
		FillGaussian(a, r, 1)
		return MaxAbsDiff(Transpose(Transpose(a)), a) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGemmAssociatesWithTransposeProperty(t *testing.T) {
	// (A·B)^T == B^T · A^T, exact for same accumulation order is not
	// guaranteed, so compare with tolerance.
	f := func(seed uint64) bool {
		r := NewRNG(seed)
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		a, b := New(m, k), New(k, n)
		FillGaussian(a, r, 1)
		FillGaussian(b, r, 1)
		ab, btat := New(m, n), New(n, m)
		Gemm(a.Data(), b.Data(), ab.Data(), m, k, n)
		Gemm(Transpose(b).Data(), Transpose(a).Data(), btat.Data(), n, k, m)
		return AllClose(Transpose(ab), btat, 1e-4, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
