package tensor

import (
	"math"
	"testing"
)

func TestShapeNumElements(t *testing.T) {
	cases := []struct {
		shape Shape
		want  int
	}{
		{Shape{}, 1},
		{nil, 1},
		{Shape{5}, 5},
		{Shape{2, 3}, 6},
		{Shape{1, 3, 224, 224}, 150528},
		{Shape{0, 3}, 0},
		{Shape{-1, 3}, 0},
	}
	for _, c := range cases {
		if got := c.shape.NumElements(); got != c.want {
			t.Errorf("NumElements(%v) = %d, want %d", c.shape, got, c.want)
		}
	}
}

func TestShapeStridesRowMajor(t *testing.T) {
	s := Shape{2, 3, 4}
	st := s.Strides()
	want := []int{12, 4, 1}
	for i := range want {
		if st[i] != want[i] {
			t.Fatalf("Strides(%v) = %v, want %v", s, st, want)
		}
	}
}

func TestShapeEqualAndClone(t *testing.T) {
	s := Shape{1, 2, 3}
	c := s.Clone()
	if !s.Equal(c) {
		t.Fatal("clone should equal original")
	}
	c[0] = 9
	if s.Equal(c) {
		t.Fatal("mutating clone must not affect original")
	}
	if s.Equal(Shape{1, 2}) {
		t.Fatal("shapes of different rank must not be equal")
	}
}

func TestNewAndAtSet(t *testing.T) {
	x := New(2, 3)
	x.Set(7, 1, 2)
	if got := x.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v, want 7", got)
	}
	if got := x.At(0, 0); got != 0 {
		t.Fatalf("fresh tensor should be zero, got %v", got)
	}
	if x.Offset(1, 2) != 5 {
		t.Fatalf("Offset(1,2) = %d, want 5", x.Offset(1, 2))
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFromSharesStorage(t *testing.T) {
	backing := []float32{1, 2, 3, 4}
	x := From(backing, 2, 2)
	backing[3] = 42
	if x.At(1, 1) != 42 {
		t.Fatal("From must wrap the slice without copying")
	}
}

func TestFromLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for length mismatch")
		}
	}()
	From([]float32{1, 2, 3}, 2, 2)
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	x.Set(5, 1, 3)
	y := x.Reshape(3, 4)
	if y.At(2, 1) != 5 {
		t.Fatalf("reshape must preserve row-major order: got %v", y.At(2, 1))
	}
	y.Set(9, 0, 0)
	if x.At(0, 0) != 9 {
		t.Fatal("reshape must share storage")
	}
}

func TestCloneIsDeep(t *testing.T) {
	x := New(2, 2).Fill(3)
	y := x.Clone()
	y.Set(8, 0, 0)
	if x.At(0, 0) != 3 {
		t.Fatal("Clone must not share storage")
	}
}

func TestAddAndScale(t *testing.T) {
	a := New(2, 2).Fill(1)
	b := New(2, 2).Fill(2)
	a.Add(b).Scale(3)
	for _, v := range a.Data() {
		if v != 9 {
			t.Fatalf("got %v, want 9", v)
		}
	}
}

func TestSparsityAndCountNonZero(t *testing.T) {
	a := From([]float32{0, 1, 0, 2}, 4)
	if a.Sparsity() != 0.5 {
		t.Fatalf("Sparsity = %v, want 0.5", a.Sparsity())
	}
	if s := From([]float32{0, -0.0, 3}, 3).Sparsity(); s != 2.0/3 {
		t.Fatalf("Sparsity counts -0 as zero: got %v, want 2/3", s)
	}
}

func TestMaxAbsAndSum(t *testing.T) {
	a := From([]float32{-5, 1, 3}, 3)
	if a.MaxAbs() != 5 {
		t.Fatalf("MaxAbs = %v, want 5", a.MaxAbs())
	}
	if a.Sum() != -1 {
		t.Fatalf("Sum = %v, want -1", a.Sum())
	}
}

func TestAllClose(t *testing.T) {
	a := From([]float32{1, 2}, 2)
	b := From([]float32{1.0000001, 2.0000001}, 2)
	if !AllClose(a, b, 1e-5, 1e-5) {
		t.Fatal("nearly equal tensors should be close")
	}
	c := From([]float32{1, 3}, 2)
	if AllClose(a, c, 1e-5, 1e-5) {
		t.Fatal("different tensors should not be close")
	}
	nan := From([]float32{float32(math.NaN()), 2}, 2)
	if AllClose(nan, nan, 1, 1) {
		t.Fatal("NaN must never compare close")
	}
}
