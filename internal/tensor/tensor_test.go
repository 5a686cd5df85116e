package tensor

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestShapeElems(t *testing.T) {
	cases := []struct {
		s    Shape
		want int
	}{
		{Shape{}, 0},
		{Shape{1}, 1},
		{Shape{1, 224, 224, 3}, 150528},
		{Shape{3, 3, 64, 128}, 73728},
	}
	for _, c := range cases {
		if got := c.s.Elems(); got != c.want {
			t.Errorf("Elems(%v) = %d, want %d", c.s, got, c.want)
		}
	}
}

func TestShapeEqualClone(t *testing.T) {
	a := Shape{1, 2, 3}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal")
	}
	b[0] = 9
	if a.Equal(b) {
		t.Fatal("clone aliased original")
	}
	if a.Equal(Shape{1, 2}) {
		t.Fatal("rank mismatch reported equal")
	}
}

func TestShapeValid(t *testing.T) {
	if (Shape{}).Valid() {
		t.Error("empty shape valid")
	}
	if (Shape{1, 0, 2}).Valid() {
		t.Error("zero dim valid")
	}
	if !(Shape{4, 5}).Valid() {
		t.Error("positive shape invalid")
	}
}

func TestAtSetOffset(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7, 1, 2, 3)
	if got := x.At(1, 2, 3); got != 7 {
		t.Fatalf("At = %v, want 7", got)
	}
	// Row-major: offset of [1,2,3] is 1*12 + 2*4 + 3 = 23.
	if x.Data[23] != 7 {
		t.Fatalf("row-major offset wrong: %v", x.Data)
	}
}

func TestOffsetPanics(t *testing.T) {
	x := New(2, 2)
	for _, idx := range [][]int{{0}, {0, 2}, {-1, 0}, {0, 0, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for index %v", idx)
				}
			}()
			x.At(idx...)
		}()
	}
}

func TestFromSlice(t *testing.T) {
	if _, err := FromSlice([]float32{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("size mismatch accepted")
	}
	x, err := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if x.At(1, 1) != 4 {
		t.Fatal("wrong layout")
	}
}

func TestAllCloseAndDiff(t *testing.T) {
	a := New(3)
	b := New(3)
	a.Data = []float32{1, 2, 3}
	b.Data = []float32{1, 2, 3.0000001}
	if !AllClose(a, b, 1e-4) {
		t.Fatal("near-equal tensors reported different")
	}
	b.Data[2] = 4
	if AllClose(a, b, 1e-4) {
		t.Fatal("different tensors reported close")
	}
	if d := MaxAbsDiff(a, b); d < 0.9 || d > 1.1 {
		t.Fatalf("MaxAbsDiff = %v, want ~1", d)
	}
	c := New(4)
	if AllClose(a, c, 1) {
		t.Fatal("shape mismatch reported close")
	}
}

func TestFillRandomDeterministic(t *testing.T) {
	a := New(128)
	b := New(128)
	a.FillRandom(42)
	b.FillRandom(42)
	if !reflect.DeepEqual(a.Data, b.Data) {
		t.Fatal("same seed differs")
	}
	b.FillRandom(43)
	if reflect.DeepEqual(a.Data, b.Data) {
		t.Fatal("different seeds identical")
	}
	for _, v := range a.Data {
		if v < -1 || v >= 1 {
			t.Fatalf("value %v outside [-1,1)", v)
		}
	}
}

func TestSliceHConcatHRoundTrip(t *testing.T) {
	x := New(1, 8, 5, 3)
	x.FillRandom(1)
	lo, err := SliceH(x, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := SliceH(x, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ConcatH(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !AllClose(x, back, 0) {
		t.Fatal("slice+concat changed data")
	}
}

func TestSliceHViewSharesStorage(t *testing.T) {
	x := New(1, 4, 2, 2)
	v, err := SliceHView(x, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	v.Data[0] = 5
	if x.At(0, 1, 0, 0) != 5 {
		t.Fatal("view does not alias")
	}
	if !v.Shape.Equal(Shape{1, 2, 2, 2}) {
		t.Fatalf("view shape %v", v.Shape)
	}
}

func TestSliceHErrors(t *testing.T) {
	x := New(1, 4, 2, 2)
	if _, err := SliceH(x, 2, 2); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := SliceH(x, -1, 2); err == nil {
		t.Error("negative start accepted")
	}
	if _, err := SliceH(x, 0, 5); err == nil {
		t.Error("overrun accepted")
	}
	if _, err := SliceH(New(2, 2), 0, 1); err == nil {
		t.Error("non-NHWC accepted")
	}
	if _, err := SliceH(New(2, 4, 2, 2), 0, 1); err == nil {
		t.Error("batch>1 accepted")
	}
}

func TestConcatC(t *testing.T) {
	a := New(1, 2, 2, 1)
	b := New(1, 2, 2, 2)
	a.Fill(1)
	b.Fill(2)
	out, err := ConcatC(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Shape.Equal(Shape{1, 2, 2, 3}) {
		t.Fatalf("shape %v", out.Shape)
	}
	want := []float32{1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2, 2}
	if !reflect.DeepEqual(out.Data, want) {
		t.Fatalf("data %v, want %v", out.Data, want)
	}
	if _, err := ConcatC(); err == nil {
		t.Error("empty concat accepted")
	}
	if _, err := ConcatC(a, New(1, 3, 2, 1)); err == nil {
		t.Error("H mismatch accepted")
	}
}

func TestPadHW(t *testing.T) {
	x := New(1, 2, 2, 1)
	x.Data = []float32{1, 2, 3, 4}
	p, err := PadHW(x, 1, 0, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Shape.Equal(Shape{1, 3, 3, 1}) {
		t.Fatalf("shape %v", p.Shape)
	}
	want := []float32{0, 0, 0, 1, 2, 0, 3, 4, 0}
	if !reflect.DeepEqual(p.Data, want) {
		t.Fatalf("data %v, want %v", p.Data, want)
	}
	if _, err := PadHW(x, -1, 0, 0, 0); err == nil {
		t.Error("negative pad accepted")
	}
}

// Property: for any valid split point, SliceH halves concatenated along H
// reproduce the original tensor exactly.
func TestPropertySplitConcatIdentity(t *testing.T) {
	f := func(seed int64, hRaw, wRaw, cRaw uint8) bool {
		h := int(hRaw%14) + 2
		w := int(wRaw%8) + 1
		c := int(cRaw%8) + 1
		x := New(1, h, w, c)
		x.FillRandom(seed)
		r := rand.New(rand.NewSource(seed))
		cut := 1 + r.Intn(h-1)
		lo, err := SliceH(x, 0, cut)
		if err != nil {
			return false
		}
		hi, err := SliceH(x, cut, h)
		if err != nil {
			return false
		}
		back, err := ConcatH(lo, hi)
		if err != nil {
			return false
		}
		return AllClose(x, back, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: PadHW preserves the interior values and pads zeros outside.
func TestPropertyPadPreservesInterior(t *testing.T) {
	f := func(seed int64, hRaw, wRaw, padRaw uint8) bool {
		h := int(hRaw%6) + 1
		w := int(wRaw%6) + 1
		p := int(padRaw % 3)
		x := New(1, h, w, 2)
		x.FillRandom(seed)
		out, err := PadHW(x, p, p, p, p)
		if err != nil {
			return false
		}
		for y := 0; y < h; y++ {
			for xx := 0; xx < w; xx++ {
				for cc := 0; cc < 2; cc++ {
					if out.At(0, y+p, xx+p, cc) != x.At(0, y, xx, cc) {
						return false
					}
				}
			}
		}
		var sum, inSum float64
		for _, v := range out.Data {
			sum += float64(v)
		}
		for _, v := range x.Data {
			inSum += float64(v)
		}
		return sum == inSum || p == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// SliceHView returns rows [h0, h1) of an NHWC tensor sharing storage with t.
// This models the zero-copy slice produced by the memory optimizer.
func SliceHView(t *Tensor, h0, h1 int) (*Tensor, error) {
	if len(t.Shape) != 4 || t.Shape[0] != 1 {
		return nil, fmt.Errorf("tensor: SliceHView wants batch-1 NHWC, got shape %v", t.Shape)
	}
	h, w, c := t.Shape[1], t.Shape[2], t.Shape[3]
	if h0 < 0 || h1 > h || h0 >= h1 {
		return nil, fmt.Errorf("tensor: SliceHView range [%d,%d) outside H=%d", h0, h1, h)
	}
	return &Tensor{Shape: Shape{1, h1 - h0, w, c}, Data: t.Data[h0*w*c : h1*w*c]}, nil
}
