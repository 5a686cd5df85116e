// Package tensor provides dense float32 tensors in NHWC layout and the
// shape arithmetic used throughout PIMFlow. The compiler assumes NHWC
// (channels-last) activations with batch size 1, matching the paper's
// memory-layout optimization (§4.3.2): slicing or concatenating along the
// height dimension of an NHWC tensor is a no-op when the two halves are
// contiguous in memory.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Shape describes a tensor's dimensions. CNN activations use NHWC order
// [N, H, W, C]; weights use [KH, KW, Cin, Cout]; vectors and matrices use
// their natural order.
type Shape []int

// Elems returns the total number of elements, or 0 for an empty shape.
func (s Shape) Elems() int {
	if len(s) == 0 {
		return 0
	}
	n := 1
	for _, d := range s {
		n *= d
	}
	return n
}

// Equal reports whether two shapes have identical rank and dimensions.
func (s Shape) Equal(o Shape) bool {
	if len(s) != len(o) {
		return false
	}
	for i := range s {
		if s[i] != o[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of the shape.
func (s Shape) Clone() Shape {
	c := make(Shape, len(s))
	copy(c, s)
	return c
}

func (s Shape) String() string {
	return fmt.Sprint([]int(s))
}

// Valid reports whether every dimension is positive.
func (s Shape) Valid() bool {
	if len(s) == 0 {
		return false
	}
	for _, d := range s {
		if d <= 0 {
			return false
		}
	}
	return true
}

// Tensor is a dense float32 tensor with row-major storage in the order of
// its Shape.
type Tensor struct {
	Shape Shape
	Data  []float32
}

// New allocates a zero-filled tensor of the given shape.
func New(shape ...int) *Tensor {
	s := Shape(shape).Clone()
	return &Tensor{Shape: s, Data: make([]float32, s.Elems())}
}

// FromSlice wraps data in a tensor after validating the element count.
// Only tests call it: tensor's own, graph's and interp's.
func FromSlice(data []float32, shape ...int) (*Tensor, error) {
	s := Shape(shape).Clone()
	if s.Elems() != len(data) {
		return nil, fmt.Errorf("tensor: %d elements for shape %v (want %d)", len(data), s, s.Elems())
	}
	return &Tensor{Shape: s, Data: data}, nil
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{Shape: t.Shape.Clone(), Data: make([]float32, len(t.Data))}
	copy(c.Data, t.Data)
	return c
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d for shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, d := range t.Shape {
		if idx[i] < 0 || idx[i] >= d {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*d + idx[i]
	}
	return off
}

// FillRandom fills the tensor with deterministic pseudo-random values in
// [-1, 1) derived from seed.
func (t *Tensor) FillRandom(seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := range t.Data {
		t.Data[i] = r.Float32()*2 - 1
	}
}

// Fill sets every element to v. Only tests call it: tensor's own,
// interp's and transform's.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// AllClose reports whether two tensors have identical shape and elementwise
// values within tol (absolute + relative). Only tests call it: tensor's
// own, and those of codegen, graph, interp, lower, search and transform.
func AllClose(a, b *Tensor, tol float64) bool {
	if !a.Shape.Equal(b.Shape) {
		return false
	}
	for i := range a.Data {
		x, y := float64(a.Data[i]), float64(b.Data[i])
		if math.Abs(x-y) > tol+tol*math.Max(math.Abs(x), math.Abs(y)) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum elementwise absolute difference between
// two same-shaped tensors. Only tests call it: tensor's own, and those of
// codegen, lower, search and transform.
func MaxAbsDiff(a, b *Tensor) float64 {
	if !a.Shape.Equal(b.Shape) {
		return math.Inf(1)
	}
	m := 0.0
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i]) - float64(b.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}
