package tensor

import "fmt"

// NHWC layout helpers. An NHWC tensor of shape [N, H, W, C] stores row h as
// a contiguous block of W*C floats, so splitting or concatenating along H
// requires no data movement when the pieces are adjacent in memory — the
// property exploited by PIMFlow's memory-layout optimizer (paper §4.3.2,
// Fig 7).

// SliceH returns rows [h0, h1) of an NHWC tensor as a copy.
func SliceH(t *Tensor, h0, h1 int) (*Tensor, error) {
	if len(t.Shape) != 4 {
		return nil, fmt.Errorf("tensor: SliceH wants NHWC, got shape %v", t.Shape)
	}
	n, h, w, c := t.Shape[0], t.Shape[1], t.Shape[2], t.Shape[3]
	if n != 1 {
		return nil, fmt.Errorf("tensor: SliceH supports batch 1, got N=%d", n)
	}
	if h0 < 0 || h1 > h || h0 >= h1 {
		return nil, fmt.Errorf("tensor: SliceH range [%d,%d) outside H=%d", h0, h1, h)
	}
	out := New(1, h1-h0, w, c)
	copy(out.Data, t.Data[h0*w*c:h1*w*c])
	return out, nil
}

// ConcatH concatenates batch-1 NHWC tensors along the height dimension.
func ConcatH(parts ...*Tensor) (*Tensor, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("tensor: ConcatH of nothing")
	}
	w, c := 0, 0
	totalH := 0
	for i, p := range parts {
		if len(p.Shape) != 4 || p.Shape[0] != 1 {
			return nil, fmt.Errorf("tensor: ConcatH part %d not batch-1 NHWC: %v", i, p.Shape)
		}
		if i == 0 {
			w, c = p.Shape[2], p.Shape[3]
		} else if p.Shape[2] != w || p.Shape[3] != c {
			return nil, fmt.Errorf("tensor: ConcatH part %d shape %v mismatches [1,*,%d,%d]", i, p.Shape, w, c)
		}
		totalH += p.Shape[1]
	}
	out := New(1, totalH, w, c)
	off := 0
	for _, p := range parts {
		copy(out.Data[off:], p.Data)
		off += len(p.Data)
	}
	return out, nil
}

// ConcatC concatenates batch-1 NHWC tensors along the channel dimension.
func ConcatC(parts ...*Tensor) (*Tensor, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("tensor: ConcatC of nothing")
	}
	h, w := 0, 0
	totalC := 0
	for i, p := range parts {
		if len(p.Shape) != 4 || p.Shape[0] != 1 {
			return nil, fmt.Errorf("tensor: ConcatC part %d not batch-1 NHWC: %v", i, p.Shape)
		}
		if i == 0 {
			h, w = p.Shape[1], p.Shape[2]
		} else if p.Shape[1] != h || p.Shape[2] != w {
			return nil, fmt.Errorf("tensor: ConcatC part %d shape %v mismatches [1,%d,%d,*]", i, p.Shape, h, w)
		}
		totalC += p.Shape[3]
	}
	out := New(1, h, w, totalC)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			dst := (y*w + x) * totalC
			for _, p := range parts {
				c := p.Shape[3]
				src := (y*w + x) * c
				copy(out.Data[dst:dst+c], p.Data[src:src+c])
				dst += c
			}
		}
	}
	return out, nil
}

// PadHW zero-pads a batch-1 NHWC tensor spatially: top/bottom rows and
// left/right columns.
func PadHW(t *Tensor, top, bottom, left, right int) (*Tensor, error) {
	if len(t.Shape) != 4 || t.Shape[0] != 1 {
		return nil, fmt.Errorf("tensor: PadHW wants batch-1 NHWC, got %v", t.Shape)
	}
	if top < 0 || bottom < 0 || left < 0 || right < 0 {
		return nil, fmt.Errorf("tensor: PadHW negative padding (%d,%d,%d,%d)", top, bottom, left, right)
	}
	h, w, c := t.Shape[1], t.Shape[2], t.Shape[3]
	out := New(1, h+top+bottom, w+left+right, c)
	for y := 0; y < h; y++ {
		srcRow := y * w * c
		dstRow := ((y+top)*(w+left+right) + left) * c
		copy(out.Data[dstRow:dstRow+w*c], t.Data[srcRow:srcRow+w*c])
	}
	return out, nil
}
