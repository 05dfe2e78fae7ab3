package nn

import "fmt"

// flatCursor hands out successive non-overlapping (param, grad) view pairs
// of two contiguous backing arrays. Models built over one cursor therefore
// store every parameter block inside a single []float64, which is what
// lets Params become a single copy and ParamsView a zero-copy borrow. The
// full-slice expressions keep an append on one view from bleeding into the
// next block.
type flatCursor struct {
	params, grads []float64
	off           int
}

func (c *flatCursor) claim(n int) (p, g []float64) {
	p = c.params[c.off : c.off+n : c.off+n]
	g = c.grads[c.off : c.off+n : c.off+n]
	c.off += n
	return p, g
}

// done asserts the cursor consumed its backing exactly.
func (c *flatCursor) done() {
	if c.off != len(c.params) {
		panic(fmt.Sprintf("nn: flat layout claimed %d of %d params", c.off, len(c.params)))
	}
}
