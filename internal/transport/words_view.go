//go:build (386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) && !purego

package transport

import (
	"io"
	"unsafe"

	"github.com/spyker-fl/spyker/internal/tensor"
)

// The view backend: on a little-endian host a []float64 in memory is
// already the wire image of its words, so Params cross the socket as they
// are. This file is the only one in the module that imports unsafe
// (TestUnsafeIsConfined), and floatBytes is its only use: the view aliases
// the vector for as long as the caller holds it, which is the length of
// one write or one read.

// floatBytes is v's memory as bytes.
func floatBytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// wordBytes is the wire image of v: v itself.
func (c *Conn) wordBytes(v []float64) []byte { return floatBytes(v) }

// readWords reads len(dst) words from the connection straight into dst
// and then refuses NaN and ±Inf with one sweep over them
// (tensor.AllFinite).
func (c *Conn) readWords(dst []float64) error {
	if _, err := io.ReadFull(c.raw, floatBytes(dst)); err != nil {
		return err
	}
	if !tensor.AllFinite(dst) {
		return errNonFinite
	}
	return nil
}
