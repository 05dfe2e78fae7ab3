//go:build !(386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm) || purego

package transport

// The portable backend: Params are converted word by word through a
// per-connection scratch, which is right on any byte order.

// wordBytes is the wire image of v, converted into the connection's
// staging buffer; the caller holds c.mu.
//
//spyker:locked(mu)
func (c *Conn) wordBytes(v []float64) []byte {
	if cap(c.stage) < 8*len(v) {
		c.stage = make([]byte, 8*len(v))
	}
	b := c.stage[:8*len(v)]
	putFloats(b, v)
	return b
}

// readWords reads len(dst) words from the connection into the body buffer
// and converts them into dst, refusing NaN and ±Inf.
func (c *Conn) readWords(dst []float64) error {
	b, err := c.readBody(8 * len(dst))
	if err != nil {
		return err
	}
	if !getFloats(dst, b) {
		return errNonFinite
	}
	return nil
}
