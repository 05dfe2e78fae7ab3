// Package transport implements the wire protocol of the live (non
// simulated) Spyker runtime: one explicit binary frame per message over
// TCP. It carries exactly the message vocabulary of the Spyker protocol —
// client updates, model replies, server-model broadcasts, age
// announcements, the token, and the join handshake.
//
// # Frame layout (wire version 3)
//
// A frame is a 76-byte header followed by a body of the length the
// header declares. All integers are little-endian; a float64 travels as
// its IEEE-754 bit pattern (math.Float64bits), an int as a two's
// complement int64.
//
//	offset size field
//	     0    1 version (3)
//	     1    1 kind (KindHello .. KindJoinReply)
//	     2    2 reserved, zero
//	     4    4 body length in bytes
//	     8    8 From
//	    16    8 Age
//	    24    8 LR
//	    32    8 Bid
//	    40    8 UID
//	    48    8 Epoch
//	    56    4 len(Params)
//	    60    4 len(Ages)
//	    64    4 len(Members)
//	    68    4 len(Addrs)
//	    72    4 len(Blob)
//	    76      body: Params, Ages and Members as 8-byte words, then
//	            every address as a 2-byte length and its bytes, then Blob
//
// Version 2 also carried the sender's merged-updates frontier on every
// server-model frame; a trace reader rebuilds it now. The versions do not
// interoperate: each refuses the other's first frame, version 3 by name.
//
// MsgWireBytes is a frame's exact size, so every byte counter downstream
// (the live server's per-peer counters, trace events) counts true octets.
//
// # The frame body is the vector
//
// Params is the one section that is as large as a model, and on a
// little-endian host its wire image is the vector's own memory. So Params
// are neither converted nor staged. A sender encodes header and tail (all
// that follows Params) into a small per-connection buffer and writes
// header, Params and tail as one net.Buffers — one writev on a TCP
// connection, at most three Writes on any other net.Conn; a frame without
// Params is one Write. A receiver whose target Msg already owns the
// capacity (a client's reused Msg, or one a Supply-ed bounded connection
// fills at the header: a live reader's pooled buffer) reads the Params
// bytes from the socket straight into it and then sweeps the words for
// NaN and ±Inf in place; only the tail is buffered. Any other target that
// does not own the capacity yet (a first frame) takes the buffered path:
// the whole body into the connection's buffer, then Params allocated for
// the bytes that arrived and converted out of it; a buffer that frame grew
// past what a tail needs is then let go, so a connection does not hold a
// model-sized buffer for the rest of its life.
//
// Two files provide the two operations this needs, bytes-of-a-vector
// (wordBytes) and read-words-into-a-vector (readWords); the build picks
// one. words_view.go (little-endian GOARCHs) views the vector's memory as
// bytes — the module's only use of unsafe. words_portable.go (every other
// GOARCH, and any build with -tags purego) converts through a
// per-connection scratch with putFloats/getFloats. Same bytes on the wire,
// same checks, same tests.
//
// # Validation order
//
// RecvInto reads the header alone and refuses the frame — with a
// *FrameError, before one body byte is buffered — unless, in this order:
// the version is 3; the kind is known and the reserved bytes are zero;
// the body is no longer than MaxBody; the five counts account for the
// body length exactly (every address costs at least its length prefix,
// and without addresses nothing may be left over); Age and LR are
// finite; and, once the owner called Bound, Params has the model's
// dimension on the kinds that carry a model and is empty on the others,
// the Ages, Members and Addrs counts stay within the ring bound,
// and there is no Blob. Only then is the body read: Params into memory
// the target already owns or the supplier gives it for the bound
// dimension, everything else into a buffer that grows with
// the bytes that actually arrive — nothing is ever sized by the declared
// length alone. Params and Ages are then tested for NaN and ±Inf, and the
// addresses must fill their section exactly. A frame refused at that
// point has already written over the target's Params, supplied or not:
// they stay the target owner's to reuse or release, and, as after any
// error, hold nothing anyone may read.
//
// # Ownership of decoded slices
//
// Every field of the target Msg is assigned on every decode. Params reuse
// the target's backing array — receivers consume them before the next
// decode and never retain them. Ages, Members, Addrs and
// Blob are fresh on every decode (nil when empty): receivers keep them
// (the token's age vector and membership end up inside ServerCore, the
// address book and join snapshot outlive the frame), so a later decode
// must never write over them.
package transport

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"github.com/spyker-fl/spyker/internal/obs"
)

// Kind discriminates protocol messages.
type Kind int

// Protocol message kinds.
const (
	// KindHello registers a client with its server (From = client ID).
	KindHello Kind = iota + 1
	// KindClientUpdate carries a trained model from client to server.
	KindClientUpdate
	// KindModelReply carries the new server model back to a client.
	KindModelReply
	// KindServerModel is a server-to-server model broadcast.
	KindServerModel
	// KindAge announces a server's model age.
	KindAge
	// KindToken passes the synchronization token.
	KindToken
	// KindShutdown tells a client to stop training and disconnect.
	KindShutdown
	// KindJoinRequest asks a running server to sponsor the sender into
	// the ring (From is unset; Addrs[0] is the joiner's listen address).
	KindJoinRequest
	// KindJoinReply answers a join request: Bid carries the assigned
	// server ID, Epoch/Members/Addrs the post-admission membership and
	// address book, and Blob a JSON-encoded spyker.State snapshot re-keyed
	// for the newcomer.
	KindJoinReply
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindHello:
		return "hello"
	case KindClientUpdate:
		return "client-update"
	case KindModelReply:
		return "model-reply"
	case KindServerModel:
		return "server-model"
	case KindAge:
		return "age"
	case KindToken:
		return "token"
	case KindShutdown:
		return "shutdown"
	case KindJoinRequest:
		return "join-request"
	case KindJoinReply:
		return "join-reply"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// carriesModel reports whether frames of kind k carry a whole model in
// Params.
func (k Kind) carriesModel() bool {
	return k == KindClientUpdate || k == KindModelReply || k == KindServerModel
}

// Msg is one protocol frame. Which fields are meaningful depends on Kind.
type Msg struct {
	Kind   Kind
	From   int       // sender ID (client or server, per Kind)
	Params []float64 // model parameters
	Age    float64   // model age
	LR     float64   // next client learning rate (KindModelReply)
	Bid    int       // synchronization ID (KindServerModel, KindToken)
	Ages   []float64 // token age vector (KindToken)
	UID    obs.UID   // provenance: the update, broadcast copy or round carried (0 = untraced)

	// Elastic-membership header. Epoch/Members version the sender's view
	// of the server ring (server-to-server kinds); Addrs carries the
	// sender's address book aligned with Members so receivers can dial
	// newly admitted peers; Blob is an opaque payload (KindJoinReply
	// carries a JSON-encoded state snapshot in it).
	Epoch   int
	Members []int
	Addrs   []string
	Blob    []byte
}

const (
	wireVersion = 3
	headerSize  = 76

	// MaxBody is the longest frame body any connection accepts or sends
	// (2^28 bytes: a model of 33 million parameters). A connection whose
	// owner called Bound accepts far less.
	MaxBody = 1 << 28

	// maxAddr is the longest address the 2-byte length prefix can carry.
	maxAddr = 1<<16 - 1

	// firstRead is how much body buffer a connection allocates before any
	// body byte has arrived; beyond it the buffer only doubles with what
	// was actually received.
	firstRead = 64 << 10

	// nonFinite is the exponent field of a float64; all ones means NaN or
	// ±Inf.
	nonFinite = 0x7FF << 52
)

// Header field offsets (see the package comment).
const (
	offVersion = 0
	offKind    = 1
	offZero    = 2
	offBody    = 4
	offFrom    = 8
	offAge     = 16
	offLR      = 24
	offBid     = 32
	offUID     = 40
	offEpoch   = 48
	offParams  = 56
	offAges    = 60
	offMembers = 64
	offAddrs   = 68
	offBlob    = 72
)

// FrameError is a frame the receiver refused; Reason names the check it
// failed. RecvInto returns one instead of handing the frame on, and the
// stream is unusable afterwards (the body may not have been consumed).
type FrameError struct{ Reason string }

func (e *FrameError) Error() string { return "transport: refused frame: " + e.Reason }

// The refusals, one per check in the package comment's validation order.
var (
	errVersion   = &FrameError{"unknown wire version"}
	errVersion2  = &FrameError{"wire version 2, superseded by 3"}
	errKind      = &FrameError{"unknown kind"}
	errTooLong   = &FrameError{"body longer than the cap"}
	errCounts    = &FrameError{"counts do not match the body length"}
	errNonFinite = &FrameError{"non-finite value"}
	errDimension = &FrameError{"wrong model dimension"}
	errRing      = &FrameError{"more entries than the ring allows"}
	errAddrs     = &FrameError{"addresses do not fill their section"}
)

// MsgWireBytes is the exact size of m's frame in bytes, header included.
func MsgWireBytes(m *Msg) int {
	n := headerSize + 8*(len(m.Params)+len(m.Ages)+len(m.Members)) + len(m.Blob)
	for _, a := range m.Addrs {
		n += 2 + len(a)
	}
	return n
}

// Sender is the writable half of a connection — what outboxes and fault
// injectors need. *Conn implements it; internal/fault wraps one to
// interpose drop/delay/sever faults between a server and the wire.
type Sender interface {
	Send(m *Msg) error
	Close() error
}

// Conn is a framed connection. Send and SetWriteDeadline are safe for
// concurrent use; Recv, RecvInto and Bound belong to the single reader
// goroutine, and SetReadDeadline may also be called from elsewhere to wake
// it.
type Conn struct {
	raw net.Conn

	// Send side: header and tail are encoded into wbuf, and a frame with
	// Params leaves as bufs (header, Params, tail), which slices iov anew
	// for every frame because WriteTo consumes it. stage is where the
	// portable backend converts Params; the view backend leaves it nil.
	mu    sync.Mutex
	wbuf  []byte      //spyker:guardedby(mu)
	stage []byte      //spyker:guardedby(mu)
	iov   [3][]byte   //spyker:guardedby(mu)
	bufs  net.Buffers //spyker:guardedby(mu)

	// Receive side: the header lands in hdr; rbuf takes the tail, a whole
	// body whose Params the target cannot hold yet, and the Params the
	// portable backend converts.
	hdr  [headerSize]byte
	rbuf []byte

	// What the owner told Bound (bounded is false until then) and Supply.
	bounded   bool
	dim, ring int
	supply    func(n int) []float64
}

// NewConn wraps an established net.Conn.
func NewConn(raw net.Conn) *Conn { return &Conn{raw: raw} }

// Dial connects to addr over TCP.
func Dial(addr string) (*Conn, error) {
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewConn(raw), nil
}

// Bound narrows what RecvInto accepts to what the owner already holds: a
// frame of a kind that carries a model must have exactly dim parameters
// and any other kind none, Ages, Members and Addrs may have at
// most ring entries each, and Blob must be empty. A server calls it on
// its inbound connections — before every receive, since the ring bound
// moves with the membership.
func (c *Conn) Bound(dim, ring int) {
	c.bounded, c.dim, c.ring = true, dim, ring
}

// Supply gives a bounded connection the Params of a model frame whose
// target has none: once the header has passed every check, RecvInto reads
// it into get(dim), never a length the header declares. Unbounded, get is
// never called.
func (c *Conn) Supply(get func(n int) []float64) { c.supply = get }

// SetReadDeadline sets the deadline of pending and future receives; the
// zero time means none.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.raw.SetReadDeadline(t) }

// SetWriteDeadline sets the deadline of pending and future sends; the
// zero time means none. A send that times out may have written part of
// its frame, so the connection is then good only for closing.
func (c *Conn) SetWriteDeadline(t time.Time) error { return c.raw.SetWriteDeadline(t) }

// Send writes m's frame: header and tail from the connection's write
// buffer, Params from where they are (see the package comment). m.Params
// are borrowed until Send returns.
func (c *Conn) Send(m *Msg) error {
	if m.Kind < KindHello || m.Kind > KindJoinReply {
		return fmt.Errorf("transport: send %v: unknown kind", m.Kind)
	}
	for _, a := range m.Addrs {
		if len(a) > maxAddr {
			return fmt.Errorf("transport: send %v: address of %d bytes", m.Kind, len(a))
		}
	}
	body := MsgWireBytes(m) - headerSize
	if body > MaxBody {
		return fmt.Errorf("transport: send %v: body of %d bytes exceeds the cap", m.Kind, body)
	}
	n := headerSize + body - 8*len(m.Params) // header and tail
	c.mu.Lock()
	defer c.mu.Unlock()
	if cap(c.wbuf) < n {
		c.wbuf = make([]byte, n)
	}
	b := c.wbuf[:n]
	encodeHeader(b, m, body)
	encodeTail(b[headerSize:], m)
	var err error
	if len(m.Params) == 0 {
		_, err = c.raw.Write(b)
	} else {
		c.bufs = append(c.iov[:0], b[:headerSize], c.wordBytes(m.Params))
		if n > headerSize {
			c.bufs = append(c.bufs, b[headerSize:])
		}
		_, err = c.bufs.WriteTo(c.raw)
		c.iov = [3][]byte{} // a failed write leaves the borrowed Params behind
	}
	if err != nil {
		return fmt.Errorf("transport: send %v: %w", m.Kind, err)
	}
	return nil
}

// encodeHeader writes the header of m's frame, whose body is body bytes
// long, at the front of b.
func encodeHeader(b []byte, m *Msg, body int) {
	le := binary.LittleEndian
	b[offVersion] = wireVersion
	b[offKind] = byte(m.Kind)
	b[offZero], b[offZero+1] = 0, 0
	le.PutUint32(b[offBody:], uint32(body))
	le.PutUint64(b[offFrom:], uint64(m.From))
	le.PutUint64(b[offAge:], math.Float64bits(m.Age))
	le.PutUint64(b[offLR:], math.Float64bits(m.LR))
	le.PutUint64(b[offBid:], uint64(m.Bid))
	le.PutUint64(b[offUID:], uint64(m.UID))
	le.PutUint64(b[offEpoch:], uint64(m.Epoch))
	le.PutUint32(b[offParams:], uint32(len(m.Params)))
	le.PutUint32(b[offAges:], uint32(len(m.Ages)))
	le.PutUint32(b[offMembers:], uint32(len(m.Members)))
	le.PutUint32(b[offAddrs:], uint32(len(m.Addrs)))
	le.PutUint32(b[offBlob:], uint32(len(m.Blob)))
}

// encodeTail writes what follows Params in m's body into b, which is
// exactly that long.
func encodeTail(b []byte, m *Msg) {
	le := binary.LittleEndian
	b = putFloats(b, m.Ages)
	for _, v := range m.Members {
		le.PutUint64(b, uint64(v))
		b = b[8:]
	}
	for _, a := range m.Addrs {
		le.PutUint16(b, uint16(len(a)))
		b = b[2+copy(b[2:], a):]
	}
	copy(b, m.Blob)
}

// putFloats writes src as 8-byte words at the front of b and returns the
// rest of b. Four words per iteration over slices that shrink as they are
// consumed: the form the compiler proves in bounds, which halves the loop's
// cost against indexing b by 8*i.
func putFloats(b []byte, src []float64) []byte {
	le := binary.LittleEndian
	for len(src) >= 4 && len(b) >= 32 {
		le.PutUint64(b[0:8], math.Float64bits(src[0]))
		le.PutUint64(b[8:16], math.Float64bits(src[1]))
		le.PutUint64(b[16:24], math.Float64bits(src[2]))
		le.PutUint64(b[24:32], math.Float64bits(src[3]))
		b, src = b[32:], src[4:]
	}
	for _, v := range src {
		le.PutUint64(b, math.Float64bits(v))
		b = b[8:]
	}
	return b
}

// getFloats converts the 8-byte words at the front of b into dst and
// reports whether all of them are finite: the exponent test rides in the
// conversion loop (shaped like putFloats'), so validating costs no second
// sweep. It stops at the first NaN or ±Inf.
func getFloats(dst []float64, b []byte) bool {
	le := binary.LittleEndian
	for len(dst) >= 4 && len(b) >= 32 {
		u0, u1, u2, u3 := le.Uint64(b[0:8]), le.Uint64(b[8:16]), le.Uint64(b[16:24]), le.Uint64(b[24:32])
		if u0&nonFinite == nonFinite || u1&nonFinite == nonFinite || u2&nonFinite == nonFinite || u3&nonFinite == nonFinite {
			return false
		}
		dst[0], dst[1] = math.Float64frombits(u0), math.Float64frombits(u1)
		dst[2], dst[3] = math.Float64frombits(u2), math.Float64frombits(u3)
		b, dst = b[32:], dst[4:]
	}
	for i := range dst {
		u := le.Uint64(b)
		if u&nonFinite == nonFinite {
			return false
		}
		dst[i] = math.Float64frombits(u)
		b = b[8:]
	}
	return true
}

// Recv decodes the next message into a fresh Msg.
func (c *Conn) Recv() (*Msg, error) {
	var m Msg
	if err := c.RecvInto(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// RecvInto decodes the next message into m — the allocation-free receive
// path of a long-lived reader loop: a steady stream of same-sized model
// frames lands in m's Params, read from the socket in place. Any Msg,
// including one holding a previous frame, is a valid target (see the
// package comment for which of its slices are reused and which replaced).
// A frame that fails validation yields a *FrameError; after any error m's
// contents are unspecified (its Params may be half a frame) and still m's
// owner's to release.
func (c *Conn) RecvInto(m *Msg) error {
	h := c.hdr[:]
	if _, err := io.ReadFull(c.raw, h); err != nil {
		return err
	}
	le := binary.LittleEndian
	kind := Kind(h[offKind])
	switch {
	case h[offVersion] == 2:
		return errVersion2
	case h[offVersion] != wireVersion:
		return errVersion
	case kind < KindHello || kind > KindJoinReply || h[offZero] != 0 || h[offZero+1] != 0:
		return errKind
	}
	body := int64(le.Uint32(h[offBody:]))
	if body > MaxBody {
		return errTooLong
	}
	nParams := int64(le.Uint32(h[offParams:]))
	nAges := int64(le.Uint32(h[offAges:]))
	nMembers := int64(le.Uint32(h[offMembers:]))
	nAddrs := int64(le.Uint32(h[offAddrs:]))
	nBlob := int64(le.Uint32(h[offBlob:]))
	// What the addresses take beyond their length prefixes; the counts
	// are 32-bit, so the sum cannot overflow an int64.
	addrBytes := body - 8*(nParams+nAges+nMembers) - 2*nAddrs - nBlob
	if addrBytes < 0 || (nAddrs == 0 && addrBytes != 0) {
		return errCounts
	}
	age, lr := le.Uint64(h[offAge:]), le.Uint64(h[offLR:])
	if age&nonFinite == nonFinite || lr&nonFinite == nonFinite {
		return errNonFinite
	}
	if c.bounded {
		want := int64(0)
		if kind.carriesModel() {
			want = int64(c.dim)
		}
		ring := int64(c.ring)
		switch {
		case nParams != want:
			return errDimension
		case nAges > ring || nMembers > ring || nAddrs > ring || nBlob != 0:
			return errRing
		}
	}

	m.Kind = kind
	m.From = int(int64(le.Uint64(h[offFrom:])))
	m.Age = math.Float64frombits(age)
	m.LR = math.Float64frombits(lr)
	m.Bid = int(int64(le.Uint64(h[offBid:])))
	m.UID = obs.UID(le.Uint64(h[offUID:]))
	m.Epoch = int(int64(le.Uint64(h[offEpoch:])))

	var b []byte // what follows Params
	var err error
	if int64(cap(m.Params)) < nParams && c.bounded && c.supply != nil {
		m.Params = c.supply(c.dim) // nParams is dim: the header passed Bound
	}
	if int64(cap(m.Params)) >= nParams {
		m.Params = m.Params[:nParams]
		if err = c.readWords(m.Params); err != nil {
			return err
		}
		if b, err = c.readBody(int(body - 8*nParams)); err != nil {
			return err
		}
	} else {
		// A target without the capacity is given it for bytes that arrived.
		if b, err = c.readBody(int(body)); err != nil {
			return err
		}
		m.Params = make([]float64, nParams)
		finite := getFloats(m.Params, b)
		b = b[8*nParams:]
		if cap(c.rbuf) > firstRead {
			// The Params are out; the connection keeps no model-sized
			// buffer for the tails of later frames (b holds this one's).
			c.rbuf = nil
		}
		if !finite {
			return errNonFinite
		}
	}
	m.Ages, m.Members, m.Addrs, m.Blob = nil, nil, nil, nil
	if nAges|nMembers|nAddrs|nBlob != 0 {
		return m.decodeTail(b, int(nAges), int(nMembers), int(nAddrs), int(nBlob))
	}
	return nil
}

// readBody reads the next n bytes of a body into the connection's buffer.
func (c *Conn) readBody(n int) ([]byte, error) {
	if cap(c.rbuf) < n {
		return c.readGrowing(n)
	}
	b := c.rbuf[:n]
	_, err := io.ReadFull(c.raw, b)
	return b, err
}

// readGrowing is readBody for a body larger than the buffer: the buffer
// starts at firstRead bytes and then doubles only as the bytes arrive, so
// a header that declares a long body and sends none of it has allocated a
// constant.
func (c *Conn) readGrowing(n int) ([]byte, error) {
	b := c.rbuf[:0]
	for len(b) < n {
		step := min(n-len(b), max(len(b), firstRead))
		if cap(b)-len(b) < step {
			b = append(make([]byte, 0, len(b)+step), b...)
		}
		got, err := io.ReadFull(c.raw, b[len(b):len(b)+step])
		b = b[:len(b)+got]
		if err != nil {
			return nil, err
		}
	}
	c.rbuf = b
	return b, nil
}

// decodeTail decodes what follows Params in a body: the control-plane
// vectors of the inter-server and join frames. Ages, Members, Addrs and
// Blob are allocated fresh, because receivers retain them (see the package
// comment). Out of line: model frames between a client and its server
// never get here.
//
//go:noinline
func (m *Msg) decodeTail(b []byte, nAges, nMembers, nAddrs, nBlob int) error {
	le := binary.LittleEndian
	if nAges > 0 {
		m.Ages = make([]float64, nAges)
		if !getFloats(m.Ages, b) {
			return errNonFinite
		}
		b = b[8*nAges:]
	}
	if nMembers > 0 {
		m.Members = make([]int, nMembers)
		for i := range m.Members {
			m.Members[i] = int(int64(le.Uint64(b[8*i:])))
		}
		b = b[8*nMembers:]
	}
	if nAddrs > 0 {
		// One string holds the whole section; the addresses are slices of it.
		sec := string(b[:len(b)-nBlob])
		m.Addrs = make([]string, nAddrs)
		for i := range m.Addrs {
			if len(sec) < 2 {
				return errAddrs
			}
			n := int(sec[0]) | int(sec[1])<<8
			if len(sec) < 2+n {
				return errAddrs
			}
			m.Addrs[i], sec = sec[2:2+n], sec[2+n:]
		}
		if sec != "" {
			return errAddrs
		}
		b = b[len(b)-nBlob:]
	}
	if nBlob > 0 {
		m.Blob = append([]byte(nil), b...)
	}
	return nil
}

// Close closes the underlying connection; pending Recv calls fail.
func (c *Conn) Close() error { return c.raw.Close() }

// Listener accepts framed connections.
type Listener struct {
	l net.Listener
}

// Listen opens a TCP listener on addr ("127.0.0.1:0" for an ephemeral
// test port).
func Listen(addr string) (*Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return &Listener{l: l}, nil
}

// Addr reports the bound address.
func (l *Listener) Addr() string { return l.l.Addr().String() }

// Accept waits for the next connection.
func (l *Listener) Accept() (*Conn, error) {
	raw, err := l.l.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(raw), nil
}

// Close stops the listener; pending Accept calls fail.
func (l *Listener) Close() error { return l.l.Close() }
