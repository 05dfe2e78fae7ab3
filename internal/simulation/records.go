package simulation

// Slab is a free-list store of the records typed events carry: New hands
// out a record and its index — the index goes into a Job — and Free
// returns it for reuse, so a steady stream of messages allocates nothing.
// Records are allocated one by one and never move: a pointer from At stays
// valid across later calls to New, such as those a handler makes while it
// still reads its own record. The zero value is ready.
type Slab[T any] struct {
	recs []*T
	free []int
}

// New returns a zeroed record and its index.
func (s *Slab[T]) New() (int, *T) {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i, s.recs[i]
	}
	s.recs = append(s.recs, new(T))
	return len(s.recs) - 1, s.recs[len(s.recs)-1]
}

// At returns record i, which must not have been freed since New.
func (s *Slab[T]) At(i int) *T { return s.recs[i] }

// Free zeroes record i, dropping every reference it held, and makes its
// index available to New.
func (s *Slab[T]) Free(i int) {
	var zero T
	*s.recs[i] = zero
	s.free = append(s.free, i)
}

// FIFO is a growable ring of values, oldest first: the records of a link's
// messages in flight or of a queue's pending jobs, which leave in the
// order they came (see the package comment). The zero value is ready.
type FIFO[T any] struct {
	buf  []T // len is a power of two, or zero
	head int
	n    int
}

// Push appends v.
func (q *FIFO[T]) Push(v T) {
	if q.n == len(q.buf) {
		grown := make([]T, max(4, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// Pop removes and returns the oldest value; the FIFO must not be empty.
// The slot is zeroed, so the ring keeps no reference to a popped value.
func (q *FIFO[T]) Pop() T {
	if q.n == 0 {
		panic("simulation: Pop of an empty FIFO")
	}
	var zero T
	v := q.buf[q.head]
	q.buf[q.head] = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
