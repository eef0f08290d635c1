package sim

// fifo is the wait queue under Mutex, Cond and Resource: a power-of-two ring
// indexed from head, so a queue that fills and drains forever reuses one
// backing array. Popping with q = q[1:] and pushing with append walks the
// slice off the end of its array and re-allocates it every time it wraps.
type fifo[T any] struct {
	buf  []T
	head int
	n    int
}

func (q *fifo[T]) len() int { return q.n }

func (q *fifo[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// grow doubles the ring, unrolling it so the oldest element lands at 0.
func (q *fifo[T]) grow() {
	buf := make([]T, max(4, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// peek returns the oldest element; the queue must not be empty.
func (q *fifo[T]) peek() T { return q.buf[q.head] }

// pop removes and returns the oldest element; the queue must not be empty.
func (q *fifo[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero // drop the *Proc reference
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}
