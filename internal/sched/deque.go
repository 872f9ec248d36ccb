// Package sched provides the dispatcher data structures of the HAL runtime
// kernel: the ready heap, which orders runnable work (an actor's next
// message, a join continuation, a broadcast, a creation request) by
// virtual arrival time, and ring-buffer deques for each actor's mail queue
// and the spawn queue (deferred creations eligible for load balancing).
//
// Both are shaped for the garbage collector: the heap sifts pointer-free
// items and keeps its values in a side array, and a deque's first buffer
// holds two elements, the depth of a typical actor's mail queue.
//
// The paper's dispatcher "provides the data structures that are necessary
// for scheduling actors" while the actors schedule themselves; likewise
// these structures are passive and entirely node-local.  Even work
// stealing needs no synchronization here, because a thief asks the victim
// node (by active message) to pop the victim's own queue: each deque is
// only ever touched by its owning goroutine.
package sched

// Deque is a growable double-ended queue backed by a power-of-two ring
// buffer.  The zero value is ready to use.  It is not safe for concurrent
// use; every instance is owned by one node goroutine.
//
// Convention in the kernel: local work is pushed and popped at the back
// (LIFO, depth-first, cache-friendly — the paper's stack-like scheduling),
// while steals take from the front (oldest, typically biggest work units),
// mirroring the work-stealing discipline the load balancer needs.
type Deque[T any] struct {
	buf  []T
	head int // index of front element
	n    int // number of elements
}

// Len returns the number of queued elements.
func (d *Deque[T]) Len() int { return d.n }

// Empty reports whether the deque has no elements.
func (d *Deque[T]) Empty() bool { return d.n == 0 }

func (d *Deque[T]) grow() {
	// Most mail queues hold one or two messages at a time, so the first
	// buffer is two slots; busier queues double from there.
	newCap := 2
	if len(d.buf) > 0 {
		newCap = len(d.buf) * 2
	}
	nb := make([]T, newCap)
	for i := 0; i < d.n; i++ {
		nb[i] = d.buf[(d.head+i)&(len(d.buf)-1)]
	}
	d.buf = nb
	d.head = 0
}

// PushBack appends v at the back.
func (d *Deque[T]) PushBack(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.buf[(d.head+d.n)&(len(d.buf)-1)] = v
	d.n++
}

// PushFront prepends v at the front.
func (d *Deque[T]) PushFront(v T) {
	if d.n == len(d.buf) {
		d.grow()
	}
	d.head = (d.head - 1) & (len(d.buf) - 1)
	d.buf[d.head] = v
	d.n++
}

// PopFront removes and returns the front element.
func (d *Deque[T]) PopFront() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	v := d.buf[d.head]
	d.buf[d.head] = zero // release reference for GC
	d.head = (d.head + 1) & (len(d.buf) - 1)
	d.n--
	return v, true
}

// PopBack removes and returns the back element.
func (d *Deque[T]) PopBack() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	i := (d.head + d.n - 1) & (len(d.buf) - 1)
	v := d.buf[i]
	d.buf[i] = zero
	d.n--
	return v, true
}

// Front returns the front element without removing it.
func (d *Deque[T]) Front() (T, bool) {
	var zero T
	if d.n == 0 {
		return zero, false
	}
	return d.buf[d.head], true
}

// Clear removes all elements, releasing references.
func (d *Deque[T]) Clear() {
	var zero T
	for i := 0; i < d.n; i++ {
		d.buf[(d.head+i)&(len(d.buf)-1)] = zero
	}
	d.head, d.n = 0, 0
}
