package sched

// Heap is a min-heap of items keyed by a float64 priority with FIFO
// tie-breaking.  The kernel's dispatcher uses it to run tasks in virtual
// arrival order, the discipline of an event-driven simulator: processing
// the earliest-stamped work first keeps a node's virtual clock from being
// dragged forward by a late-stamped message while earlier work waits.
//
// The sifted items hold no pointers, only the key, the insertion seq and
// the index of the value's slot in vals, so a sift moves plain words and
// pays no GC write barrier however many pointers T carries.  Values stay
// put in vals until popped; vacated slots are zeroed and reused.
//
// Like Deque, a Heap is single-owner and needs no locking.
type Heap[T any] struct {
	items []heapItem
	vals  []T
	free  []uint32 // vacated vals slots
	seq   uint64
}

type heapItem struct {
	key  float64
	seq  uint64 // insertion order breaks ties
	slot uint32 // index into vals
}

// Len returns the number of queued items.
func (h *Heap[T]) Len() int { return len(h.items) }

// Empty reports whether the heap is empty.
func (h *Heap[T]) Empty() bool { return len(h.items) == 0 }

func (h *Heap[T]) less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// Push inserts v with the given key.
func (h *Heap[T]) Push(v T, key float64) {
	var slot uint32
	if n := len(h.free); n > 0 {
		slot = h.free[n-1]
		h.free = h.free[:n-1]
		h.vals[slot] = v
	} else {
		slot = uint32(len(h.vals))
		h.vals = append(h.vals, v)
	}
	h.items = append(h.items, heapItem{key: key, seq: h.seq, slot: slot})
	h.seq++
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.items[i], h.items[parent] = h.items[parent], h.items[i]
		i = parent
	}
}

// Pop removes and returns the minimum-key item.
func (h *Heap[T]) Pop() (T, bool) {
	var zero T
	n := len(h.items)
	if n == 0 {
		return zero, false
	}
	slot := h.items[0].slot
	top := h.vals[slot]
	h.vals[slot] = zero // release references
	h.free = append(h.free, slot)
	h.items[0] = h.items[n-1]
	h.items = h.items[:n-1]
	n--
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top, true
}

// MinKey returns the smallest key without removing its item.
func (h *Heap[T]) MinKey() (float64, bool) {
	if len(h.items) == 0 {
		return 0, false
	}
	return h.items[0].key, true
}
