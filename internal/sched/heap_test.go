package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHeapEmpty(t *testing.T) {
	var h Heap[int]
	if !h.Empty() || h.Len() != 0 {
		t.Fatal("zero heap not empty")
	}
	if _, ok := h.Pop(); ok {
		t.Fatal("Pop on empty returned ok")
	}
	if _, ok := h.MinKey(); ok {
		t.Fatal("MinKey on empty returned ok")
	}
}

func TestHeapOrdersByKey(t *testing.T) {
	var h Heap[string]
	h.Push("c", 3)
	h.Push("a", 1)
	h.Push("b", 2)
	for _, want := range []string{"a", "b", "c"} {
		v, ok := h.Pop()
		if !ok || v != want {
			t.Fatalf("got %q want %q", v, want)
		}
	}
}

func TestHeapFIFOTieBreak(t *testing.T) {
	var h Heap[int]
	for i := 0; i < 50; i++ {
		h.Push(i, 7.0)
	}
	for i := 0; i < 50; i++ {
		v, _ := h.Pop()
		if v != i {
			t.Fatalf("tie-break not FIFO: got %d want %d", v, i)
		}
	}
}

func TestHeapMinKey(t *testing.T) {
	var h Heap[int]
	h.Push(1, 5)
	h.Push(2, 3)
	if k, ok := h.MinKey(); !ok || k != 3 {
		t.Fatalf("MinKey=%v,%v", k, ok)
	}
	if h.Len() != 2 {
		t.Fatal("MinKey consumed an item")
	}
}

// Property: popping everything yields keys in nondecreasing order and the
// same multiset that went in.
func TestHeapSortsProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(nRaw % 500)
		var h Heap[float64]
		keys := make([]float64, n)
		for i := range keys {
			keys[i] = float64(rng.Intn(100))
			h.Push(keys[i], keys[i])
		}
		var got []float64
		for {
			v, ok := h.Pop()
			if !ok {
				break
			}
			got = append(got, v)
		}
		if len(got) != n {
			return false
		}
		if !sort.Float64sAreSorted(got) {
			return false
		}
		sort.Float64s(keys)
		for i := range keys {
			if keys[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHeapInterleavedPushPop(t *testing.T) {
	var h Heap[int]
	h.Push(5, 5)
	h.Push(1, 1)
	if v, _ := h.Pop(); v != 1 {
		t.Fatal("wrong min")
	}
	h.Push(0, 0)
	h.Push(9, 9)
	if v, _ := h.Pop(); v != 0 {
		t.Fatal("wrong min after interleave")
	}
	if v, _ := h.Pop(); v != 5 {
		t.Fatal("wrong order")
	}
	if v, _ := h.Pop(); v != 9 {
		t.Fatal("wrong last")
	}
}

// Property: any interleaving of Push and Pop pops in (key, insertion
// order), the order a reference list keeps by linear scan, and the value
// slots are reused so the slot array never outgrows the deepest queue.
func TestHeapMatchesReferenceOrder(t *testing.T) {
	type ref struct {
		key float64
		seq int // also the pushed value
	}
	f := func(seed int64, opsRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Heap[int]
		var model []ref
		seq, deepest := 0, 0
		for op := 0; op < int(opsRaw%2000); op++ {
			if rng.Intn(5) < 3 {
				k := float64(rng.Intn(8)) // few keys: ties are common
				h.Push(seq, k)
				model = append(model, ref{k, seq})
				seq++
				deepest = max(deepest, len(model))
				continue
			}
			v, ok := h.Pop()
			if len(model) == 0 {
				if ok {
					return false
				}
				continue
			}
			best := 0
			for i, r := range model {
				if r.key < model[best].key || (r.key == model[best].key && r.seq < model[best].seq) {
					best = i
				}
			}
			if !ok || v != model[best].seq {
				return false
			}
			model = append(model[:best], model[best+1:]...)
			if h.Len() != len(model) || len(h.vals) > deepest {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Pop must not leave the popped value reachable from the heap.
func TestHeapPopReleasesValue(t *testing.T) {
	var h Heap[*int]
	vals := make([]*int, 6)
	for i := range vals {
		vals[i] = new(int)
		h.Push(vals[i], float64(i%3))
	}
	for range 4 {
		v, _ := h.Pop()
		for _, slot := range h.free {
			if h.vals[slot] != nil {
				t.Fatalf("vacated slot %d still holds a value", slot)
			}
		}
		for _, held := range h.vals {
			if held == v {
				t.Fatal("heap still references a popped value")
			}
		}
	}
	if len(h.free) != 4 || h.Len() != 2 {
		t.Fatalf("free=%d len=%d, want 4 and 2", len(h.free), h.Len())
	}
}

// benchTask has the dispatcher task's shape: four pointer words and a
// float, so the benchmark sees what sifting the real ready heap costs.
type benchTask struct {
	a, b, c, d *int
	vt         float64
}

// BenchmarkHeapPushPop pushes and pops one task per op at a steady depth:
// 16 is a quiet node's ready heap, 32k a fib node's under load.
func BenchmarkHeapPushPop(b *testing.B) {
	for _, depth := range []int{16, 32 << 10} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var h Heap[benchTask]
			x := new(int)
			task := benchTask{a: x, b: x, c: x, d: x}
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < depth; i++ {
				h.Push(task, rng.Float64())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.Push(task, rng.Float64())
				h.Pop()
			}
		})
	}
}
