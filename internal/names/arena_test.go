package names

import (
	"runtime"
	"testing"
	"unsafe"

	"hal/internal/amnet"
)

// Page boundaries as slot indexes: the doubling pages end at slots 64,
// 192, 448 and 960; from 960 on every page holds pageSlots slots.
var pageStarts = []uint64{64, 192, 448, 960, 960 + pageSlots, 960 + 2*pageSlots}

// pagedN spans every doubling page and ~95 fixed pages.
const pagedN = 100_000

func TestArenaPointersStable(t *testing.T) {
	a := NewArena()
	seqs := make([]uint64, pagedN)
	lds := make([]*LD, pagedN)
	for i := range seqs {
		seq, ld := a.Alloc()
		ld.State = LDRemote
		ld.RNode = amnet.NodeID(i % 251)
		ld.RSeq = uint64(i)
		seqs[i], lds[i] = seq, ld
	}
	if a.Cap() != pagedN {
		t.Fatalf("Cap=%d want %d", a.Cap(), pagedN)
	}
	for i, seq := range seqs {
		ld := a.Get(seq)
		if ld != lds[i] {
			t.Fatalf("descriptor %d moved: Alloc gave %p, Get gives %p", i, lds[i], ld)
		}
		if ld.State != LDRemote || ld.RNode != amnet.NodeID(i%251) || ld.RSeq != uint64(i) {
			t.Fatalf("descriptor %d lost its contents: %+v", i, *ld)
		}
	}
}

func TestAllocRangeStraddlesPages(t *testing.T) {
	for _, boundary := range pageStarts {
		a := NewArena()
		for uint64(a.Cap()) < boundary-3 {
			a.Alloc()
		}
		first := a.AllocRange(7)
		if first != boundary-2 {
			t.Fatalf("range starts at %d, want %d", first, boundary-2)
		}
		seen := map[*LD]bool{}
		for i := uint64(0); i < 7; i++ {
			ld := a.Get(MakeSeq(first+i, 0))
			if ld == nil || seen[ld] {
				t.Fatalf("boundary %d: range member %d unresolvable or aliased", boundary, i)
			}
			seen[ld] = true
			ld.RSeq = first + i
		}
		for i := uint64(0); i < 7; i++ {
			if got := a.Get(MakeSeq(first+i, 0)).RSeq; got != first+i {
				t.Fatalf("boundary %d: member %d reads RSeq %d", boundary, i, got)
			}
		}
		if a.Live() != int(boundary-3)+7 {
			t.Fatalf("Live=%d want %d", a.Live(), int(boundary-3)+7)
		}
	}
}

func TestArenaReuseAtPageBoundary(t *testing.T) {
	for _, boundary := range pageStarts {
		a := NewArena()
		var seq uint64
		for seqSlot(seq) != boundary {
			seq, _ = a.Alloc()
		}
		a.Free(seq)
		again, ld := a.Alloc()
		if seqSlot(again) != boundary || seqGen(again) != seqGen(seq)+1 {
			t.Fatalf("boundary %d: realloc got slot %d gen %d, want slot %d gen %d",
				boundary, seqSlot(again), seqGen(again), boundary, seqGen(seq)+1)
		}
		if a.Get(seq) != nil {
			t.Fatalf("boundary %d: stale seq still resolves", boundary)
		}
		if a.Get(again) != ld {
			t.Fatalf("boundary %d: reused slot moved", boundary)
		}
	}
}

// Growth never copies: the heap bytes an arena allocates for n
// descriptors stay within n slots plus one page of slack (slot 0 and the
// unused tail of the last page), plus a 4 KB allowance for the page
// directory and size-class rounding.  Slice doubling would allocate about
// twice the live slots.  TotalAlloc is process-wide, so each n is
// measured three times and the least reading kept: the runtime's own
// sporadic allocations only ever add to it.
func TestArenaGrowthBound(t *testing.T) {
	slot := uint64(unsafe.Sizeof(ldSlot{}))
	for _, n := range []int{63, 960, 960 + pageSlots, pagedN} {
		got := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			a := NewArena()
			for i := 0; i < n; i++ {
				a.Alloc()
			}
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(a)
			got = min(got, after.TotalAlloc-before.TotalAlloc)
		}
		bound := uint64(n)*slot + pageSlots*slot + 4<<10
		if got > bound {
			t.Errorf("n=%d: arena allocated %d B, bound %d B", n, got, bound)
		}
	}
}

// BenchmarkArenaAlloc grows a fresh arena to 64k descriptors per op, the
// size a fib node's arena reaches; B/op is the arena's whole footprint.
func BenchmarkArenaAlloc(b *testing.B) {
	const n = 64 << 10
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := NewArena()
		for j := 0; j < n; j++ {
			a.Alloc()
		}
	}
}

func BenchmarkArenaGet(b *testing.B) {
	const n = 64 << 10
	a := NewArena()
	seqs := make([]uint64, n)
	for i := range seqs {
		seqs[i], _ = a.Alloc()
	}
	b.ResetTimer()
	var hits int
	for i := 0; i < b.N; i++ {
		// A stride coprime with n visits pages in no cache-friendly order.
		if a.Get(seqs[(i*40503)&(n-1)]) != nil {
			hits++
		}
	}
	if hits != b.N {
		b.Fatal("live descriptor missed")
	}
}

func BenchmarkTableLookup(b *testing.B) {
	const n = 64 << 10
	t := NewTable()
	addrs := make([]Addr, n)
	for i := range addrs {
		owner := amnet.NodeID(i % 4)
		addrs[i] = Addr{Birth: owner, Hint: owner, Seq: MakeSeq(uint64(i+1), 0)}
		t.Bind(addrs[i], uint64(i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if t.Lookup(addrs[(i*40503)&(n-1)]) == 0 {
			b.Fatal("bound address missed")
		}
	}
}
