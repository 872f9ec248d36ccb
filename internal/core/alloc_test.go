package core

import (
	"testing"

	"hal/internal/amnet"
	"hal/internal/names"
)

// Allocation guards for the zero-allocation control plane.  Each test
// drives an UNSTARTED machine's kernels from this goroutine — handlers
// and dispatch work exactly as they do live, minus the node goroutines —
// and asserts the steady-state hot path performs no heap allocation.
//
// The guards are skipped under the race detector (its instrumentation
// allocates).  The pools stay on under Config.Faults; there the retry
// table allocates one entry per sequenced packet by design, which
// TestAllocFaultedFIR bounds.

// allocMachine builds an unstarted fault-free machine with a registered
// program whose live count is pre-based at 1, so the measured loops can
// inc/dec live units without ever draining the count to zero (program
// completion runs a sync.Once closure, which allocates).
func allocMachine(t *testing.T, nodes int) (*Machine, *Program) {
	t.Helper()
	return allocMachineCfg(t, Config{Nodes: nodes})
}

// allocMachineCfg is allocMachine with an explicit config, for guards
// that need tracing enabled.
func allocMachineCfg(t *testing.T, cfg Config) (*Machine, *Program) {
	t.Helper()
	m, err := NewMachine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{id: m.progSeq.Add(1), m: m, done: make(chan struct{})}
	m.registerProg(prog)
	m.incLiveAt(m.cfg.Nodes, prog, 1)
	return m, prog
}

type allocSink struct{ calls int }

func (b *allocSink) Receive(_ *Context, _ *Message) { b.calls++ }

func requireAllocsAtMost(t *testing.T, name string, max float64, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	for i := 0; i < 8; i++ {
		fn() // warm pools, staging buffers, and heap backing arrays
	}
	if allocs := testing.AllocsPerRun(200, fn); allocs > max {
		t.Errorf("%s: %.2f allocs/op, want at most %g", name, allocs, max)
	}
}

// TestAllocSendFastZero: the compiler-controlled fast path (locality
// check + inline dispatch) must not allocate.
func TestAllocSendFastZero(t *testing.T) {
	m, prog := allocMachine(t, 1)
	n := m.nodes[0]
	sink := &allocSink{}
	a := n.createLocal(sink)
	a.prog = prog
	ctx := &n.ctx
	ctx.prog = prog
	to := a.Addr()
	requireAllocsAtMost(t, "SendFast", 0, func() {
		if !ctx.SendFast(to, 1) {
			t.Fatal("fast path did not run")
		}
	})
	if sink.calls == 0 {
		t.Fatal("method never dispatched")
	}
}

// TestAllocPooledLocalDelivery: the generic local send — pooled message,
// mail queue, dispatcher task, inline free at dispatch — must not
// allocate in steady state.
func TestAllocPooledLocalDelivery(t *testing.T) {
	m, prog := allocMachine(t, 1)
	n := m.nodes[0]
	sink := &allocSink{}
	a := n.createLocal(sink)
	a.prog = prog
	ctx := &n.ctx
	ctx.prog = prog
	to := a.Addr()
	requireAllocsAtMost(t, "local Send+dispatch", 0, func() {
		ctx.Send(to, 1)
		tk, ok := n.ready.Pop()
		if !ok {
			t.Fatal("send queued no dispatcher task")
		}
		n.execute(tk)
	})
	if sink.calls == 0 {
		t.Fatal("message never delivered")
	}
}

// TestAllocWordEncodedCacheUpdate: a cache update crossing the
// interconnect — word-encoded send, coalesced injection, receive, decode,
// apply — must not allocate on either endpoint.
func TestAllocWordEncodedCacheUpdate(t *testing.T) {
	m, _ := allocMachine(t, 2)
	n0, n1 := m.nodes[0], m.nodes[1]
	// An address unknown on node 1: applyCacheUpdate scans its (empty)
	// descriptor candidates and returns, exercising decode without
	// touching arena state.
	addr := Addr{Birth: 0, Hint: 0, Seq: 7}
	requireAllocsAtMost(t, "cache update", 0, func() {
		n0.sendCacheUpdate(1, addr, 0, 7)
		n0.ep.Flush()
		if n1.ep.PollAll() != 1 {
			t.Fatal("cache update not delivered")
		}
	})
}

// TestAllocWordEncodedReply: a scalar remote reply — tag-encoded send,
// receive, decode, slot fill — must not allocate.  The join continuation
// is sized so the measured fills never complete it.
func TestAllocWordEncodedReply(t *testing.T) {
	m, prog := allocMachine(t, 2)
	n0, n1 := m.nodes[0], m.nodes[1]
	j := n1.newJoin(1<<12, Addr{Birth: 1, Hint: 1, Seq: 1}, func(*Context, []any) {}, prog)
	rt := ReplyTo{Node: 1, JC: j.seq, Slot: 0}
	requireAllocsAtMost(t, "scalar reply", 0, func() {
		n0.sendReply(rt, 7, prog)
		n0.ep.Flush()
		if n1.ep.PollAll() != 1 {
			t.Fatal("reply not delivered")
		}
	})
}

// TestAllocWordEncodedFIR: a single-hop FIR answered "unknown" must not
// allocate: the address rides the packet words, and the pooled record
// travels by reference and rides home to the sender's pool with the
// answer.
func TestAllocWordEncodedFIR(t *testing.T) {
	m, _ := allocMachine(t, 2)
	n0, n1 := m.nodes[0], m.nodes[1]
	addr := Addr{Birth: 0, Hint: 0, Seq: 9}
	requireAllocsAtMost(t, "FIR round trip", 0, func() {
		n0.sendFIR(1, n0.newPath(addr))
		n0.ep.Flush()
		if n1.ep.PollAll() != 1 {
			t.Fatal("FIR not delivered")
		}
		n1.ep.Flush() // the hFIRFound answer back to node 0
		if n0.ep.PollAll() != 1 {
			t.Fatal("FIR answer not delivered")
		}
	})
}

// TestAllocFaultedFIR: under fault injection (a plan that never fires)
// the control-plane pools stay on, so an FIR round trip costs only the
// retry-table entries of its two sequenced packets — the FIR and its
// answer — and a consumed spawn record is recycled by its consumer.
func TestAllocFaultedFIR(t *testing.T) {
	m, prog := allocMachineCfg(t, Config{Nodes: 2, Faults: &amnet.FaultPlan{}})
	n0, n1 := m.nodes[0], m.nodes[1]
	addr := Addr{Birth: 0, Hint: 0, Seq: 9}
	requireAllocsAtMost(t, "faulted FIR round trip", 2, func() {
		n0.sendFIR(1, n0.newPath(addr))
		n0.ep.Flush()
		if n1.ep.PollAll() != 1 {
			t.Fatal("FIR not delivered")
		}
		n1.ep.Flush() // the FIR's ack and the answer back to node 0
		if n0.ep.PollAll() != 2 {
			t.Fatal("FIR answer not delivered")
		}
		n0.ep.Flush() // the answer's ack
		if n1.ep.PollAll() != 1 {
			t.Fatal("answer ack not delivered")
		}
	})

	typ := m.RegisterType("alloc-sink", func([]any) Behavior { return &allocSink{} })
	n0.createRemote(1, typ, nil, prog)
	n0.ep.Flush()
	if n1.ep.PollAll() != 1 {
		t.Fatal("creation request not delivered")
	}
	tk, ok := n1.ready.Pop()
	if !ok || tk.spawn == nil {
		t.Fatal("creation request queued no spawn task")
	}
	n1.execute(tk)
	if k := len(n1.spawnFree); k == 0 || n1.spawnFree[k-1] != tk.spawn {
		t.Error("consumed spawn record not recycled into the consumer's pool under faults")
	}
}

// countSink counts streamed events without retaining them.  The alloc
// guards drive kernels single-threaded, so no locking is needed here;
// live sinks must satisfy the concurrent TraceSink contract.
type countSink struct{ n int }

func (s *countSink) TraceEvent(Event) { s.n++ }

// TestAllocTracedLocalDelivery: ring tracing plus a streaming sink must
// not push the pooled local delivery path off zero allocations — ring
// appends reuse the pre-sized buffer and the sink call passes the event
// by value.
func TestAllocTracedLocalDelivery(t *testing.T) {
	sink := &countSink{}
	m, prog := allocMachineCfg(t, Config{Nodes: 1, TraceBuffer: 256, TraceSink: sink})
	n := m.nodes[0]
	rcv := &allocSink{}
	a := n.createLocal(rcv)
	a.prog = prog
	ctx := &n.ctx
	ctx.prog = prog
	to := a.Addr()
	requireAllocsAtMost(t, "traced local Send+dispatch", 0, func() {
		ctx.Send(to, 1)
		tk, ok := n.ready.Pop()
		if !ok {
			t.Fatal("send queued no dispatcher task")
		}
		n.execute(tk)
	})
	if rcv.calls == 0 {
		t.Fatal("message never delivered")
	}
	if sink.n == 0 {
		t.Fatal("sink saw no events")
	}
	if n.events.total == 0 {
		t.Fatal("ring recorded no events")
	}
}

// TestAllocTracedFIRRoundTrip: the instrumented FIR control path — an
// EvFIRSent trace per request on the way out, the repair-latency
// histogram observed inside the answer handler — must stay
// allocation-free end to end.
func TestAllocTracedFIRRoundTrip(t *testing.T) {
	sink := &countSink{}
	m, _ := allocMachineCfg(t, Config{Nodes: 2, TraceBuffer: 256, TraceSink: sink})
	n0, n1 := m.nodes[0], m.nodes[1]
	seq, ld := n0.arena.Alloc()
	addr := Addr{Birth: 0, Hint: 0, Seq: seq}
	requireAllocsAtMost(t, "traced FIR round trip", 0, func() {
		// Re-arm the descriptor: the previous answer ("unknown") resolved
		// it to NoNode, which suppresses further requests.
		ld.State = names.LDRemote
		ld.RNode, ld.RSeq = 1, 0
		ld.FIRSent = false
		n0.maybeSendFIR(ld, addr)
		n0.ep.Flush()
		if n1.ep.PollAll() != 1 {
			t.Fatal("FIR not delivered")
		}
		n1.ep.Flush()
		if n0.ep.PollAll() != 1 {
			t.Fatal("FIR answer not delivered")
		}
	})
	if sink.n == 0 {
		t.Fatal("sink saw no events")
	}
	if n0.stats.FIRRepair.N == 0 {
		t.Fatal("repair latency never observed")
	}
}

// TestReplyEncodingRoundTrip pins the scalar tags and the boxed fallback.
func TestReplyEncodingRoundTrip(t *testing.T) {
	for _, v := range []any{nil, 0, 42, -7, 3.5, -0.25, true, false} {
		tag, bits, ok := encodeReplyValue(v)
		if !ok {
			t.Fatalf("%v (%T) did not word-encode", v, v)
		}
		if got := decodeReplyValue(tag, bits); got != v {
			t.Errorf("round trip %v (%T): got %v (%T)", v, v, got, got)
		}
	}
	for _, v := range []any{"string", []int{1}, 3.5 + 0i, uint64(1)} {
		if tag, _, ok := encodeReplyValue(v); ok {
			t.Errorf("%T word-encoded as tag %d, want boxed fallback", v, tag)
		}
	}
}

// TestFIREncodingRoundTrip pins the in-process FIR form: the record
// travels by reference and rides home to its originator's pool with the
// answer.  FuzzFIRRoundTrip covers the cross-process form.
func TestFIREncodingRoundTrip(t *testing.T) {
	m, _ := allocMachine(t, 2)
	n0, n1 := m.nodes[0], m.nodes[1]
	n0.sendFIR(1, n0.newPath(Addr{Birth: 0, Hint: 0, Seq: 9}))
	n0.ep.Flush()
	n1.ep.PollAll()
	n1.ep.Flush()
	n0.ep.PollAll()
	if len(n0.pathFree) != 1 || len(n1.pathFree) != 0 {
		t.Errorf("FIR pools hold %d (originator) and %d (answerer) records, want the one record back home", len(n0.pathFree), len(n1.pathFree))
	}
}

// TestLocEncodingRoundTrip pins the location-triple layout, including
// NoNode survival.
func TestLocEncodingRoundTrip(t *testing.T) {
	addr := Addr{Birth: 3, Hint: amnet.NoNode, Seq: 1 << 40}
	p := locPacket(0, 1, addr, amnet.NoNode, 77)
	gotAddr, gotNode, gotSeq := decodeLoc(p)
	if gotAddr != addr || gotNode != amnet.NoNode || gotSeq != 77 {
		t.Errorf("round trip: %+v node=%d seq=%d", gotAddr, gotNode, gotSeq)
	}
}
