package sock

import (
	"path/filepath"
	"sync"
	"testing"
	"time"

	"hal/internal/amnet"
)

// sendAll offers n hLog packets numbered from 0, retrying each refusal
// (a full session) until bootTimeout passes; every 64th is urgent.
func sendAll(t *testing.T, tr *Transport, src, dst amnet.NodeID, from, n int) {
	t.Helper()
	deadline := time.Now().Add(bootTimeout)
	for i := from; i < from+n; i++ {
		p := amnet.Packet{Handler: hLog, Src: src, Dst: dst, U0: uint64(i)}
		for !tr.TrySend(p, i%64 == 0) {
			if time.Now().After(deadline) {
				t.Errorf("packet %d to node %d: session refused until the deadline", i, dst)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// awaitLogged waits until node id on n has logged at least want values.
func awaitLogged(t *testing.T, n *wireNode, id amnet.NodeID, want int) []uint64 {
	t.Helper()
	deadline := time.Now().Add(bootTimeout)
	for {
		got := n.logged(id)
		if len(got) >= want {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d logged %d of %d packets within %v", id, len(got), want, bootTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkSequence requires got to be exactly 0, 1, ..., want-1.
func checkSequence(t *testing.T, what string, got []uint64, want int) {
	t.Helper()
	if len(got) != want {
		t.Fatalf("%s: %d packets delivered, want exactly %d", what, len(got), want)
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("%s: position %d holds packet %d (lost, duplicated or reordered)", what, i, v)
		}
	}
}

// TestSessionExactlyOnceAcrossBounces streams numbered packets both ways
// across a link whose connection is killed every millisecond from
// alternating sides: every packet must arrive exactly once, in order.
func TestSessionExactlyOnceAcrossBounces(t *testing.T) {
	const nodes, n = 4, 20000
	addr := filepath.Join(t.TempDir(), "hal.sock")
	m := bootMesh(t, "unix", addr, 1, nodes, nil)
	leader, worker := m.byIdx(0), m.byIdx(1)
	ln := startWireNode(t, leader, m.regs[m.slotOf(leader)], nodes)
	wn := startWireNode(t, worker, m.regs[m.slotOf(worker)], nodes)
	wlo, _ := m.regs[0].SpanOf(1)
	llo, _ := m.regs[0].SpanOf(0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
			if i%2 == 0 {
				leader.Bounce(1)
			} else {
				worker.Bounce(0)
			}
		}
	}()
	go func() { defer wg.Done(); sendAll(t, leader, llo, wlo, 0, n) }()
	go func() { defer wg.Done(); sendAll(t, worker, wlo, llo, 0, n) }()
	toWorker := awaitLogged(t, wn, wlo, n)
	toLeader := awaitLogged(t, ln, llo, n)
	close(stop)
	wg.Wait()
	if worker.TransportStats().Redials == 0 {
		t.Fatal("no redial happened: the bounces never hit the stream")
	}
	// A replayed duplicate could only trail the frames it repeats, so
	// one more packet each way, delivered, proves nothing extra follows.
	sendAll(t, leader, llo, wlo, n, 1)
	sendAll(t, worker, wlo, llo, n, 1)
	toWorker = awaitLogged(t, wn, wlo, n+1)
	toLeader = awaitLogged(t, ln, llo, n+1)
	checkSequence(t, "leader->worker", toWorker, n+1)
	checkSequence(t, "worker->leader", toLeader, n+1)
}

// TestSessionReplayBound pins the session's backpressure: with a peer
// that reads nothing (its transport never started, so no acks come
// back), TrySend accepts exactly replayCap packets and then refuses; once
// the peer reads and acknowledges, it accepts again, and everything
// arrives once, in order.
func TestSessionReplayBound(t *testing.T) {
	const nodes = 4
	addr := filepath.Join(t.TempDir(), "hal.sock")
	m := bootMesh(t, "unix", addr, 1, nodes, nil)
	leader, worker := m.byIdx(0), m.byIdx(1)
	startWireNode(t, leader, m.regs[m.slotOf(leader)], nodes)
	wlo, _ := m.regs[0].SpanOf(1)
	llo, _ := m.regs[0].SpanOf(0)

	pkt := func(i int) amnet.Packet {
		return amnet.Packet{Handler: hLog, Src: llo, Dst: wlo, U0: uint64(i)}
	}
	accepted := 0
	for accepted <= replayCap && leader.TrySend(pkt(accepted), false) {
		accepted++
	}
	if accepted != replayCap {
		t.Fatalf("TrySend accepted %d packets before refusing, want the replay bound %d", accepted, replayCap)
	}
	time.Sleep(20 * time.Millisecond)
	if leader.TrySend(pkt(accepted), false) {
		t.Fatal("TrySend accepted past the replay bound with no ack from the peer")
	}

	wn := startWireNode(t, worker, m.regs[m.slotOf(worker)], nodes)
	deadline := time.Now().Add(bootTimeout)
	for !leader.TrySend(pkt(accepted), true) {
		if time.Now().After(deadline) {
			t.Fatalf("TrySend still refused %v after the peer started reading", bootTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	accepted++
	checkSequence(t, "leader->worker", awaitLogged(t, wn, wlo, accepted), accepted)
}

// TestSessionStaleReaderCannotInject pins the one-reader rule.  The
// worker's reader is parked inside Inject on a full inbox when its
// connection dies and is replaced; the new connection's reader must not
// deliver anything until the stale one has exited — otherwise the frame
// the stale reader is still injecting, which the peer replays because it
// was never acknowledged, would be delivered twice.
func TestSessionStaleReaderCannotInject(t *testing.T) {
	const nodes = 4
	addr := filepath.Join(t.TempDir(), "hal.sock")
	m := bootMesh(t, "unix", addr, 1, nodes, nil)
	leader, worker := m.byIdx(0), m.byIdx(1)
	ln := startWireNode(t, leader, m.regs[m.slotOf(leader)], nodes)
	wlo, _ := m.regs[0].SpanOf(1)
	llo, _ := m.regs[0].SpanOf(0)
	held, free := wlo, wlo+1
	wn := startWireNode(t, worker, m.regs[m.slotOf(worker)], nodes, held)

	// Overfill the held node's inbox (default capacity 1024), so the
	// worker's reader blocks injecting one of these.
	const burst = 1024 + 64
	sendAll(t, leader, llo, held, 0, burst)
	var recvd uint64
	for stable := 0; stable < 20; {
		time.Sleep(5 * time.Millisecond)
		if now := worker.TransportStats().WireRecvd; now != recvd {
			recvd, stable = now, 0
		} else {
			stable++
		}
	}
	if recvd == 0 || recvd >= burst {
		t.Fatalf("worker delivered %d of %d packets: its reader is not parked mid-burst", recvd, burst)
	}

	// Kill the worker's connection; its next write notices, and the
	// worker redials while the old reader is still parked.
	redials := worker.TransportStats().Redials
	worker.Bounce(0)
	sendAll(t, worker, wlo, llo, 0, 1)
	deadline := time.Now().Add(bootTimeout)
	for worker.TransportStats().Redials == redials {
		if time.Now().After(deadline) {
			t.Fatal("worker never redialed")
		}
		time.Sleep(time.Millisecond)
	}
	sendAll(t, leader, llo, free, 0, 8)
	time.Sleep(100 * time.Millisecond)
	if got := wn.logged(free); len(got) != 0 {
		t.Fatalf("the new connection's reader delivered %d packets while the stale reader was still injecting", len(got))
	}
	if got := ln.logged(llo); len(got) != 0 {
		t.Fatal("the worker's writer resumed before its new reader took over")
	}

	wn.releaseHeld()
	checkSequence(t, "to the held node", awaitLogged(t, wn, held, burst), burst)
	checkSequence(t, "to the free node", awaitLogged(t, wn, free, 8), 8)
	checkSequence(t, "worker->leader", awaitLogged(t, ln, llo, 1), 1)
	// Nothing trails: one more packet lands right after the burst.
	sendAll(t, leader, llo, held, burst, 1)
	checkSequence(t, "to the held node", awaitLogged(t, wn, held, burst+1), burst+1)
}
