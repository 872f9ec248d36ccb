package sock

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"hal/internal/amnet"
)

// outFrame is one queued wire write: a packet or a control message.
type outFrame struct {
	pkt     amnet.Packet
	urgent  bool
	isCtl   bool
	ctlKind uint8
	ctlBody []byte
}

// replayCap bounds a link's unacknowledged frames: those queued for the
// writer plus those written but not yet acknowledged by the peer.  A
// full session refuses TrySend, which propagates as the kernel's
// ordinary poll-while-stalled backpressure.  Control frames are counted
// but never refused (they block instead, and are rare).
const replayCap = 8192

// ackEvery is how far a link's receive high-water mark may run ahead of
// the last ack its writer put on the wire before the reader asks for a
// standalone ack frame.  Acks normally ride the reverse traffic's
// headers; this only fires on a one-way stream, well before the peer's
// replayCap is reached.  ackBytes likewise asks for one after each MiB
// received, so a one-way stream of bulk frames cannot pin much of the
// peer's memory in its replay ring.
const (
	ackEvery = replayCap / 4
	ackBytes = 1 << 20
)

// Dial retry backoff bounds.  A dropped connection retries from
// redialMin, doubling to redialMax.  Nothing is lost meanwhile — offers
// queue and the replay buffer holds every unacknowledged frame — so the
// backoff only has to avoid hammering a dead peer.
const (
	redialMin = 10 * time.Millisecond
	redialMax = 500 * time.Millisecond
)

// link is one process pair's session: an exactly-once FIFO frame stream
// in each direction that outlives any one connection.  A single writer
// goroutine owns the outbound wire (preserving frame order) and a reader
// goroutine per connection delivers inbound traffic; exactly one side —
// the higher process index — redials after a failure while the other
// re-accepts.
//
// Session state per direction: the writer numbers every packet and
// control frame (seq 1, 2, ...) and keeps its encoded bytes in the
// replay ring until a cumulative ack covers it; the reader delivers
// exactly the frame after its high-water mark (recvHigh) and drops
// anything at or below it.  Every frame's header carries the sender's
// recvHigh as the ack for the reverse direction.  A new connection opens
// with a resume frame from each side carrying its recvHigh; the writer
// waits for the peer's, discards what it covers, and replays the rest.
type link struct {
	t    *Transport
	peer int

	// network/raddr are set on the dialing side only; the accepting
	// side waits for its listener to install a replacement connection.
	network, raddr string

	outq chan outFrame
	// inflight counts frames accepted into the session and not yet
	// acknowledged (queued in outq or held in replay).
	inflight atomic.Int64
	// wake nudges an idle writer: a new connection was installed, or the
	// reader wants a standalone ack sent.
	wake chan struct{}

	// recvHigh is the highest sequence number delivered from the peer;
	// only the single active reader advances it.  ackSent is the highest
	// recvHigh the writer has put on the wire.
	recvHigh atomic.Uint64
	ackSent  atomic.Uint64

	mu   sync.Mutex
	cond *sync.Cond // signaled on install, failure, resume, and close
	conn net.Conn
	gen  int // connection generation; stale failure reports are ignored
	up   bool
	// resumeGen/resumeMark record the peer's resume frame: the
	// generation whose reader received it and the mark it carried.
	resumeGen  int
	resumeMark uint64
	// readerDone is closed when the newest reader exits; the next
	// connection's reader waits on it before delivering anything.
	readerDone chan struct{}

	// sealed is the sequence number of the writer's newest frame;
	// writer-owned.
	sealed uint64
	rmu    sync.Mutex // guards replay
	replay replayRing
}

func newLink(t *Transport, peer int, network, raddr string) *link {
	l := &link{t: t, peer: peer, network: network, raddr: raddr,
		outq: make(chan outFrame, replayCap),
		wake: make(chan struct{}, 1)}
	l.cond = sync.NewCond(&l.mu)
	l.replay.first = 1
	return l
}

// offer enqueues a packet without blocking, refusing when the session
// already holds replayCap unacknowledged frames.  While the link is down
// the packet queues like any other and goes out after the redial; only
// a closed transport swallows (and counts) it, so a kernel mid-send never
// spins on a corpse.
func (l *link) offer(p amnet.Packet, urgent bool) bool {
	if l.t.isClosed() {
		l.t.stats.wireDropped.Add(1)
		return true
	}
	if l.inflight.Add(1) > replayCap {
		l.inflight.Add(-1)
		return false
	}
	select {
	case l.outq <- outFrame{pkt: p, urgent: urgent}:
		return true
	default:
		l.inflight.Add(-1)
		return false
	}
}

// sendCtl enqueues a control message, blocking for queue space.  Control
// frames are sequenced like packets, so they survive connection
// replacement the same way.  body is retained; callers must not reuse it.
func (l *link) sendCtl(kind uint8, body []byte) error {
	l.inflight.Add(1)
	select {
	case l.outq <- outFrame{isCtl: true, ctlKind: kind, ctlBody: body}:
		return nil
	case <-l.t.stopc:
		l.inflight.Add(-1)
		return errClosed
	}
}

// nudge wakes the writer without blocking; one pending nudge suffices.
func (l *link) nudge() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// install replaces the link's connection (initial handshake, redial, or
// re-accept), waking the writer and spawning the reader for it.
func (l *link) install(conn net.Conn) {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close() // stale connection from before the failure
	}
	l.gen++
	gen := l.gen
	l.conn = conn
	l.up = true
	prev := l.readerDone
	done := make(chan struct{})
	l.readerDone = done
	l.cond.Broadcast()
	l.mu.Unlock()
	l.nudge()
	l.t.wg.Add(1)
	go l.readLoop(conn, gen, prev, done)
}

// connFailed marks generation gen's connection dead.  Reports about
// already-replaced connections are ignored.
func (l *link) connFailed(gen int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if gen != l.gen || !l.up {
		return
	}
	l.up = false
	l.conn.Close()
	l.cond.Broadcast()
}

// current reports whether generation gen is still the live connection.
func (l *link) current(gen int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.up && l.gen == gen
}

// bounce force-closes the current connection without marking the link
// down-by-intent: readers and the writer hit I/O errors and run the
// ordinary failure path.  Test hook for mid-frame kill coverage.
func (l *link) bounce() {
	l.mu.Lock()
	c := l.conn
	l.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// waitUp blocks until the link has a live connection and returns it with
// its generation.  Recovery itself is not the caller's job: the dialing
// side's dialLoop (or the remote redialer plus this side's accept loop)
// installs the replacement.  A nil connection means the transport closed.
func (l *link) waitUp() (net.Conn, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for !l.up {
		if l.t.isClosed() {
			return nil, 0
		}
		l.cond.Wait()
	}
	return l.conn, l.gen
}

// resumed records the peer's resume mark, received on generation gen.
func (l *link) resumed(gen int, mark uint64) {
	l.mu.Lock()
	l.resumeGen, l.resumeMark = gen, mark
	l.cond.Broadcast()
	l.mu.Unlock()
}

// awaitResume blocks until generation gen's reader has received the
// peer's resume frame and returns its mark; ok is false if the
// connection died (or the transport closed) first.
func (l *link) awaitResume(gen int) (mark uint64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.up && l.gen == gen && l.resumeGen != gen {
		l.cond.Wait()
	}
	return l.resumeMark, l.up && l.gen == gen && l.resumeGen == gen
}

// dialLoop is the dialing side's recovery driver: whenever the link goes
// down it redials with backoff until a connection installs, independent
// of outbound traffic.  Recovery must not wait for something to send — a
// quiet link has to heal too, or traffic that only flows inbound (the
// leader's termination probes to an idle worker, say) would stay queued
// forever.
func (l *link) dialLoop() {
	defer l.t.wg.Done()
	backoff := redialMin
	for {
		l.mu.Lock()
		for l.up && !l.t.isClosed() {
			l.cond.Wait()
		}
		l.mu.Unlock()
		if l.t.isClosed() {
			return
		}
		if c := l.redial(backoff); c != nil {
			l.install(c)
			l.t.stats.redials.Add(1)
			backoff = redialMin
			continue
		}
		if backoff *= 2; backoff > redialMax {
			backoff = redialMax
		}
	}
}

// redial attempts one connection to the peer, identifying this process
// with a mesh frame so the acceptor routes the connection to the right
// link.  Returns nil on failure (the caller backs off and retries).
func (l *link) redial(backoff time.Duration) net.Conn {
	conn, err := net.DialTimeout(l.network, l.raddr, redialMax)
	if err != nil {
		select {
		case <-l.t.stopc:
		case <-time.After(backoff):
		}
		return nil
	}
	if err := writeCtl(conn, kMesh, mustGob(meshMsg{From: l.t.self})); err != nil {
		conn.Close()
		return nil
	}
	return conn
}

// flushBatchFrames bounds how many frames the writer coalesces into the
// buffered writer before forcing a flush even with more queued: mirrors
// the in-memory BatchMax so one saturated link cannot starve latency
// indefinitely behind an ever-refilling queue.
const flushBatchFrames = 32

// writeLoop is the link's single writer: for each connection in turn it
// runs the resume exchange and then streams the outbound queue.
func (l *link) writeLoop() {
	defer l.t.wg.Done()
	for {
		conn, gen := l.waitUp()
		if conn == nil {
			return
		}
		switch err := l.serve(conn, gen); err {
		case nil:
		case errClosed:
			return
		default:
			// Whatever the dead connection swallowed is still in the
			// replay ring; the next connection's resume replays it.
			l.connFailed(gen)
		}
	}
}

// serve writes one connection's share of the session: its resume frame,
// the replay of whatever the peer's resume mark does not cover, then
// fresh frames from the outbound queue, coalescing while the queue is
// non-empty (the wire analog of SendBatched's staging) and flushing when
// it empties, a frame is urgent or a control message, or
// flushBatchFrames accumulate.  It returns the write error that ended
// the connection, nil if the connection was replaced or died elsewhere,
// or errClosed when the transport stops.
func (l *link) serve(conn net.Conn, gen int) error {
	w := bufio.NewWriterSize(conn, 64<<10)
	if err := l.writeAck(w, frResume); err != nil {
		return err
	}
	mark, ok := l.awaitResume(gen)
	if !ok {
		return nil
	}
	l.ackTo(mark)
	for _, b := range l.unacked() {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	unflushed := 0
	for {
		var f outFrame
		select {
		case f = <-l.outq:
		case <-l.wake:
			if !l.current(gen) {
				return nil
			}
			if l.recvHigh.Load() > l.ackSent.Load() {
				if err := l.writeAck(w, frAck); err != nil {
					return err
				}
				unflushed = 0
			}
			continue
		case <-l.t.stopc:
			w.Flush()
			return errClosed
		}
		if _, err := w.Write(l.seal(&f)); err != nil {
			return err
		}
		unflushed++
		if f.urgent || f.isCtl || len(l.outq) == 0 || unflushed >= flushBatchFrames {
			if err := w.Flush(); err != nil {
				return err
			}
			unflushed = 0
		}
	}
}

// writeAck writes and flushes an unsequenced header-only frame (frAck or
// frResume) carrying the current receive high-water mark.
func (l *link) writeAck(w *bufio.Writer, kind byte) error {
	ack := l.recvHigh.Load()
	var hdr [4 + hdrLen]byte
	b := appendHeader(hdr[:0], kind, sessHdr{ack: ack}, 0)
	l.ackSent.Store(ack)
	l.t.stats.wireBytesOut.Add(uint64(len(b)))
	if _, err := w.Write(b); err != nil {
		return err
	}
	return w.Flush()
}

// seal numbers f as the session's next frame, encodes it (running the
// payload codec for boxed packet payloads) into a fresh buffer, and
// appends it to the replay ring.  The wire counters are bumped here,
// before the frame can reach the peer, so a peer that has seen a frame
// always sees it counted; a frame replayed after a resume is counted
// once, here, and never again — the counters describe the session's
// traffic, not how often a connection dropped under it.
func (l *link) seal(f *outFrame) []byte {
	l.sealed++
	h := sessHdr{seq: l.sealed, ack: l.recvHigh.Load()}
	buf, err := l.encode(nil, h, f)
	if err != nil {
		// Unencodable payload is a kernel bug, not a wire condition;
		// surface it loudly.
		panic(err)
	}
	l.rmu.Lock()
	l.replay.push(buf)
	l.rmu.Unlock()
	l.ackSent.Store(h.ack)
	if f.isCtl {
		l.t.stats.ctlSent.Add(1)
	} else {
		l.t.stats.wireSent.Add(1)
	}
	l.t.stats.wireBytesOut.Add(uint64(len(buf)))
	return buf
}

// encode renders one outbound frame with session header h.
func (l *link) encode(buf []byte, h sessHdr, f *outFrame) ([]byte, error) {
	if f.isCtl {
		return appendControlFrame(buf, h, f.ctlKind, f.ctlBody)
	}
	var payload []byte
	if f.pkt.Payload != nil {
		var err error
		payload, err = l.t.codec.EncodePayload(&f.pkt)
		if err != nil {
			return buf, err
		}
	}
	return appendPacketFrame(buf, h, &f.pkt, payload)
}

// ackTo releases every replayed frame the peer's cumulative ack covers.
func (l *link) ackTo(ack uint64) {
	l.rmu.Lock()
	n := l.replay.ackTo(ack)
	l.rmu.Unlock()
	if n > 0 {
		l.inflight.Add(-int64(n))
	}
}

// unacked snapshots the replay ring's frames in sequence order.  Frame
// bytes are never reused, so the snapshot stays intact while the writer
// resends it even if an ack releases some of it meanwhile.
func (l *link) unacked() [][]byte {
	l.rmu.Lock()
	defer l.rmu.Unlock()
	return l.replay.frames()
}

// readLoop drains one connection: packet frames decode and inject into
// the destination endpoint (blocking on inbox capacity — that is the
// wire's backpressure), control frames go to the kernel's control
// callback, and every header's ack releases replayed frames.  It
// delivers nothing until the previous connection's reader (prev) has
// exited, so exactly one reader at a time advances recvHigh and a frame
// that reader was still delivering is never delivered twice.  Any read,
// parse or sequence error retires the connection; recovery is the
// dialer's redial (or the listener's re-accept).
func (l *link) readLoop(conn net.Conn, gen int, prev, done chan struct{}) {
	defer l.t.wg.Done()
	defer close(done)
	t := l.t
	select {
	case <-t.startedc:
	case <-t.stopc:
		return
	}
	if prev != nil {
		select {
		case <-prev:
		case <-t.stopc:
			return
		}
	}
	r := bufio.NewReaderSize(conn, 64<<10)
	var scratch []byte
	resumed := false
	unacked := 0 // bytes read since this reader last asked for an ack
	for {
		kind, h, body, s, err := readFrame(r, scratch)
		if err != nil {
			l.connFailed(gen)
			return
		}
		scratch = s
		t.stats.wireBytesIn.Add(uint64(4 + hdrLen + len(body)))
		unacked += 4 + hdrLen + len(body)
		if !resumed {
			// A connection opens with the peer's resume frame and
			// nothing else first.
			if kind != frResume {
				l.connFailed(gen)
				return
			}
			resumed = true
			l.resumed(gen, h.ack)
			continue
		}
		l.ackTo(h.ack)
		if kind == frAck {
			continue
		}
		if kind != frPacket && kind != frControl {
			l.connFailed(gen)
			return
		}
		high := l.recvHigh.Load()
		if h.seq <= high {
			continue // replayed after a resume; delivered already
		}
		if h.seq != high+1 || !l.deliver(kind, body) {
			l.connFailed(gen)
			return
		}
		l.recvHigh.Store(h.seq)
		if h.seq-l.ackSent.Load() >= ackEvery || unacked >= ackBytes {
			unacked = 0
			l.nudge()
		}
	}
}

// deliver hands one sequenced frame's body to the kernel: a packet to
// its destination endpoint, a control message to the control callback.
// It reports false for a malformed frame.  A packet the network refuses
// (a discarding network, or a transport stopping mid-inject) still
// counts as consumed: the session must not replay it.
func (l *link) deliver(kind byte, body []byte) bool {
	t := l.t
	if kind == frControl {
		ck, rest, err := parseControlBody(body)
		if err != nil {
			return false
		}
		t.stats.ctlRecvd.Add(1)
		if fn := t.onCtl; fn != nil {
			// The scratch buffer is reused for the next frame; the
			// callback owns a copy.
			fn(l.peer, ck, append([]byte(nil), rest...))
		}
		return true
	}
	p, payload, err := parsePacketBody(body)
	if err != nil || p.Dst < 0 || int(p.Dst) >= t.nw.Nodes() {
		return false
	}
	if len(payload) > 0 {
		v, derr := t.codec.DecodePayload(payload)
		if derr != nil {
			// The frame parsed, so this is a codec schema bug, not line
			// noise; fail loudly.
			panic(derr)
		}
		p.Payload = v
	}
	// Counted before the inject makes the packet visible, like the
	// writer's counters; undone if the network refused it instead.
	t.stats.wireRecvd.Add(1)
	if !t.nw.Endpoint(p.Dst).Inject(p, t.stopc) {
		t.stats.wireRecvd.Add(^uint64(0))
	}
	return true
}

// replayRing holds a link's unacknowledged encoded frames in sequence
// order: the frame at the head is number first, the next one first+1,
// and so on.  The capacity is a power of two and grows on demand (the
// inflight bound keeps it near replayCap).
type replayRing struct {
	buf   [][]byte
	head  int
	n     int
	first uint64
}

// push appends the frame numbered first+n.
func (r *replayRing) push(b []byte) {
	if r.n == len(r.buf) {
		grown := make([][]byte, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = b
	r.n++
}

// ackTo drops every frame numbered at or below ack and returns how many
// it dropped.
func (r *replayRing) ackTo(ack uint64) int {
	k := 0
	for r.n > 0 && r.first <= ack {
		r.buf[r.head] = nil
		r.head = (r.head + 1) & (len(r.buf) - 1)
		r.n--
		r.first++
		k++
	}
	return k
}

// frames returns the held frames, oldest first.
func (r *replayRing) frames() [][]byte {
	out := make([][]byte, r.n)
	for i := range out {
		out[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	return out
}
