package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"

	"hal/internal/amnet"
	"hal/internal/names"
)

// The payload codec for a machine spanning several OS processes.  The
// frame codec (amnet/sock) moves Packet's fixed words bit-exactly; boxed
// payloads — the pointer-rich runtime-protocol bodies that move by
// reference inside one process — are this file's problem.  Each payload
// is a one-byte kind tag followed by its fields in a fixed order, written
// by hand: integers and ids as varints (zig-zag for signed ones, so
// NoNode is one byte), virtual times as their exact 8-byte LE
// Float64bits (NaN payloads and -0 survive), slices as a count then
// their elements.  The receiving side rebuilds the kernel's unexported
// state directly.  Program pointers cross as leader-assigned ids,
// materialized on demand (progForWire).
//
// User-level values (message Args, reply values, migrating behaviors)
// cross through a value tag: nil, int, int64, float64, bool, string,
// Addr, ReplyTo, Group, Selector, TypeID and []float64 have binary forms
// and come back as exactly the concrete type that went in.  Anything else
// falls back to gob (encodeValue) as a length-prefixed blob, so
// applications register such types — user structs, migrating behaviors —
// with gob.Register in every process, the same way they register
// behavior types with RegisterType.  Gob is reached only through that
// fallback, never per kernel payload.
//
// The decoder trusts nothing: every count is checked against the bytes
// left before anything is allocated, unknown tags and trailing bytes are
// errors, and everything kept is copied (sock's reader reuses its frame
// buffer).
//
// progLaunch deliberately has no wire form: its body is a Go closure.
// Programs load on the leader, whose node 0 serves hLoadProgram locally;
// a launch packet reaching the codec is a kernel bug, reported loudly.

func init() {
	// Kernel types that can sit in interface slots inside gob-encoded
	// user values (the fallback blob, boxed program results).  Scalars
	// are pre-registered by package gob itself.
	gob.Register(names.Addr{})
	gob.Register(Group{})
	gob.Register(ReplyTo{})
	gob.Register(Selector(0))
	gob.Register(TypeID(0))
}

// Payload kind tags (first byte of every encoded payload).
const (
	wtMsg byte = 1 + iota
	wtSpawn
	wtFIR
	wtMig
	wtGroup
	wtBcast
	wtReply
)

// Value tags (first byte of every encoded interface value).
const (
	valNil byte = iota
	valInt
	valInt64
	valFloat64
	valBool
	valString
	valAddr
	valReplyTo
	valGroup
	valSelector
	valTypeID
	valFloats // []float64: count+1, 0 for a nil slice
	valGob    // anything else: length-prefixed encodeValue blob
)

// Message flag bits.
const (
	mfRouted byte = 1 << iota
	mfShared
)

// maxProgAhead bounds how far past this process's program table a wire
// program id may point.  The leader allocates ids densely and broadcasts
// every completion, so a worker only lags by programs that are live and
// have not reached it yet; an id beyond the bound is corruption, and
// materializing up to it would let one frame allocate without limit.
const maxProgAhead = 1 << 16

// payloadCodec implements amnet.PayloadCodec for one machine process.
type payloadCodec struct {
	m *Machine
}

var _ amnet.PayloadCodec = (*payloadCodec)(nil)

func progID(p *Program) uint64 {
	if p == nil {
		return 0
	}
	return p.id
}

// progForWire resolves a leader-assigned program id in this process,
// materializing placeholder Programs for ids not seen before.  The leader
// allocates ids densely from 1 and is the only process that launches, so
// materializing id n fills every id <= n and later ids stay aligned.
func (m *Machine) progForWire(id uint64) *Program {
	if id == 0 {
		return nil
	}
	if p := m.progByID(id); p != nil {
		return p
	}
	m.launchMu.Lock()
	defer m.launchMu.Unlock()
	var fill []*Program
	for seq := m.progSeq.Load(); seq < id; seq++ {
		fill = append(fill, &Program{id: m.progSeq.Add(1), m: m, done: make(chan struct{})})
	}
	m.registerProg(fill...)
	return m.progByID(id)
}

// EncodePayload renders a boxed kernel payload as its kind tag and body.
func (c *payloadCodec) EncodePayload(p *amnet.Packet) ([]byte, error) {
	e := payloadEnc{b: make([]byte, 0, 64)}
	switch v := p.Payload.(type) {
	case *Message:
		e.b = append(e.b, wtMsg)
		e.msg(v)
	case *spawnRecord:
		e.b = append(e.b, wtSpawn)
		e.addr(v.alias)
		e.varint(int64(v.typ))
		e.values(v.args)
		e.f64(v.vt)
		e.uvarint(progID(v.prog))
	case *firReq: // the address rides the packet words
		e.b = append(e.b, wtFIR)
		e.uvarint(uint64(len(v.hops)))
		for _, hop := range v.hops {
			e.varint(int64(hop))
		}
	case *migBundle:
		e.b = append(e.b, wtMig)
		e.addr(v.addr)
		e.addr(v.alias)
		e.value(v.behavior)
		e.msgs(v.msgs)
		e.msgs(v.pending)
		e.uvarint(progID(v.prog))
	case groupCreate:
		e.b = append(e.b, wtGroup)
		e.group(v.g)
		e.varint(int64(v.typ))
		e.values(v.args)
		e.uvarint(progID(v.prog))
	case *bcastWork:
		e.b = append(e.b, wtBcast)
		e.group(v.g)
		e.varint(int64(v.root))
		e.msg(v.msg)
	case replyEnvelope:
		e.b = append(e.b, wtReply)
		e.value(v.v)
		e.uvarint(progID(v.prog))
	case progLaunch:
		return nil, fmt.Errorf("core: program loads never cross the wire (hLoadProgram is leader-local)")
	default:
		return nil, fmt.Errorf("core: handler %d payload %T has no wire form", p.Handler, p.Payload)
	}
	if e.err != nil {
		return nil, fmt.Errorf("core: payload %T does not encode: %w (gob.Register user types in every process)", p.Payload, e.err)
	}
	return e.b, nil
}

// DecodePayload rebuilds the payload value the receiving handler type-
// asserts on (handlers.go): pointer kinds come back as pointers, value
// kinds as values.  Malformed input is an error, never a panic.
func (c *payloadCodec) DecodePayload(b []byte) (any, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("core: empty payload body")
	}
	d := payloadDec{b: b[1:], m: c.m}
	// Fields decode in the order the composite literals list them: Go
	// evaluates the calls in an expression left to right.
	var v any
	switch kind := b[0]; kind {
	case wtMsg:
		v = d.msg()
	case wtSpawn:
		v = &spawnRecord{alias: d.addr(), typ: TypeID(d.int32()), args: d.values(), vt: d.f64(), prog: d.prog()}
	case wtFIR:
		v = &firReq{hops: d.nodes()}
	case wtMig:
		v = &migBundle{
			addr: d.addr(), alias: d.addr(), behavior: d.behavior(),
			msgs: d.msgs(), pending: d.msgs(), prog: d.prog(),
		}
	case wtGroup:
		v = groupCreate{g: d.group(), typ: TypeID(d.int32()), args: d.values(), prog: d.prog()}
	case wtBcast:
		w := &bcastWork{g: d.group(), root: d.node(), msg: d.msg()}
		w.msg.shared = true
		v = w
	case wtReply:
		v = replyEnvelope{v: d.value(), prog: d.prog()}
	default:
		return nil, fmt.Errorf("core: unknown payload kind %d", kind)
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return nil, fmt.Errorf("core: payload kind %d: %w", b[0], d.err)
	}
	return v, nil
}

// --- encoder -------------------------------------------------------------

// payloadEnc appends one payload's fields to b.  The first gob fallback
// failure sticks in err; later appends still run but the result is
// discarded.
type payloadEnc struct {
	b   []byte
	err error
}

func (e *payloadEnc) uvarint(x uint64) { e.b = binary.AppendUvarint(e.b, x) }
func (e *payloadEnc) varint(x int64)   { e.b = binary.AppendVarint(e.b, x) }
func (e *payloadEnc) f64(x float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(x))
}

func (e *payloadEnc) addr(a Addr) {
	e.varint(int64(a.Birth))
	e.varint(int64(a.Hint))
	e.uvarint(a.Seq)
}

func (e *payloadEnc) reply(r ReplyTo) {
	e.varint(int64(r.Node))
	e.uvarint(r.JC)
	e.varint(int64(r.Slot))
}

func (e *payloadEnc) group(g Group) {
	e.uvarint(g.ID)
	e.varint(int64(g.N))
	e.varint(int64(g.Birth))
	e.varint(int64(g.Base))
	e.varint(int64(g.Nodes))
	e.uvarint(g.slot0)
}

func (e *payloadEnc) floats(xs []float64) {
	for _, x := range xs {
		e.f64(x)
	}
}

// msg writes a Message, unexported delivery state included: a message
// forwarded across processes must keep its origin/cache bookkeeping or
// the receiving name server would repair the wrong caches.
func (e *payloadEnc) msg(m *Message) {
	e.addr(m.To)
	e.varint(int64(m.Sel))
	e.values(m.Args)
	e.uvarint(uint64(len(m.Data)))
	e.floats(m.Data)
	e.reply(m.Reply)
	e.varint(int64(m.origin))
	e.uvarint(m.originLD)
	e.uvarint(m.dstSeq)
	var flags byte
	if m.routed {
		flags |= mfRouted
	}
	if m.shared {
		flags |= mfShared
	}
	e.b = append(e.b, flags)
	e.f64(m.vt)
	e.uvarint(progID(m.prog))
}

func (e *payloadEnc) msgs(ms []*Message) {
	e.uvarint(uint64(len(ms)))
	for _, m := range ms {
		e.msg(m)
	}
}

func (e *payloadEnc) values(vs []any) {
	e.uvarint(uint64(len(vs)))
	for _, v := range vs {
		e.value(v)
	}
}

// value writes one interface value behind its value tag.
func (e *payloadEnc) value(v any) {
	switch x := v.(type) {
	case nil:
		e.b = append(e.b, valNil)
	case int:
		e.b = append(e.b, valInt)
		e.varint(int64(x))
	case int64:
		e.b = append(e.b, valInt64)
		e.varint(x)
	case float64:
		e.b = append(e.b, valFloat64)
		e.f64(x)
	case bool:
		e.b = append(e.b, valBool)
		if x {
			e.b = append(e.b, 1)
		} else {
			e.b = append(e.b, 0)
		}
	case string:
		e.b = append(e.b, valString)
		e.uvarint(uint64(len(x)))
		e.b = append(e.b, x...)
	case Addr:
		e.b = append(e.b, valAddr)
		e.addr(x)
	case ReplyTo:
		e.b = append(e.b, valReplyTo)
		e.reply(x)
	case Group:
		e.b = append(e.b, valGroup)
		e.group(x)
	case Selector:
		e.b = append(e.b, valSelector)
		e.varint(int64(x))
	case TypeID:
		e.b = append(e.b, valTypeID)
		e.varint(int64(x))
	case []float64:
		e.b = append(e.b, valFloats)
		if x == nil {
			e.uvarint(0)
			break
		}
		e.uvarint(uint64(len(x)) + 1)
		e.floats(x)
	default:
		blob, err := encodeValue(v)
		if err != nil {
			if e.err == nil {
				e.err = err
			}
			return
		}
		e.b = append(e.b, valGob)
		e.uvarint(uint64(len(blob)))
		e.b = append(e.b, blob...)
	}
}

// --- decoder -------------------------------------------------------------

// payloadDec consumes one payload's fields from b.  The first failure
// sticks in err and empties b, so every later read returns a zero value
// without touching memory; callers check err once at the end.
type payloadDec struct {
	b   []byte
	err error
	m   *Machine
}

func (d *payloadDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
	d.b = nil
}

func (d *payloadDec) byte1() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	x := d.b[0]
	d.b = d.b[1:]
	return x
}

func (d *payloadDec) uvarint() uint64 {
	x, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail("bad uvarint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *payloadDec) varint() int64 {
	x, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return x
}

func (d *payloadDec) int32() int32 {
	x := d.varint()
	if x != int64(int32(x)) {
		d.fail("%d overflows int32", x)
		return 0
	}
	return int32(x)
}

func (d *payloadDec) int() int {
	x := d.varint()
	if x != int64(int(x)) {
		d.fail("%d overflows int", x)
		return 0
	}
	return int(x)
}

func (d *payloadDec) node() amnet.NodeID { return amnet.NodeID(d.int32()) }

func (d *payloadDec) f64() float64 {
	if len(d.b) < 8 {
		d.fail("truncated float")
		return 0
	}
	x := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return x
}

// count reads an element count and rejects it unless the remaining bytes
// can hold that many elements of at least size bytes each, so a corrupt
// count cannot make the decoder allocate.
func (d *payloadDec) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// take returns the next n bytes in place; callers copy what they keep.
func (d *payloadDec) take(n int) []byte {
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

func (d *payloadDec) addr() Addr {
	return Addr{Birth: d.node(), Hint: d.node(), Seq: d.uvarint()}
}

func (d *payloadDec) reply() ReplyTo {
	return ReplyTo{Node: d.node(), JC: d.uvarint(), Slot: d.int32()}
}

func (d *payloadDec) group() Group {
	return Group{ID: d.uvarint(), N: d.int(), Birth: d.node(), Base: d.node(), Nodes: d.int(), slot0: d.uvarint()}
}

// prog resolves a wire program id, refusing ids too far past the local
// table to be anything but corruption (maxProgAhead).
func (d *payloadDec) prog() *Program {
	id := d.uvarint()
	if d.err != nil || id == 0 {
		return nil
	}
	var known uint64
	if tab := d.m.progTab.Load(); tab != nil {
		known = uint64(len(*tab))
	}
	if id > known+maxProgAhead {
		d.fail("program id %d is far past the %d known", id, known)
		return nil
	}
	return d.m.progForWire(id)
}

func (d *payloadDec) nodes() []amnet.NodeID {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]amnet.NodeID, n)
	for i := range out {
		out[i] = d.node()
	}
	return out
}

func (d *payloadDec) floats(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = d.f64()
	}
	return out
}

func (d *payloadDec) msg() *Message {
	m := &Message{To: d.addr(), Sel: Selector(d.int32()), Args: d.values()}
	if n := d.count(8); n > 0 {
		m.Data = d.floats(n)
	}
	m.Reply = d.reply()
	m.origin = d.node()
	m.originLD = d.uvarint()
	m.dstSeq = d.uvarint()
	flags := d.byte1()
	if flags&^(mfRouted|mfShared) != 0 {
		d.fail("unknown message flags %#x", flags)
	}
	m.routed = flags&mfRouted != 0
	m.shared = flags&mfShared != 0
	m.vt = d.f64()
	m.prog = d.prog()
	return m
}

func (d *payloadDec) msgs() []*Message {
	// An encoded message is at least 22 bytes: 8 of vt, one of flags,
	// and at least one per remaining field.
	n := d.count(22)
	if n == 0 {
		return nil
	}
	out := make([]*Message, n)
	for i := range out {
		out[i] = d.msg()
	}
	return out
}

func (d *payloadDec) values() []any {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]any, n)
	for i := range out {
		out[i] = d.value()
	}
	return out
}

// value reads one interface value behind its value tag.
func (d *payloadDec) value() any {
	switch tag := d.byte1(); tag {
	case valNil:
		return nil
	case valInt:
		return d.int()
	case valInt64:
		return d.varint()
	case valFloat64:
		return d.f64()
	case valBool:
		switch d.byte1() {
		case 0:
			return false
		case 1:
			return true
		}
		d.fail("bad bool")
		return nil
	case valString:
		return string(d.take(d.count(1)))
	case valAddr:
		return d.addr()
	case valReplyTo:
		return d.reply()
	case valGroup:
		return d.group()
	case valSelector:
		return Selector(d.int32())
	case valTypeID:
		return TypeID(d.int32())
	case valFloats:
		n := d.uvarint()
		if n == 0 {
			return []float64(nil)
		}
		if n-1 > uint64(len(d.b)/8) {
			d.fail("float count %d exceeds the %d bytes left", n-1, len(d.b))
			return nil
		}
		return d.floats(int(n - 1))
	case valGob:
		v, err := decodeValue(d.take(d.count(1)))
		if err != nil {
			d.fail("gob value: %v", err)
			return nil
		}
		return v
	default:
		d.fail("unknown value tag %d", tag)
		return nil
	}
}

// behavior reads a migrating actor's behavior value.
func (d *payloadDec) behavior() Behavior {
	v := d.value()
	if v == nil {
		return nil
	}
	b, ok := v.(Behavior)
	if !ok {
		d.fail("migrating behavior %T is not a Behavior", v)
	}
	return b
}

// --- Group gob form ------------------------------------------------------

// GobEncode serializes the handle including its unexported alias base
// (slot0 is load-bearing: Member computes alias addresses from it), so
// Group values inside gob-encoded user values and program results stay
// usable across processes.  The bytes are the payload codec's Group
// layout.
func (g Group) GobEncode() ([]byte, error) {
	var e payloadEnc
	e.group(g)
	return e.b, nil
}

// GobDecode is GobEncode's inverse.
func (g *Group) GobDecode(b []byte) error {
	d := payloadDec{b: b}
	w := d.group()
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes", len(d.b))
	}
	if d.err != nil {
		return fmt.Errorf("core: group: %w", d.err)
	}
	*g = w
	return nil
}

// --- gob values (the value-tag fallback, boxed program results) ----------

// valueBox wraps an arbitrary value so gob's interface mechanism (with
// its concrete-type registry) carries it.
type valueBox struct {
	V any
}

func encodeValue(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(valueBox{V: v}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodeValue(b []byte) (any, error) {
	var box valueBox
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&box); err != nil {
		return nil, err
	}
	return box.V, nil
}
