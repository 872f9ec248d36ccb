package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"hal/internal/amnet"
)

// wireUser is an application value with no binary form of its own: it
// crosses through the gob fallback, so it is gob.Registered the way an
// application would.  Its Group field rides Group's GobEncode.
type wireUser struct {
	Name string
	N    int64
	G    Group
}

// wireBehavior is a migrating behavior (gob fallback inside a migBundle).
type wireBehavior struct {
	State []float64
	Peer  Addr
}

func (*wireBehavior) Receive(*Context, *Message) {}

func init() {
	gob.Register(wireUser{})
	gob.Register(&wireBehavior{})
}

// codecMachine is an unstarted machine whose program table the codec
// resolves ids against.
func codecMachine(tb testing.TB) *Machine {
	tb.Helper()
	m, err := NewMachine(Config{Nodes: 2})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// codecValues returns one value per value tag (both []float64 forms and
// the gob fallback included), built from fuzz inputs.
func codecValues(seq uint64, node int32, i int64, fbits uint64, s string, raw []byte) []any {
	var xs []float64
	for len(raw) >= 8 {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
		raw = raw[8:]
	}
	if xs == nil {
		xs = []float64{}
	}
	g := Group{ID: seq, N: int(i), Birth: amnet.NodeID(node), Base: amnet.NoNode, Nodes: int(node), slot0: ^seq}
	return []any{
		nil,
		int(i),
		i,
		math.Float64frombits(fbits),
		i&1 == 0,
		s,
		Addr{Birth: amnet.NodeID(node), Hint: amnet.NoNode, Seq: seq},
		ReplyTo{Node: amnet.NodeID(node), JC: seq, Slot: int32(i)},
		g,
		Selector(node),
		TypeID(-node),
		xs,
		[]float64(nil),
		wireUser{Name: s, N: i, G: g},
	}
}

// codecPayloads builds one payload of every kind, plus one reply envelope
// per value tag.
func codecPayloads(m *Machine, seq uint64, node int32, i int64, fbits uint64, s string, raw []byte) []any {
	vals := codecValues(seq, node, i, fbits, s, raw)
	prog := m.progForWire(1 + seq%3)
	addr := Addr{Birth: amnet.NodeID(node), Hint: amnet.NodeID(-node), Seq: seq}
	// Message.Data crosses as a count: an empty slice arrives nil.
	data := vals[11].([]float64)
	if len(data) == 0 {
		data = nil
	}
	msg := func(shared bool) *Message {
		return &Message{
			To: addr, Sel: Selector(i), Args: vals, Data: data,
			Reply:  ReplyTo{Node: amnet.NoNode, JC: seq >> 1, Slot: -1},
			origin: amnet.NodeID(node), originLD: seq ^ 0xff, dstSeq: seq >> 3,
			routed: i&2 != 0, shared: shared, vt: math.Float64frombits(fbits), prog: prog,
		}
	}
	g := vals[8].(Group)
	out := []any{
		msg(i&4 != 0),
		&spawnRecord{alias: addr, typ: TypeID(node), args: vals, vt: math.Float64frombits(^fbits), prog: prog},
		&firReq{hops: []amnet.NodeID{amnet.NoNode, amnet.NodeID(node), 0, math.MaxInt32}},
		&migBundle{
			addr: addr, alias: Addr{Birth: amnet.NoNode, Hint: 1, Seq: ^seq},
			behavior: &wireBehavior{State: []float64{math.Float64frombits(fbits)}, Peer: addr},
			msgs:     []*Message{msg(false), msg(true)}, pending: []*Message{msg(false)}, prog: prog,
		},
		groupCreate{g: g, typ: TypeID(-node), args: vals, prog: nil},
		&bcastWork{g: g, root: amnet.NodeID(node), msg: msg(true)},
	}
	for _, v := range vals {
		out = append(out, replyEnvelope{v: v, prog: prog})
	}
	return out
}

// sameBits reports whether a and b are the same value down to float bit
// patterns, nil-versus-empty slices and concrete types in interfaces.
// Programs compare by identity: the codec resolves ids to this process's
// Program.
func sameBits(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() || a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() || a.Type() == reflect.TypeOf((*Program)(nil)) {
			return a.Pointer() == b.Pointer()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Struct:
		for k := 0; k < a.NumField(); k++ {
			if !sameBits(a.Field(k), b.Field(k)) {
				return false
			}
		}
		return true
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for k := 0; k < a.Len(); k++ {
			if !sameBits(a.Index(k), b.Index(k)) {
				return false
			}
		}
		return true
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return a.Uint() == b.Uint()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.String:
		return a.String() == b.String()
	}
	return false
}

// FuzzPayloadRoundTrip checks that every payload kind, with every value
// tag in its interface slots, comes back from the binary codec exactly:
// unexported delivery state, NoNode ids, NaN and -0 virtual times,
// nil-versus-empty []float64, and a gob-registered user struct through
// the fallback.
func FuzzPayloadRoundTrip(f *testing.F) {
	f.Add(uint64(0), int32(0), int64(0), uint64(0), "", []byte{})
	f.Add(uint64(1)<<63, int32(-1), int64(-1), uint64(0x7ff8000000000001), "héllo", []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint64(42), int32(math.MaxInt32), int64(math.MinInt64), uint64(1)<<63, "x", bytes.Repeat([]byte{0xff}, 17))
	m := codecMachine(f)
	c := &payloadCodec{m: m}
	f.Fuzz(func(t *testing.T, seq uint64, node int32, i int64, fbits uint64, s string, raw []byte) {
		for _, p := range codecPayloads(m, seq, node, i, fbits, s, raw) {
			b, err := c.EncodePayload(&amnet.Packet{Payload: p})
			if err != nil {
				t.Fatalf("encode %T: %v", p, err)
			}
			got, err := c.DecodePayload(b)
			if err != nil {
				t.Fatalf("decode %T: %v", p, err)
			}
			if !sameBits(reflect.ValueOf(&p).Elem(), reflect.ValueOf(&got).Elem()) {
				t.Fatalf("round trip of %T:\n got %#v\nwant %#v", p, got, p)
			}
		}
	})
}

// FuzzPayloadDecode feeds arbitrary bytes to the decoder, which reads
// frames straight off a peer process's connection: it must return an
// error or a value, never panic or allocate past its input.  Whatever
// it accepts must re-encode, and that encoding must be a fixed point.
func FuzzPayloadDecode(f *testing.F) {
	m := codecMachine(f)
	c := &payloadCodec{m: m}
	for _, p := range codecPayloads(m, 7, -1, 3, math.Float64bits(-0.0), "seed", []byte{0, 0, 0, 0, 0, 0, 0xf0, 0x3f}) {
		b, err := c.EncodePayload(&amnet.Packet{Payload: p})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte{})
	f.Add([]byte{wtMsg, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})
	f.Add([]byte{wtReply, valGob, 0x10, 0x00})
	f.Fuzz(func(t *testing.T, b []byte) {
		// Keep the program table from growing across inputs.
		defer func() {
			m.progTab.Store(nil)
			m.progSeq.Store(0)
		}()
		v, err := c.DecodePayload(b)
		if err != nil {
			return
		}
		e1, err := c.EncodePayload(&amnet.Packet{Payload: v})
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", v, err)
		}
		w, err := c.DecodePayload(e1)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", v, err)
		}
		e2, err := c.EncodePayload(&amnet.Packet{Payload: w})
		if err != nil || !bytes.Equal(e1, e2) {
			t.Fatalf("encoding of %T is not a fixed point: %x then %x (%v)", v, e1, e2, err)
		}
	})
}

// BenchmarkPayloadCodec times the payload codec per kind, both ways, on
// payloads shaped like the ones a dist run boxes: a request message with
// one int argument, a remote creation, a reply whose value does not
// word-encode, and a migration carrying a gob-registered behavior and
// two queued messages.
func BenchmarkPayloadCodec(b *testing.B) {
	m := codecMachine(b)
	c := &payloadCodec{m: m}
	prog := m.progForWire(1)
	addr := Addr{Birth: 1, Hint: 1, Seq: 1<<20 | 37}
	msg := func() *Message {
		return &Message{
			To: addr, Sel: 1, Args: []any{17}, Reply: ReplyTo{Node: 0, JC: 812, Slot: 1},
			origin: 0, originLD: 4093, routed: true, vt: 1234.5, prog: prog,
		}
	}
	kinds := []struct {
		name    string
		payload any
	}{
		{"msg", msg()},
		{"spawn", &spawnRecord{alias: addr, typ: 3, args: []any{17}, vt: 1234.5, prog: prog}},
		{"reply", replyEnvelope{v: addr, prog: prog}},
		{"mig", &migBundle{
			addr: addr, alias: addr, behavior: &wireBehavior{State: []float64{1, 2, 3}, Peer: addr},
			msgs: []*Message{msg(), msg()}, prog: prog,
		}},
	}
	for _, k := range kinds {
		pkt := &amnet.Packet{Payload: k.payload}
		enc, err := c.EncodePayload(pkt)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(k.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.EncodePayload(pkt); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(k.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(enc)))
			for b.Loop() {
				if _, err := c.DecodePayload(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
