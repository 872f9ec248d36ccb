package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"hal/internal/amnet"
)

// FuzzReplyValueRoundTrip checks that every scalar the reply codec
// accepts survives the word encoding bit-exactly.  The codec is the one
// place a reply value crosses the wire without its Go type, so a tag or
// bit-pattern slip silently corrupts join-continuation results.
func FuzzReplyValueRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0), uint64(0), false)
	f.Add(uint64(1), int64(-7), uint64(0), true)
	f.Add(uint64(2), int64(0), math.Float64bits(3.5), false)
	f.Add(uint64(2), int64(0), uint64(0x7ff8000000000001), false) // NaN payload
	f.Add(uint64(3), int64(1<<62), uint64(1), true)
	f.Fuzz(func(t *testing.T, kind uint64, i int64, fbits uint64, b bool) {
		var v any
		switch kind % 4 {
		case 0:
			v = nil
		case 1:
			v = int(i)
		case 2:
			v = math.Float64frombits(fbits)
		case 3:
			v = b
		}
		tag, bits, ok := encodeReplyValue(v)
		if !ok {
			t.Fatalf("encodeReplyValue(%#v) rejected a scalar", v)
		}
		if tag == replyBoxed {
			t.Fatalf("encodeReplyValue(%#v) returned ok with the boxed tag", v)
		}
		got := decodeReplyValue(tag, bits)
		switch want := v.(type) {
		case float64:
			gf, isF := got.(float64)
			if !isF || math.Float64bits(gf) != math.Float64bits(want) {
				t.Fatalf("float round-trip: got %#v, want bits %#x", got, math.Float64bits(want))
			}
		default:
			if got != v {
				t.Fatalf("round-trip: got %#v, want %#v", got, v)
			}
		}
	})
}

// FuzzFIRRoundTrip checks that an FIR of any chain length and any node
// ids crosses a process boundary whole.  It goes the way a socket link
// carries it: the frame codec copies the packet words sendFIR builds
// bit-exactly, the payload codec carries the hop list, and the receiver
// rebinds the address from the words as the hFIR handler does.
// hopBytes are read as little-endian int32 node ids.
func FuzzFIRRoundTrip(f *testing.F) {
	f.Add(uint64(17), int32(1), int32(2), []byte{})
	f.Add(uint64(1)<<40, int32(0), int32(3), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 1, 0})
	f.Add(uint64(0), int32(-1), int32(-1), bytes.Repeat([]byte{0xff, 0xff, 0xff, 0x7f}, 10))
	c := &payloadCodec{m: codecMachine(f)}
	f.Fuzz(func(t *testing.T, seq uint64, birth, hint int32, hopBytes []byte) {
		req := &firReq{addr: Addr{Birth: amnet.NodeID(birth), Hint: amnet.NodeID(hint), Seq: seq}}
		for i := 0; i+4 <= len(hopBytes); i += 4 {
			req.hops = append(req.hops, amnet.NodeID(int32(binary.LittleEndian.Uint32(hopBytes[i:]))))
		}
		p := locPacket(hFIR, 3, req.addr, amnet.NoNode, 0)
		p.Payload = req
		b, err := c.EncodePayload(&p)
		if err != nil {
			t.Fatalf("encode FIR: %v", err)
		}
		v, err := c.DecodePayload(b)
		if err != nil {
			t.Fatalf("decode FIR: %v", err)
		}
		got := v.(*firReq)
		got.addr, _, _ = decodeLoc(p)
		if got.addr != req.addr || !slices.Equal(got.hops, req.hops) {
			t.Fatalf("round trip: got %+v, want %+v", *got, *req)
		}
	})
}
