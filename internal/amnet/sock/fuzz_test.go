package sock

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"hal/internal/amnet"
)

// FuzzFrameRoundTrip drives the frame codec from both ends.  The input
// bytes are interpreted twice:
//
//  1. as packet material: a packet and a session header are built from
//     the words, framed, read back through readFrame, and compared bit
//     for bit (the encoder and decoder must be exact inverses for every
//     input), and
//  2. as a raw wire stream fed straight to readFrame/parsePacketBody/
//     parseControlBody, which must never panic, never allocate
//     unboundedly, and either parse or error — hostile bytes are what a
//     half-dead peer writes.
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	seed, _ := appendControlFrame(nil, sessHdr{seq: 4, ack: 2}, 3, []byte("hello"))
	f.Add(seed)
	p := amnet.Packet{Handler: 9, Src: 3, Dst: 1, U0: 1, U1: 2, U2: 3, U3: 4,
		VT: 2.5, Seq: 77, Data: []float64{1, 2}}
	seed2, _ := appendPacketFrame(nil, sessHdr{seq: 5, ack: 3}, &p, []byte{0xCA, 0xFE})
	f.Add(seed2)
	// A connection's opening as the reader sees it: the resume frame,
	// then a sequenced packet and a standalone ack.
	seed3 := appendHeader(nil, frResume, sessHdr{ack: 41}, 0)
	seed3, _ = appendPacketFrame(seed3, sessHdr{seq: 42, ack: 9}, &p, nil)
	seed3 = appendHeader(seed3, frAck, sessHdr{ack: 10}, 0)
	f.Add(seed3)
	// A header-only frame cut inside its session words.
	f.Add(appendHeader(nil, frAck, sessHdr{ack: math.MaxUint64}, 0)[:12])

	f.Fuzz(func(t *testing.T, in []byte) {
		// Direction 1: bytes -> packet -> frame -> packet.
		word := func(i int) uint64 {
			var w [8]byte
			copy(w[:], in[min(8*i, len(in)):])
			return binary.LittleEndian.Uint64(w[:])
		}
		pkt := amnet.Packet{
			Handler: amnet.HandlerID(word(0)),
			Src:     amnet.NodeID(int32(word(1))),
			Dst:     amnet.NodeID(int32(word(2))),
			U0:      word(3), U1: word(4), U2: word(5), U3: word(6),
			VT:  math.Float64frombits(word(7)),
			Seq: word(8),
		}
		var payload []byte
		if len(in) > 72 {
			payload = in[72:min(len(in), 72+512):min(len(in), 72+512)]
		}
		nData := int(word(9) % 65)
		if nData > 0 {
			pkt.Data = make([]float64, nData)
			for i := range pkt.Data {
				pkt.Data[i] = math.Float64frombits(word(10 + i))
			}
		}
		hdr := sessHdr{seq: word(10) ^ word(0), ack: word(11) ^ word(1)}
		frame, err := appendPacketFrame(nil, hdr, &pkt, payload)
		if err != nil {
			t.Fatalf("framing a bounded packet failed: %v", err)
		}
		kind, gotHdr, body, _, err := readFrame(bytes.NewReader(frame), nil)
		if err != nil || kind != frPacket || gotHdr != hdr {
			t.Fatalf("reading own frame: kind %d header %+v (want %+v) err %v", kind, gotHdr, hdr, err)
		}
		got, gotPayload, err := parsePacketBody(body)
		if err != nil {
			t.Fatalf("parsing own frame: %v", err)
		}
		if !packetsEqual(got, pkt) {
			t.Fatalf("packet round trip mismatch:\n got %+v\nwant %+v", got, pkt)
		}
		if !bytes.Equal(gotPayload, payload) {
			t.Fatalf("payload round trip mismatch: %x != %x", gotPayload, payload)
		}

		// Direction 2: bytes as a hostile wire stream.  Parse frames until
		// an error or exhaustion; nothing here may panic.
		r := bytes.NewReader(in)
		var scratch []byte
		for {
			kind, _, body, s, err := readFrame(r, scratch)
			if err != nil {
				break
			}
			scratch = s
			switch kind {
			case frPacket:
				if p, payload, err := parsePacketBody(body); err == nil {
					_ = p
					_ = payload
				}
			case frControl:
				if ck, rest, err := parseControlBody(body); err == nil {
					_ = ck
					_ = rest
				}
			}
		}
	})
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
