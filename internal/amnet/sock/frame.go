// Package sock is the wire transport: it carries amnet packets between
// the OS processes of a machine that spans more than one, over
// unix-domain or TCP sockets (amnet.Transport is the seam).
//
// The wire format is a length-prefixed frame stream per connection.
// Every frame is
//
//	u32 LE body length | kind byte | seq u64 LE | ack u64 LE | rest
//
// The kind byte selects the frame kind: a packet frame carries one
// amnet.Packet (fixed 72-byte word section, then the codec-encoded
// payload bytes, then the bulk data words), a control frame carries an
// out-of-band message for the kernel's distributed control plane or the
// transport's own handshake, and the ack and resume frames carry only
// their header.  The seq and ack words are the link session's header
// (link.go): seq numbers every packet and control frame a link
// carries after the handshake (0 on the handshake's own frames and on
// acks), and ack is the sender's cumulative receive high-water mark for
// the reverse direction.  The word sections are checked by halvet's
// wiresym analyzer like the kernel's other codecs: packFrameMeta/
// unpackFrameMeta and packSessionHdr/unpackSessionHdr below are the
// annotated pairs.
//
// Ordering and loss: each process pair shares one link, an exactly-once
// FIFO session whose frames are written by a single writer goroutine.
// The writer keeps every sequenced frame until the peer acknowledges it;
// a dropped connection is redialed, opens with a resume frame carrying
// the receiver's high-water mark, and the writer replays everything past
// it while the reader discards anything at or below it.  A connection
// loss therefore neither loses, duplicates nor reorders a frame, and the
// kernel's reliable-delivery layer (core/reliable.go) is needed only to
// recover from the faults a FaultPlan injects.
package sock

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"hal/internal/amnet"
)

const (
	// frPacket frames one amnet.Packet; frControl frames an out-of-band
	// control message (rest: control kind byte + payload).  frAck and
	// frResume carry only the session header: a standalone ack, and the
	// first frame of every connection, whose ack word is the receiver's
	// high-water mark the peer resumes from.
	frPacket  byte = 1
	frControl byte = 2
	frAck     byte = 3
	frResume  byte = 4

	// hdrLen is the frame header after the length prefix: the kind byte
	// and the two session words (packSessionHdr).
	hdrLen = 1 + 2*8

	// packetWords is the fixed word section of a packet body: three
	// meta words (packFrameMeta) + U0..U3 + VT bits + Seq.
	packetWords = 9
	packetFixed = packetWords * 8

	// maxFrameBody bounds a frame body (128 MiB): large enough for any
	// workload segment, small enough that a corrupt length prefix
	// cannot drive a huge allocation.
	maxFrameBody = 1 << 27
)

// sessHdr is a frame's session header.  seq is the frame's position in
// its link's sequenced stream (0 for unsequenced frames: handshake,
// ack, resume); ack is the sender's cumulative receive high-water mark,
// every sequenced frame up to it having been delivered.
type sessHdr struct {
	seq, ack uint64
}

// packSessionHdr packs a session header into its two wire words: the
// frame's sequence number (w0) and the cumulative ack (w1).
//
//halvet:wire session encode
func packSessionHdr(seq, ack uint64) (w0, w1 uint64) {
	return seq, ack
}

// unpackSessionHdr is the inverse of packSessionHdr.
//
//halvet:wire session decode
func unpackSessionHdr(w0, w1 uint64) (seq, ack uint64) {
	return w0, w1
}

// packFrameMeta packs a packet's routing and section lengths into the
// three leading wire words: src/dst node ids (w0, src high), the handler
// id (w1), and the payload/data byte-section lengths (w2, payload high).
//
//halvet:wire frame encode
func packFrameMeta(src, dst amnet.NodeID, h amnet.HandlerID, payLen, dataLen uint32) (w0, w1, w2 uint64) {
	return uint64(uint32(src))<<32 | uint64(uint32(dst)),
		uint64(h),
		uint64(payLen)<<32 | uint64(dataLen)
}

// unpackFrameMeta is the inverse of packFrameMeta.
//
//halvet:wire frame decode
func unpackFrameMeta(w0, w1, w2 uint64) (src, dst amnet.NodeID, h amnet.HandlerID, payLen, dataLen uint32) {
	return amnet.NodeID(int32(uint32(w0 >> 32))), amnet.NodeID(int32(uint32(w0))),
		amnet.HandlerID(uint8(w1)),
		uint32(w2 >> 32), uint32(w2)
}

// appendHeader appends a frame's length prefix, kind byte and session
// words, reserving room for the rest bytes the caller appends after
// them.
func appendHeader(buf []byte, kind byte, h sessHdr, rest int) []byte {
	buf = slices.Grow(buf, 4+hdrLen+rest)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(hdrLen+rest))
	buf = append(buf, kind)
	w0, w1 := packSessionHdr(h.seq, h.ack)
	buf = binary.LittleEndian.AppendUint64(buf, w0)
	return binary.LittleEndian.AppendUint64(buf, w1)
}

// appendPacketFrame appends p's complete wire frame (length prefix
// included) to buf.  payload is the codec-encoded Payload body, empty
// when p.Payload is nil.
func appendPacketFrame(buf []byte, h sessHdr, p *amnet.Packet, payload []byte) ([]byte, error) {
	rest := packetFixed + len(payload) + 8*len(p.Data)
	if hdrLen+rest > maxFrameBody {
		return buf, fmt.Errorf("sock: packet frame body %d exceeds the %d-byte cap", hdrLen+rest, maxFrameBody)
	}
	buf = appendHeader(buf, frPacket, h, rest)
	w0, w1, w2 := packFrameMeta(p.Src, p.Dst, p.Handler, uint32(len(payload)), uint32(8*len(p.Data)))
	buf = binary.LittleEndian.AppendUint64(buf, w0)
	buf = binary.LittleEndian.AppendUint64(buf, w1)
	buf = binary.LittleEndian.AppendUint64(buf, w2)
	buf = binary.LittleEndian.AppendUint64(buf, p.U0)
	buf = binary.LittleEndian.AppendUint64(buf, p.U1)
	buf = binary.LittleEndian.AppendUint64(buf, p.U2)
	buf = binary.LittleEndian.AppendUint64(buf, p.U3)
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.VT))
	buf = binary.LittleEndian.AppendUint64(buf, p.Seq)
	buf = append(buf, payload...)
	for _, v := range p.Data {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf, nil
}

// parsePacketBody decodes a packet frame's body (the header already
// stripped).  The returned payload aliases body and must be consumed
// before the caller reuses its read buffer; Data is freshly allocated
// (it outlives the frame inside the destination inbox).
func parsePacketBody(body []byte) (p amnet.Packet, payload []byte, err error) {
	if len(body) < packetFixed {
		return p, nil, fmt.Errorf("sock: truncated packet frame: %d bytes, want at least %d", len(body), packetFixed)
	}
	w0 := binary.LittleEndian.Uint64(body[0:])
	w1 := binary.LittleEndian.Uint64(body[8:])
	w2 := binary.LittleEndian.Uint64(body[16:])
	src, dst, h, payLen, dataLen := unpackFrameMeta(w0, w1, w2)
	p.Src, p.Dst, p.Handler = src, dst, h
	p.U0 = binary.LittleEndian.Uint64(body[24:])
	p.U1 = binary.LittleEndian.Uint64(body[32:])
	p.U2 = binary.LittleEndian.Uint64(body[40:])
	p.U3 = binary.LittleEndian.Uint64(body[48:])
	p.VT = math.Float64frombits(binary.LittleEndian.Uint64(body[56:]))
	p.Seq = binary.LittleEndian.Uint64(body[64:])
	rest := body[packetFixed:]
	if uint64(payLen)+uint64(dataLen) != uint64(len(rest)) {
		return amnet.Packet{}, nil, fmt.Errorf("sock: packet frame sections (%d payload + %d data) disagree with body length %d",
			payLen, dataLen, len(rest))
	}
	if dataLen%8 != 0 {
		return amnet.Packet{}, nil, fmt.Errorf("sock: packet frame data section %d is not word-aligned", dataLen)
	}
	payload = rest[:payLen]
	if dataLen > 0 {
		words := rest[payLen:]
		p.Data = make([]float64, dataLen/8)
		for i := range p.Data {
			p.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(words[8*i:]))
		}
	}
	return p, payload, nil
}

// appendControlFrame appends a control frame (length prefix included):
// kind selects the receiver-side dispatch, body rides opaque.
func appendControlFrame(buf []byte, h sessHdr, kind uint8, body []byte) ([]byte, error) {
	if n := hdrLen + 1 + len(body); n > maxFrameBody {
		return buf, fmt.Errorf("sock: control frame body %d exceeds the %d-byte cap", n, maxFrameBody)
	}
	buf = appendHeader(buf, frControl, h, 1+len(body))
	buf = append(buf, kind)
	return append(buf, body...), nil
}

// parseControlBody splits a control frame's body (header stripped)
// into the control kind and its payload.
func parseControlBody(body []byte) (kind uint8, rest []byte, err error) {
	if len(body) < 1 {
		return 0, nil, fmt.Errorf("sock: empty control frame")
	}
	return body[0], body[1:], nil
}

// readFrame reads one frame from r, reusing scratch when it is big
// enough.  It returns the frame kind, its session header, the body
// after the header, and the (possibly grown) scratch buffer.  Short
// reads — a connection dying mid-frame — surface as io errors from
// ReadFull.
func readFrame(r io.Reader, scratch []byte) (kind byte, h sessHdr, body, newScratch []byte, err error) {
	var pre [4]byte
	if _, err := io.ReadFull(r, pre[:]); err != nil {
		return 0, h, nil, scratch, err
	}
	n := binary.LittleEndian.Uint32(pre[:])
	if n < hdrLen || n > maxFrameBody {
		return 0, h, nil, scratch, fmt.Errorf("sock: frame body length %d out of range [%d,%d]", n, hdrLen, maxFrameBody)
	}
	if cap(scratch) < int(n) {
		scratch = make([]byte, n)
	}
	scratch = scratch[:n]
	if _, err := io.ReadFull(r, scratch); err != nil {
		return 0, h, nil, scratch, fmt.Errorf("sock: connection died mid-frame: %w", err)
	}
	h.seq, h.ack = unpackSessionHdr(binary.LittleEndian.Uint64(scratch[1:]), binary.LittleEndian.Uint64(scratch[9:]))
	return scratch[0], h, scratch[hdrLen:], scratch, nil
}
