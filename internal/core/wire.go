package core

import (
	"math"

	"hal/internal/amnet"
)

// Packet word-encoding for the kernel's small control payloads.
//
// CMAM messages carry a handler plus four words; the kernel's most
// frequent control packets — cache updates, alias bindings, FIR answers,
// and scalar replies — fit that budget exactly, so boxing them through
// Packet.Payload (one heap allocation plus an interface dispatch per
// packet) is pure overhead on the hot path the paper prices in Tables
// 2–3.  This file is the single place the encodings live: every encoder
// has its decoder next to it, and the send helpers below are the only
// call sites that build these packets.
//
// Layouts (all unconditional — the receiver never guesses):
//
//	location triple (hCacheUpdate, hFIRFound, hMigrateAck, hAliasBind):
//	  U0 = addr.Seq   U1 = Birth<<32|Hint   U2 = node   U3 = seq
//	FIR (hFIR): the location triple's U0/U1 carry the chain address;
//	  the hop list rides Payload as a pooled *firReq record
//	reply (hReply; scalar values only, else boxed replyEnvelope):
//	  U0 = jc   U1 = slot | tag<<32   U2 = value bits   U3 = program id
//
// Node ids round-trip through uint32 so NoNode (-1) survives.

// packNodes packs two node ids into one word (a in the high half).
//
//halvet:wire nodes encode
func packNodes(a, b amnet.NodeID) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// unpackNodes is the inverse of packNodes.
//
//halvet:wire nodes decode
func unpackNodes(w uint64) (a, b amnet.NodeID) {
	return amnet.NodeID(int32(uint32(w >> 32))), amnet.NodeID(int32(uint32(w)))
}

// locPacket word-encodes a location triple: addr is known to live on node
// under descriptor slot seq.
//
//halvet:wire loc encode
func locPacket(h amnet.HandlerID, dst amnet.NodeID, addr Addr, node amnet.NodeID, seq uint64) amnet.Packet {
	return amnet.Packet{
		Handler: h,
		Dst:     dst,
		U0:      addr.Seq,
		U1:      packNodes(addr.Birth, addr.Hint),
		U2:      uint64(uint32(node)),
		U3:      seq,
	}
}

// decodeLoc is the inverse of locPacket.
//
//halvet:wire loc decode
func decodeLoc(p amnet.Packet) (addr Addr, node amnet.NodeID, seq uint64) {
	birth, hint := unpackNodes(p.U1)
	return Addr{Birth: birth, Hint: hint, Seq: p.U0},
		amnet.NodeID(int32(uint32(p.U2))), p.U3
}

// sendLoc transmits a word-encoded location triple as an unaccounted
// control packet.  Location repair is latency-critical: it bypasses
// output coalescing (see sendCtlNow).
func (n *node) sendLoc(h amnet.HandlerID, dst amnet.NodeID, addr Addr, node amnet.NodeID, seq uint64) {
	n.sendCtlNow(locPacket(h, dst, addr, node, seq))
}

// sendCacheUpdate tells dst that addr lives on node under descriptor slot
// seq — the one place the cache-update encoding is built.
func (n *node) sendCacheUpdate(dst amnet.NodeID, addr Addr, node amnet.NodeID, seq uint64) {
	n.sendLoc(hCacheUpdate, dst, addr, node, seq)
}

// --- reply encoding ----------------------------------------------------

// Reply value tags (Packet.U1 bits 32+).  Tag 0 means the value did not
// fit a word and rides boxed in Payload as a replyEnvelope.
const (
	replyBoxed uint64 = iota
	replyNil
	replyInt
	replyFloat
	replyBool
)

// encodeReplyValue word-encodes the common scalar reply values.  ok is
// false when v needs the boxed fallback.
//
//halvet:wire reply encode
func encodeReplyValue(v any) (tag, bits uint64, ok bool) {
	switch x := v.(type) {
	case nil:
		return replyNil, 0, true
	case int:
		return replyInt, uint64(x), true
	case float64:
		return replyFloat, math.Float64bits(x), true
	case bool:
		if x {
			return replyBool, 1, true
		}
		return replyBool, 0, true
	}
	return replyBoxed, 0, false
}

// decodeReplyValue is the inverse of encodeReplyValue.
//
//halvet:wire reply decode
func decodeReplyValue(tag, bits uint64) any {
	switch tag {
	case replyNil:
		return nil
	case replyInt:
		return int(bits)
	case replyFloat:
		return math.Float64frombits(bits)
	case replyBool:
		return bits != 0
	}
	return nil
}

// sendFIR transmits one FIR hop, consuming req: the address rides the
// packet words and the record itself rides Payload — by reference inside
// a process, as its hop list (the payload codec's wtFIR body) across
// processes.
func (n *node) sendFIR(dst amnet.NodeID, req *firReq) {
	p := locPacket(hFIR, dst, req.addr, amnet.NoNode, 0)
	p.Payload = req
	n.sendCtlNow(p)
}

// --- per-node control-plane arenas --------------------------------------
//
// The node.msgFree freelist pattern, extended to the two other
// per-control-packet allocations: spawn records and FIR records.
// Recycling is OWNERSHIP-BASED: whichever node consumes the object frees
// it into its own pool (objects may be allocated on one node and freed on
// another — a pool entry is just memory, not node state, and the handoff
// through the network channel orders the accesses).  An FIR record rides
// home to its originator with the answer (answerFIR), so the pool that
// issues FIRs is the one that gets them back.
//
// The pools stay on under Config.Faults, although the reliable layer
// keeps every sent packet (payload pointer included) in its retry table
// until acknowledged: a retransmit is either the only copy of a record
// nobody has consumed yet, or a duplicate that the handler wrapper
// (handlers.go) drops on its sequence number before any handler reads
// it.  The retry path itself never dereferences a payload — escalate
// reads the FIR address from the packet words.

const (
	spawnPoolCap = 1024
	pathPoolCap  = 256
)

// newSpawn returns a spawn record from the node-local pool.
func (n *node) newSpawn() *spawnRecord {
	if k := len(n.spawnFree); k > 0 {
		rec := n.spawnFree[k-1]
		n.spawnFree = n.spawnFree[:k-1]
		return rec
	}
	return &spawnRecord{}
}

// freeSpawn recycles a consumed spawn record.
func (n *node) freeSpawn(rec *spawnRecord) {
	*rec = spawnRecord{}
	if len(n.spawnFree) < spawnPoolCap {
		n.spawnFree = append(n.spawnFree, rec)
	}
}

// newPath returns an FIR record for addr, issued by this node, from the
// node-local pool.
func (n *node) newPath(addr Addr) *firReq {
	var req *firReq
	if k := len(n.pathFree); k > 0 {
		req = n.pathFree[k-1]
		n.pathFree = n.pathFree[:k-1]
	} else {
		req = &firReq{hops: make([]amnet.NodeID, 0, 8)}
	}
	req.addr = addr
	req.hops = append(req.hops, n.id)
	return req
}

// freePath recycles a consumed FIR record.
func (n *node) freePath(req *firReq) {
	if len(n.pathFree) < pathPoolCap {
		*req = firReq{hops: req.hops[:0]}
		n.pathFree = append(n.pathFree, req)
	}
}
