package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"hal/internal/amnet"
)

// The traced run measures the wire layers from outside: a decorator
// around the amnet.Transport the kernel sends through times every
// TrySend, and a decorator around the amnet.PayloadCodec the kernel
// installs through SetPayloadCodec times every encode and decode.  Both
// pass packets and payloads through untouched.

// wireTimings are the decorators' observations.
type wireTimings struct {
	TrySendCalls   uint64 `json:"trysend_calls"`
	TrySendRefused uint64 `json:"trysend_refused"`
	TrySendNs      hist   `json:"trysend_ns"`
	EncodeUs       hist   `json:"encode_us"`
	DecodeUs       hist   `json:"decode_us"`
	PayloadBytes   hist   `json:"payload_bytes"`
}

func (w *wireTimings) merge(o *wireTimings) {
	w.TrySendCalls += o.TrySendCalls
	w.TrySendRefused += o.TrySendRefused
	w.TrySendNs.Merge(&o.TrySendNs)
	w.EncodeUs.Merge(&o.EncodeUs)
	w.DecodeUs.Merge(&o.DecodeUs)
	w.PayloadBytes.Merge(&o.PayloadBytes)
}

// timedTransport is an amnet.Transport that times TrySend and wraps the
// payload codec the kernel installs.  TrySend runs on node kernel
// goroutines and the codec on link writer and reader goroutines, so one
// mutex guards the shared timings.
type timedTransport struct {
	amnet.Transport
	mu sync.Mutex
	t  wireTimings
}

func newTimedTransport(inner amnet.Transport) *timedTransport {
	return &timedTransport{Transport: inner}
}

func (d *timedTransport) TrySend(p amnet.Packet, urgent bool) bool {
	start := time.Now()
	ok := d.Transport.TrySend(p, urgent)
	ns := float64(time.Since(start).Nanoseconds())
	d.mu.Lock()
	d.t.TrySendCalls++
	if !ok {
		d.t.TrySendRefused++
	}
	d.t.TrySendNs.Observe(ns)
	d.mu.Unlock()
	return ok
}

func (d *timedTransport) SetPayloadCodec(c amnet.PayloadCodec) {
	d.Transport.SetPayloadCodec(timedCodec{inner: c, d: d})
}

// timings returns a copy of the observations so far.
func (d *timedTransport) timings() wireTimings {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out wireTimings
	out.merge(&d.t)
	return out
}

type timedCodec struct {
	inner amnet.PayloadCodec
	d     *timedTransport
}

func (c timedCodec) EncodePayload(p *amnet.Packet) ([]byte, error) {
	start := time.Now()
	b, err := c.inner.EncodePayload(p)
	us := microsSince(start)
	c.d.mu.Lock()
	c.d.t.EncodeUs.Observe(us)
	c.d.t.PayloadBytes.Observe(float64(len(b)))
	c.d.mu.Unlock()
	return b, err
}

func (c timedCodec) DecodePayload(b []byte) (any, error) {
	start := time.Now()
	v, err := c.inner.DecodePayload(b)
	us := microsSince(start)
	c.d.mu.Lock()
	c.d.t.DecodeUs.Observe(us)
	c.d.mu.Unlock()
	return v, err
}

func microsSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e3 }

// A span is one timed interval recorded by benchmark code around a call
// into a layer.  Spans are grouped into traces: the spans of one unit of
// work (a program run and its set-up) share the trace id "unit.<k>", and
// the spans of one sampled rpc request share "rpc.<k>.c<client>.s<seq>".
// Parent names the enclosing span as "<trace>/<name>", empty for a root.
// Times are µs since the run started.
type span struct {
	Trace  string  `json:"trace"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// maxSpans bounds the span log's memory; spans past it are counted, not
// kept.
const maxSpans = 200000

// spanLog keeps spans in memory until the run ends.  A nil *spanLog
// records nothing, which is how the untraced run stays untraced.
type spanLog struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

func (l *spanLog) add(trace, name, parent string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{
		Trace: trace, Name: name, Parent: parent,
		Start: float64(start.Sub(l.t0).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(l.t0).Nanoseconds()) / 1e3,
	}
	l.mu.Lock()
	if len(l.spans) < maxSpans {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// write stores the spans as one JSON document at path.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	doc := struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}{l.dropped, l.spans}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
