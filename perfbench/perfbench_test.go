package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"hal/internal/amnet"
	"hal/internal/apps/fib"
)

// TestMain lets the test binary serve as a fib-unix worker: the leader
// re-executes its own binary with --worker.
func TestMain(m *testing.M) {
	if len(os.Args) == 5 && os.Args[1] == "--worker" {
		if err := runWorker(os.Args[2], os.Args[4] == "1"); err != nil {
			os.Stderr.WriteString(err.Error() + "\n")
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestHistEmpty(t *testing.T) {
	var h hist
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Errorf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
}

func TestHistOneSample(t *testing.T) {
	var h hist
	h.Observe(12.345)
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 12.345 {
			t.Errorf("Quantile(%v) = %v, want 12.345", q, got)
		}
	}
}

func TestHistTies(t *testing.T) {
	for _, n := range []int{7, exactUpTo + 100} {
		var h hist
		for i := 0; i < n; i++ {
			h.Observe(3.25)
		}
		for _, q := range []float64{0.01, 0.5, 0.99} {
			if got := h.Quantile(q); got != 3.25 {
				t.Errorf("n=%d: Quantile(%v) = %v, want 3.25", n, q, got)
			}
		}
	}
}

// TestHistSmallSetIsExact checks the verbatim path against the
// interpolation between order statistics that the spread check uses.
func TestHistSmallSetIsExact(t *testing.T) {
	var h hist
	for _, v := range []float64{4, 1, 3, 2} {
		h.Observe(v)
	}
	if got := h.Quantile(0.5); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := h.Quantile(0.25); got != 1.75 {
		t.Errorf("q0.25 of 1..4 = %v, want 1.75", got)
	}
}

// TestHistLargeSetWithinResolution checks the bucket path against the
// exact quantiles of the same observations, also after a merge.
func TestHistLargeSetWithinResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a, b hist
	var all []float64
	for i := 0; i < 50000; i++ {
		v := math.Exp(rng.NormFloat64()) * 20 // a long-tailed µs-like spread
		all = append(all, v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(&b)
	slices.Sort(all)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		want := all[int(q*float64(len(all)-1))]
		got := a.Quantile(q)
		if math.Abs(got-want)/want > 1.0/subBuckets {
			t.Errorf("Quantile(%v) = %v, exact %v", q, got, want)
		}
	}
	if a.N != 50000 || a.Exact != nil {
		t.Errorf("merged N=%d, verbatim copy kept: %v", a.N, a.Exact != nil)
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v", got)
	}
	// A mem workload has no wire frames and no decorator timings: every
	// metric must still be a finite number.
	r := &run{units: 3}
	r.stats.Delivered = 100
	for _, m := range append(append(r.endToEnd(), r.perLayer()...), r.reported()...) {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %v on a run with no wire traffic", m.Name, m.Value)
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestMetricNames checks every metric name's form and that the result
// object carries exactly the metrics BENCHMARK.json declares.
func TestMetricNames(t *testing.T) {
	r := &run{}
	var names []string
	for _, ms := range [][]metric{r.endToEnd(), r.perLayer(), r.reported()} {
		for _, m := range ms {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("metric name %q does not match %v", m.Name, nameRE)
			}
			names = append(names, m.Name)
		}
	}
	slices.Sort(names)
	if d := slices.Compact(slices.Clone(names)); len(d) != len(names) {
		t.Errorf("duplicate metric names in %v", names)
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []metric
		want []struct{ Name, Unit string }
	}{{"end_to_end", r.endToEnd(), decl.EndToEnd}, {"per_layer", r.perLayer(), decl.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: the benchmark reports %d metrics, BENCHMARK.json declares %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, m := range c.got {
			if m.Name != c.want[i].Name || m.Unit != c.want[i].Unit {
				t.Errorf("%s[%d]: reported %s (%s), declared %s (%s)", c.what, i, m.Name, m.Unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}

// fakeWire records what a decorator passes through.
type fakeWire struct {
	amnet.Transport // unused methods panic
	sent            []amnet.Packet
	urgent          []bool
	accept          bool
	codec           amnet.PayloadCodec
}

func (f *fakeWire) TrySend(p amnet.Packet, urgent bool) bool {
	f.sent = append(f.sent, p)
	f.urgent = append(f.urgent, urgent)
	return f.accept
}

func (f *fakeWire) SetPayloadCodec(c amnet.PayloadCodec) { f.codec = c }

type fakeCodec struct{}

func (fakeCodec) EncodePayload(p *amnet.Packet) ([]byte, error) {
	return []byte(p.Payload.(string)), nil
}

func (fakeCodec) DecodePayload(b []byte) (any, error) { return "decoded:" + string(b), nil }

func TestTimedTransportPassesThrough(t *testing.T) {
	inner := &fakeWire{}
	d := newTimedTransport(inner)
	p := amnet.Packet{Handler: 7, Src: 1, Dst: 2, U0: 10, U1: 11, U2: 12, U3: 13, VT: 1.5, Seq: 9,
		Payload: "body", Data: []float64{1, 2}}
	if d.TrySend(p, true) {
		t.Error("TrySend accepted what the inner transport refused")
	}
	inner.accept = true
	if !d.TrySend(p, false) {
		t.Error("TrySend refused what the inner transport accepted")
	}
	if len(inner.sent) != 2 || !slices.Equal(inner.urgent, []bool{true, false}) {
		t.Fatalf("inner saw %d sends, urgent %v", len(inner.sent), inner.urgent)
	}
	for _, got := range inner.sent {
		if got.Handler != p.Handler || got.Src != p.Src || got.Dst != p.Dst || got.U0 != p.U0 ||
			got.U1 != p.U1 || got.U2 != p.U2 || got.U3 != p.U3 || got.VT != p.VT || got.Seq != p.Seq ||
			got.Payload != p.Payload || !slices.Equal(got.Data, p.Data) {
			t.Errorf("inner got %+v, want %+v", got, p)
		}
	}
	tm := d.timings()
	if tm.TrySendCalls != 2 || tm.TrySendRefused != 1 || tm.TrySendNs.N != 2 {
		t.Errorf("timings %d calls, %d refused, %d observed", tm.TrySendCalls, tm.TrySendRefused, tm.TrySendNs.N)
	}
}

func TestTimedCodecPassesThrough(t *testing.T) {
	inner := &fakeWire{}
	d := newTimedTransport(inner)
	d.SetPayloadCodec(fakeCodec{})
	if inner.codec == nil {
		t.Fatal("no codec reached the inner transport")
	}
	b, err := inner.codec.EncodePayload(&amnet.Packet{Payload: "hello"})
	if err != nil || string(b) != "hello" {
		t.Errorf("EncodePayload = %q, %v", b, err)
	}
	v, err := inner.codec.DecodePayload([]byte("x"))
	if err != nil || v != "decoded:x" {
		t.Errorf("DecodePayload = %v, %v", v, err)
	}
	tm := d.timings()
	if tm.EncodeUs.N != 1 || tm.DecodeUs.N != 1 || tm.PayloadBytes.Quantile(0.5) != 5 {
		t.Errorf("codec timings: %d encodes, %d decodes, %v bytes", tm.EncodeUs.N, tm.DecodeUs.N, tm.PayloadBytes.Quantile(0.5))
	}
}

// smokeSize is small enough that every workload's unit takes well under
// a second, with rpc clients stopping after a fixed count so that every
// count below is exact.
var smokeSize = sizes{fibMemN: 10, fibUnixN: 10, prN: 4000, prIters: 4, rpcPerClient: rpcMoveEvery}

func smokeRun(t *testing.T, workload string, traced bool) *run {
	t.Helper()
	r := &run{size: smokeSize, seed: 5, sockDir: t.TempDir()}
	if traced {
		r.spans = newSpanLog()
	}
	workloads[workload](r)
	if r.failed != 0 || r.attempted == 0 {
		t.Fatalf("%s: %d of %d failed: %v", workload, r.failed, r.attempted, r.notes)
	}
	if r.units != 1 && workload != "rpc-mem" {
		t.Fatalf("%s: %d units with a zero-length run, want 1", workload, r.units)
	}
	return r
}

// fibDelivered is the delivered-message count of one fib(n) program:
// every call is one message, plus the program's root message.
func fibDelivered(n int) uint64 { return uint64(2*fib.Seq(n+1) - 1 + 1) }

func TestSmokeFibMem(t *testing.T) {
	r := smokeRun(t, "fib-mem", false)
	if got, want := r.stats.Delivered, fibDelivered(10); got != want {
		t.Errorf("fib(10) delivered %d, want %d", got, want)
	}
	if r.setupS.N != 1 || r.rtt.N != 1 {
		t.Errorf("%d set-ups and %d round trips recorded, want 1 each", r.setupS.N, r.rtt.N)
	}
}

func TestSmokeFibUnix(t *testing.T) {
	r := smokeRun(t, "fib-unix", true)
	if got, want := r.stats.Delivered, fibDelivered(10); got != want {
		t.Errorf("fib(10) delivered %d across both processes, want %d", got, want)
	}
	if r.wire.WireSent == 0 || r.handshakeMs.N != 1 || r.goDelta.AllocBytes == 0 {
		t.Errorf("wire frames %d, handshakes %d, allocated bytes %d: the worker's side is missing",
			r.wire.WireSent, r.handshakeMs.N, r.goDelta.AllocBytes)
	}
	tm := r.timings
	if tm.TrySendCalls == 0 || tm.EncodeUs.N == 0 || tm.DecodeUs.N == 0 {
		t.Errorf("decorators saw %d TrySends, %d encodes, %d decodes", tm.TrySendCalls, tm.EncodeUs.N, tm.DecodeUs.N)
	}
	if r.exitToWaitMs.N != 1 {
		t.Errorf("%d exit-to-wait spans, want 1", r.exitToWaitMs.N)
	}
	entries, err := os.ReadDir(r.sockDir)
	if err != nil || len(entries) != 0 {
		t.Errorf("socket directory holds %d entries after the run (%v)", len(entries), err)
	}
}

func TestSmokeRPC(t *testing.T) {
	r := smokeRun(t, "rpc-mem", true)
	requests := rpcRounds * rpcClients * rpcMoveEvery
	if r.attempted != requests || r.rtt.N != uint64(requests) {
		t.Errorf("attempted %d, round trips %d, want %d", r.attempted, r.rtt.N, requests)
	}
	// Per round: the root message, one make per server, one start per
	// client, and per request the request itself plus its ledger tally.
	if got, want := r.stats.Delivered, uint64(rpcRounds*(1+2*rpcClients+2*rpcClients*rpcMoveEvery)); got != want {
		t.Errorf("delivered %d, want %d", got, want)
	}
	// rpcMoveEvery consecutive requests move every server exactly once.
	if got, want := r.stats.Migrations, uint64(rpcRounds*rpcClients); got != want {
		t.Errorf("migrations %d, want %d", got, want)
	}
	if len(r.spans.spans) == 0 {
		t.Error("the traced run kept no spans")
	}
}

func TestSmokePageRank(t *testing.T) {
	a := smokeRun(t, "pagerank-mem", false)
	b := smokeRun(t, "pagerank-mem", false)
	// The root message, one kick per part, a contribution from every
	// part to every part in every iteration, and one rank vector per part.
	if got, want := a.stats.Delivered, uint64(1+prNodes+prNodes*prNodes*smokeSize.prIters+prNodes); got != want {
		t.Errorf("delivered %d, want %d", got, want)
	}
	if a.stats.Net.BulkWords == 0 || a.stats.Net.BulkWords != b.stats.Net.BulkWords {
		t.Errorf("bulk words %d then %d, want equal and nonzero", a.stats.Net.BulkWords, b.stats.Net.BulkWords)
	}
}

func TestSpanLogWrite(t *testing.T) {
	l := newSpanLog()
	t0 := time.Now()
	l.add("unit.0", "unit", "", t0, t0.Add(time.Millisecond))
	l.add("unit.0", "program", "unit.0/unit", t0, t0.Add(time.Microsecond))
	path := t.TempDir() + "/spans/x.json"
	if err := l.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Dropped int    `json:"dropped"`
		Spans   []span `json:"spans"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Spans) != 2 || doc.Spans[1].Parent != "unit.0/unit" || doc.Spans[0].End <= doc.Spans[0].Start {
		t.Errorf("read back %+v", doc.Spans)
	}
	var nilLog *spanLog
	nilLog.add("unit.0", "unit", "", t0, t0) // the untraced run records nothing, without a check at each call
}

func TestFingerprintComparability(t *testing.T) {
	path := t.TempDir() + "/results.jsonl"
	host := hostFingerprint()
	rec := result{Workload: "fib-mem", Host: host, HostID: host.id()}
	if got := compareWithLog(path, rec); got != "previous none" {
		t.Errorf("first result: %q", got)
	}
	if got := compareWithLog(path, rec); got != "previous comparable (same host id "+host.id()+")" {
		t.Errorf("same host: %q", got)
	}
	other := host
	other.NumCPU++
	rec2 := result{Workload: "fib-mem", Host: other, HostID: other.id()}
	if got := compareWithLog(path, rec2); !regexp.MustCompile(`^previous NOT COMPARABLE`).MatchString(got) {
		t.Errorf("different host: %q", got)
	}
}
