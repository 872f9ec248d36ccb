package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"hal"
	"hal/internal/amnet"
)

// unitLimit bounds one fib program run; a run past it is shut down and
// counted as failed.
const unitLimit = 60 * time.Second

// maxNotes bounds the failure messages a run keeps for its report.
const maxNotes = 10

// sizes are the workloads' input sizes.
type sizes struct {
	fibMemN, fibUnixN int // fib index
	prN, prIters      int // pagerank vertices and iterations
	rpcPerClient      int // requests per rpc client and round; 0 runs each round for its share of the run
}

// fullSize is what the benchmark runs.  fib-unix computes a smaller
// index than fib-mem because the socket path is some 30 times slower
// per message.  Units stay short, so one run has dozens of them.
var fullSize = sizes{fibMemN: 23, fibUnixN: 16, prN: 50000, prIters: 20}

// run accumulates one invocation of the benchmark on one workload.  A
// unit is one program run on a freshly set-up machine: one fib or
// pagerank computation, or one rpc round.
type run struct {
	size    sizes
	seed    int64
	dur     time.Duration
	sockDir string
	spans   *spanLog // nil in the untraced run

	attempted, failed int
	notes             []string

	units       int
	busy        time.Duration // summed over units: Launch to the checked result
	rate        hist          // per unit: delivered messages per second of busy time
	allocPerMsg hist          // per unit: heap bytes allocated per delivered message
	rtt         hist          // µs, every round trip: an rpc request, or a whole fib or pagerank run
	rttP50      hist          // per unit: the unit's median round trip
	rttP99      hist          // per unit: the unit's 99th-percentile round trip

	setupS                                           hist // s
	newMachineMs, startMs, handshakeMs, exitToWaitMs hist

	stats   hal.NodeStats // summed over units and processes
	wire    amnet.TransportStats
	timings wireTimings
	goDelta goCounters // measured phases, summed over processes
	rssMB   hist       // per unit: peak RSS of the unit's processes
}

// loop runs units until the run's time is up, always at least one.
func (r *run) loop(unit func(k int)) {
	resetPeakRSS()
	deadline := time.Now().Add(r.dur)
	for k := 0; k == 0 || time.Now().Before(deadline); k++ {
		unit(k)
	}
}

func unitTrace(k int) string { return fmt.Sprintf("unit.%d", k) }

// setUp records one machine set-up: from begin, an optional socket
// handshake ending at listened (pass begin when there is none),
// NewMachine ending at built, then type registration and Start ending at
// started.
func (r *run) setUp(tr string, begin, listened, built, started time.Time) {
	r.setupS.Observe(started.Sub(begin).Seconds())
	if listened.After(begin) {
		r.handshakeMs.Observe(millis(listened.Sub(begin)))
		r.spans.add(tr, "sock.handshake", tr+"/unit", begin, listened)
	}
	r.newMachineMs.Observe(millis(built.Sub(listened)))
	r.startMs.Observe(millis(started.Sub(built)))
	r.spans.add(tr, "setup.new_machine", tr+"/unit", listened, built)
	r.spans.add(tr, "setup.start", tr+"/unit", built, started)
}

// setUpTotal records a set-up whose parts are hidden inside an app's Run:
// only its total and the moment NewMachine returned are known.
func (r *run) setUpTotal(tr string, begin, built time.Time, total time.Duration) {
	r.setupS.Observe(total.Seconds())
	if !built.IsZero() {
		r.newMachineMs.Observe(millis(built.Sub(begin)))
		r.spans.add(tr, "setup.new_machine", tr+"/unit", begin, built)
	}
}

// program launches root on the started machine m and waits up to limit
// for its result.  It returns the result, the measured time and this
// process's Go counters over it.  exitAt holds the moment the program's
// result join called Exit, 0 if it never did.
func (r *run) program(m *hal.Machine, tr string, root func(*hal.Context), exitAt *atomic.Int64, limit time.Duration) (any, time.Duration, goCounters, error) {
	g0 := readGo()
	start := time.Now()
	prog, err := m.Launch(root)
	var v any
	if err == nil {
		v, err = waitProg(m, prog, limit)
	}
	end := time.Now()
	g1 := readGo()
	r.spans.add(tr, "program", tr+"/unit", start, end)
	if ns := exitAt.Load(); ns != 0 {
		exit := time.Unix(0, ns)
		r.exitToWaitMs.Observe(millis(end.Sub(exit)))
		r.spans.add(tr, "dist.exit_to_wait", tr+"/program", exit, end)
	}
	return v, end.Sub(start), g1.sub(g0), err
}

// roundTrips records one unit's round trips, µs.
func (r *run) roundTrips(h *hist) {
	r.rtt.Merge(h)
	r.rttP50.Observe(h.Quantile(0.5))
	r.rttP99.Observe(h.Quantile(0.99))
}

// oneRoundTrip records a unit that is a single round trip.
func (r *run) oneRoundTrip(d time.Duration) {
	var h hist
	h.Observe(micros(d))
	r.roundTrips(&h)
}

// measured records one unit's measured phase: took from Launch to the
// checked result, with the messages delivered and the Go counters of
// every process over it.
func (r *run) measured(took time.Duration, delivered uint64, g goCounters) {
	r.busy += took
	r.goDelta.add(g)
	r.rate.Observe(ratio(float64(delivered), took.Seconds()))
	r.allocPerMsg.Observe(ratio(float64(g.AllocBytes), float64(delivered)))
}

// waitProg waits for prog, shutting m down if it takes longer than limit.
func waitProg(m *hal.Machine, prog *hal.Program, limit time.Duration) (any, error) {
	type result struct {
		v   any
		err error
	}
	done := make(chan result, 1)
	go func() {
		v, err := prog.Wait()
		done <- result{v, err}
	}()
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case res := <-done:
		return res.v, res.err
	case <-timer.C:
		m.Shutdown() // Wait returns once the machine has stopped
		<-done
		return nil, fmt.Errorf("no result within %v", limit)
	}
}

func (r *run) unitDone(tr string, begin time.Time) {
	r.units++
	r.spans.add(tr, "unit", "", begin, time.Now())
}

// check counts a unit whose program returned v and err on m as failed
// unless it returned want.
func (r *run) check(tr string, m *hal.Machine, v any, err error, want any) {
	switch {
	case errors.Is(err, hal.ErrStalled):
		r.fail("%s: stalled: %v", tr, err)
	case err != nil:
		r.fail("%s: %v", tr, err)
	case m.RetryExhausted():
		r.fail("%s: retry budget exhausted", tr)
	case v != want:
		r.fail("%s: result %v, want %v", tr, v, want)
	}
}

// fail counts one failed unit and keeps its message.
func (r *run) fail(format string, args ...any) {
	r.failed++
	r.note(format, args...)
}

// note keeps a failure message; the caller does the counting.
func (r *run) note(format string, args ...any) {
	if len(r.notes) < maxNotes {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// addStats sums the kernel counters the metrics read.
func (r *run) addStats(s hal.NodeStats) {
	t := &r.stats
	t.Delivered += s.Delivered
	t.SendsFast += s.SendsFast
	t.SendsFastMiss += s.SendsFastMiss
	t.SendsRemote += s.SendsRemote
	t.SendsRouted += s.SendsRouted
	t.CacheUpdates += s.CacheUpdates
	t.FIRSent += s.FIRSent
	t.HeldMessages += s.HeldMessages
	t.Migrations += s.Migrations
	t.IdleParks += s.IdleParks
	t.DupsFiltered += s.DupsFiltered
	t.Retries += s.Retries
	t.FIRRepair.Merge(&s.FIRRepair)
	t.Net.Add(s.Net)
}

func (r *run) addWire(w amnet.TransportStats) {
	r.wire.WireSent += w.WireSent
	r.wire.WireBytesOut += w.WireBytesOut
	r.wire.CtlSent += w.CtlSent
}

// goCounters are the Go runtime's allocation and GC counters.
type goCounters struct {
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint64  `json:"gc_cycles"`
	GCPauseNs  float64 `json:"gc_pause_ns"`
}

func (g *goCounters) add(o goCounters) {
	g.AllocBytes += o.AllocBytes
	g.GCCycles += o.GCCycles
	g.GCPauseNs += o.GCPauseNs
}

func (g goCounters) sub(o goCounters) goCounters {
	return goCounters{g.AllocBytes - o.AllocBytes, g.GCCycles - o.GCCycles, g.GCPauseNs - o.GCPauseNs}
}

var goMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/sched/pauses/total/gc:seconds",
}

// readGo reads the runtime's cumulative counters.  Total GC pause time
// is estimated from the pause histogram's bucket midpoints.
func readGo() goCounters {
	s := make([]metrics.Sample, len(goMetrics))
	for i, name := range goMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	var g goCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		g.AllocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		g.GCCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		h := s[2].Value.Float64Histogram()
		for i, c := range h.Counts {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = hi
			}
			if math.IsInf(hi, 1) {
				hi = lo
			}
			g.GCPauseNs += float64(c) * (lo + hi) / 2 * 1e9
		}
	}
	return g
}

// unitPeak records the peak RSS of the unit that just ended: this
// process's since the last reset, plus otherKB for a worker process.
func (r *run) unitPeak(otherKB int64) {
	r.rssMB.Observe(float64(peakRSSKB()+otherKB) / 1024)
	resetPeakRSS()
}

// peakRSSKB returns this process's peak resident set size (VmHWM), KiB.
func peakRSSKB() int64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64); err == nil {
					return kb
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}

// resetPeakRSS starts a new peak-RSS window: Linux resets VmHWM to the
// current RSS when "5" is written to /proc/self/clear_refs.  Where that
// fails, peaks accumulate over the run instead.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio returns a/b, or 0 when b is 0: a mem workload has no wire
// frames, and a run without migrations has no per-move figures.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
