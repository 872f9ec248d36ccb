package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"hal"
	"hal/internal/amnet"
	"hal/internal/amnet/sock"
	"hal/internal/apps/fib"
)

// fibNodes is the fib workloads' node count: the host this benchmark was
// tuned on has two CPUs.
const fibNodes = 2

// fibConfig is the machine every fib process builds.  Every process of
// a fib-unix machine must build it from the same seed.
func fibConfig(seed int64) hal.Config {
	cfg := hal.DefaultConfig(fibNodes)
	cfg.Seed = seed
	cfg.Out = os.Stderr // standard output carries the result
	return cfg
}

// newFibMachine builds a machine from cfg and registers fib on it with
// random static placement and no load balancing, as fib.Run does for
// fib.PlaceRandom.  It returns when NewMachine returned, for the set-up
// spans.
func newFibMachine(cfg hal.Config) (*hal.Machine, hal.TypeID, time.Time, error) {
	m, err := hal.NewMachine(cfg)
	built := time.Now()
	if err != nil {
		return nil, 0, built, err
	}
	return m, fib.Register(m, fib.Config{Place: fib.PlaceRandom}, nil), built, nil
}

// fibRoot is fib.Run's program for fib.PlaceRandom, with the moment the
// result join calls Exit stored in exitAt.
func fibRoot(typ hal.TypeID, n int, exitAt *atomic.Int64) func(*hal.Context) {
	return func(ctx *hal.Context) {
		root := ctx.NewOn(ctx.Rand().Intn(ctx.Nodes()), typ)
		j := ctx.NewJoin(1, func(ctx *hal.Context, slots []any) {
			exitAt.Store(time.Now().UnixNano())
			ctx.Exit(slots[0])
		})
		ctx.Request(root, fib.SelCompute, j, 0, n)
	}
}

// runFibMem is the fib-mem workload: a closed loop of units, each a
// fresh two-node machine in this process computing fib(size.fibMemN).
func runFibMem(r *run) {
	n := r.size.fibMemN
	want := fib.Seq(n)
	r.loop(func(k int) {
		r.attempted++
		tr := unitTrace(k)
		begin := time.Now()
		m, typ, built, err := newFibMachine(fibConfig(r.seed))
		if err != nil {
			r.fail("%s: %v", tr, err)
			return
		}
		if err := m.Start(); err != nil {
			r.fail("%s: %v", tr, err)
			return
		}
		r.setUp(tr, begin, begin, built, time.Now())
		var exitAt atomic.Int64
		v, took, g, err := r.program(m, tr, fibRoot(typ, n, &exitAt), &exitAt, unitLimit)
		m.Shutdown()
		r.unitDone(tr, begin)
		r.unitPeak(0)
		st := m.Stats().Total
		r.addStats(st)
		r.measured(took, st.Delivered, g)
		r.oneRoundTrip(took)
		r.check(tr, m, v, err, want)
	})
}

// runFibUnix is the fib-unix workload: the same program on two nodes
// split across two OS processes joined by one unix-domain connection.
// This process is the leader and hosts node 0; each unit starts a fresh
// worker process (this binary with --worker) for node 1.
func runFibUnix(r *run) {
	self, err := os.Executable()
	if err != nil {
		r.attempted++
		r.fail("locating the worker binary: %v", err)
		return
	}
	want := fib.Seq(r.size.fibUnixN)
	r.loop(func(k int) {
		r.attempted++
		if err := r.fibUnixUnit(k, self, want); err != nil {
			r.fail("%s: %v", unitTrace(k), err)
		}
	})
}

// distSpec is the machine recipe the leader hands its worker in the
// socket handshake.
type distSpec struct {
	Seed int64
}

func (r *run) fibUnixUnit(k int, self string, want int) error {
	tr := unitTrace(k)
	addr := filepath.Join(r.sockDir, fmt.Sprintf("hal-%d-%d.sock", os.Getpid(), k))
	// sock.Join gives the worker's own listener the ".w1" sibling path.
	defer os.Remove(addr + ".w1")
	defer os.Remove(addr)
	w, err := startWorker(self, addr, r.spans != nil)
	if err != nil {
		return err
	}
	defer w.kill()

	begin := time.Now()
	blob, err := json.Marshal(distSpec{Seed: r.seed})
	if err != nil {
		return err
	}
	t, reg, err := sock.Listen(sock.LeaderConfig{
		Network: "unix", Addr: addr, Workers: 1, Nodes: fibNodes, Blob: blob,
	})
	if err != nil {
		return fmt.Errorf("sock.Listen: %w", err)
	}
	defer t.Close()
	listened := time.Now()
	var wire amnet.Transport = t
	var timed *timedTransport
	if r.spans != nil {
		timed = newTimedTransport(t)
		wire = timed
	}
	lo, hi := reg.SpanOf(0)
	cfg := fibConfig(r.seed)
	cfg.Dist = &hal.DistConfig{Transport: wire, Leader: true, Lo: int(lo), Hi: int(hi)}
	m, typ, built, err := newFibMachine(cfg)
	if err != nil {
		return err
	}
	if err := m.Start(); err != nil {
		return err
	}
	r.setUp(tr, begin, listened, built, time.Now())

	var exitAt atomic.Int64
	v, took, g, progErr := r.program(m, tr, fibRoot(typ, r.size.fibUnixN, &exitAt), &exitAt, unitLimit)
	m.Shutdown() // tells the worker to shut down too
	r.unitDone(tr, begin)
	t.Close()
	w.stdin.Close() // lets the worker close its end and exit

	rep, err := w.report(workerExitLimit)
	if err != nil {
		return err
	}
	st := m.Stats().Total
	r.addStats(st)
	r.addStats(rep.Stats)
	r.addWire(t.TransportStats())
	r.addWire(rep.Wire)
	g.add(rep.Go)
	r.measured(took, st.Delivered+rep.Stats.Delivered, g)
	r.oneRoundTrip(took)
	r.unitPeak(rep.MaxRSSKB)
	if timed != nil {
		tt := timed.timings()
		r.timings.merge(&tt)
		r.timings.merge(&rep.Timings)
	}
	switch {
	case rep.Err != "":
		r.fail("%s: worker: %s", tr, rep.Err)
	case rep.RetryExhausted:
		r.fail("%s: worker: retry budget exhausted", tr)
	default:
		r.check(tr, m, v, progErr, want)
	}
	return nil
}

// workerExitLimit bounds the wait for a worker to report and exit once
// the leader has shut the machine down.
const workerExitLimit = 20 * time.Second

// workerReport is what a fib-unix worker sends the leader when its
// machine has shut down, so the per-layer numbers cover both processes.
type workerReport struct {
	Err            string               `json:"err,omitempty"`
	RetryExhausted bool                 `json:"retry_exhausted"`
	Stats          hal.NodeStats        `json:"stats"`
	Wire           amnet.TransportStats `json:"wire"`
	Timings        wireTimings          `json:"timings"`
	Go             goCounters           `json:"go"`
	MaxRSSKB       int64                `json:"max_rss_kb"`
}

// workerProc is a running fib-unix worker.  Its standard output carries
// the report; closing its standard input tells it the leader is done
// with it.
type workerProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   bytes.Buffer
	done  chan error
	err   error
	ended bool
}

func startWorker(self, addr string, traced bool) (*workerProc, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	w := &workerProc{
		cmd:  exec.Command(self, "--worker", addr, "--trace", trace),
		done: make(chan error, 1),
	}
	w.cmd.Stdout = &w.out
	w.cmd.Stderr = os.Stderr
	// A leader killed outright runs none of its clean-up; the kernel
	// then kills the worker.
	w.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := w.cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	w.stdin = stdin
	if err := w.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting worker: %w", err)
	}
	go func() { w.done <- w.cmd.Wait() }()
	return w, nil
}

// wait waits up to limit for the worker to exit, killing it after that.
func (w *workerProc) wait(limit time.Duration) error {
	if w.ended {
		return w.err
	}
	timer := time.NewTimer(limit)
	defer timer.Stop()
	select {
	case w.err = <-w.done:
	case <-timer.C:
		w.cmd.Process.Kill()
		<-w.done
		w.err = fmt.Errorf("worker did not exit within %v", limit)
	}
	w.ended = true
	return w.err
}

// report waits for the worker to exit and decodes its report.
func (w *workerProc) report(limit time.Duration) (workerReport, error) {
	var rep workerReport
	if err := w.wait(limit); err != nil {
		return rep, fmt.Errorf("worker: %w", err)
	}
	if err := json.Unmarshal(w.out.Bytes(), &rep); err != nil {
		return rep, fmt.Errorf("decoding the worker's report: %w", err)
	}
	return rep, nil
}

// kill stops the worker if it is still running and waits for it; every
// exit path of a unit calls it, so no worker outlives its unit.
func (w *workerProc) kill() {
	w.stdin.Close()
	if !w.ended {
		w.cmd.Process.Kill()
		w.wait(workerExitLimit)
	}
}

// runWorker is the worker side of a fib-unix unit: join the leader at
// addr, build the identical machine, host node 1 until the leader shuts
// the machine down, and print the report on standard output.  The
// worker then keeps its end of the connection open until the leader
// closes its standard input, so the shutdown acknowledgment the leader
// waits for is never cut off by this process closing its socket first.
func runWorker(addr string, traced bool) error {
	leaderDone := make(chan struct{})
	go func() {
		io.Copy(io.Discard, os.Stdin) // the leader never writes
		close(leaderDone)
	}()
	t, reg, blob, err := sock.Join("unix", addr)
	if err != nil {
		return fmt.Errorf("sock.Join: %w", err)
	}
	defer t.Close()
	var spec distSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		return fmt.Errorf("decoding the leader's spec: %w", err)
	}
	var wire amnet.Transport = t
	var timed *timedTransport
	if traced {
		timed = newTimedTransport(t)
		wire = timed
	}
	lo, hi := reg.SpanOf(t.Self())
	cfg := fibConfig(spec.Seed)
	cfg.Dist = &hal.DistConfig{Transport: wire, Lo: int(lo), Hi: int(hi)}
	m, _, _, err := newFibMachine(cfg)
	if err != nil {
		return err
	}
	if err := m.Start(); err != nil {
		return err
	}
	g0 := readGo()
	waitErr := m.DistWait()
	g1 := readGo()
	m.Shutdown()
	rep := workerReport{
		RetryExhausted: m.RetryExhausted(),
		Stats:          m.Stats().Total,
		Wire:           t.TransportStats(),
		Go:             g1.sub(g0),
		MaxRSSKB:       peakRSSKB(),
	}
	if waitErr != nil {
		rep.Err = waitErr.Error()
	}
	if timed != nil {
		rep.Timings = timed.timings()
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return err
	}
	<-leaderDone
	return nil
}
