package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"hal"
)

// The rpc-mem workload: rpcClients client actors on node 0 of a
// three-node machine, each keeping one request outstanding to its own
// server.  Servers are born on node 1 or 2, created by a factory actor
// there, so node 0 holds only cached descriptors for them.  A server
// migrates to the other server node every rpcMoveEvery requests, and
// every served request also SendFasts a one-way tally to a ledger actor
// on node 1: a local hit while the server sits on node 1, a miss on
// node 2.
const (
	rpcNodes     = 3
	rpcClients   = 8
	rpcMoveEvery = 64
	// rpcRounds is how many fresh machines one run measures in turn,
	// each for an equal share of the run: many short rounds give the
	// per-round figures enough samples for a steady faster quartile.
	rpcRounds = 20
	// rpcExtraSetUps is how many machines each round also sets up and
	// tears down without running, for the set-up time's sake.
	rpcExtraSetUps = 2
	// rpcDrainLimit bounds how long a round may run past its share of
	// the run before it is shut down and its open requests count as
	// failed, so that all rounds end well inside the run's time limit.
	rpcDrainLimit = 5 * time.Second
	// rpcSpanEvery samples the requests the traced run keeps spans for:
	// a prime, so the sample walks through every phase of the move
	// cycle.
	rpcSpanEvery = 251
)

// Selectors of the rpc protocol.
const (
	selMake  hal.Selector = iota + 1 // factory: create a server, reply with its address
	selStart                         // client: start the closed loop; reply when stopped
	selServe                         // server: args (client, seq); reply seq
	selTally                         // ledger: count one served request
)

// rpcShared is the state of one round that the benchmark and the actors
// share.  Clients all run on node 0's goroutine, so the per-client
// fields and the histogram need no lock; the benchmark reads them after
// the program has quiesced.
type rpcShared struct {
	round     int
	perClient int // requests per client, 0 for as many as the round's time allows
	stop      atomic.Bool
	tallies   atomic.Int64
	rtt       hist // µs, every request
	spans     *spanLog
	clients   [rpcClients]struct{ issued, done, bad int }
}

func (s *rpcShared) sampled(seq int) bool { return s.spans != nil && seq%rpcSpanEvery == 0 }

func (s *rpcShared) reqTrace(client, seq int) string {
	return fmt.Sprintf("rpc.%d.c%d.s%d", s.round, client, seq)
}

type factory struct{ server hal.TypeID }

func (f *factory) Receive(ctx *hal.Context, msg *hal.Message) {
	ctx.Reply(msg, ctx.NewType(f.server, msg.Addr(0), msg.Int(1)))
}

type server struct {
	sh     *rpcShared
	ledger hal.Addr
	served int // offset by a seeded phase, so servers do not move in step
}

func (s *server) Receive(ctx *hal.Context, msg *hal.Message) {
	client, seq := msg.Int(0), msg.Int(1)
	begin := time.Now()
	ctx.SendFast(s.ledger, selTally)
	ctx.Reply(msg, seq)
	s.served++
	if s.served%rpcMoveEvery == 0 {
		ctx.Migrate(3 - ctx.Node()) // nodes 1 and 2 swap
	}
	if s.sh.sampled(seq) {
		tr := s.sh.reqTrace(client, seq)
		s.sh.spans.add(tr, "rpc.serve", tr+"/rpc.request", begin, time.Now())
	}
}

type ledger struct{ sh *rpcShared }

func (l *ledger) Receive(ctx *hal.Context, msg *hal.Message) { l.sh.tallies.Add(1) }

type client struct {
	sh     *rpcShared
	idx    int
	server hal.Addr
	start  hal.Message // the start request, answered when the loop stops
	seq    int
	sent   time.Time
}

func (c *client) Receive(ctx *hal.Context, msg *hal.Message) {
	c.start = *msg
	c.issue(ctx)
}

func (c *client) issue(ctx *hal.Context) {
	c.seq++
	c.sh.clients[c.idx].issued++
	c.sent = time.Now()
	ctx.Request(c.server, selServe, ctx.NewJoin(1, c.replied), 0, c.idx, c.seq)
}

func (c *client) replied(ctx *hal.Context, slots []any) {
	now := time.Now()
	c.sh.rtt.Observe(float64(now.Sub(c.sent).Nanoseconds()) / 1e3)
	st := &c.sh.clients[c.idx]
	st.done++
	if v, ok := slots[0].(int); !ok || v != c.seq {
		st.bad++
	}
	if c.sh.sampled(c.seq) {
		c.sh.spans.add(c.sh.reqTrace(c.idx, c.seq), "rpc.request",
			unitTrace(c.sh.round)+"/program", c.sent, now)
	}
	if c.sh.stop.Load() || c.seq == c.sh.perClient {
		ctx.Reply(&c.start, nil)
		return
	}
	c.issue(ctx)
}

// rpcRoot builds the round's actors and starts the clients; the program
// exits once every client has stopped.
func rpcRoot(sh *rpcShared, clientT, factoryT, ledgerT hal.TypeID) func(*hal.Context) {
	return func(ctx *hal.Context) {
		led := ctx.NewOn(1, ledgerT)
		fac := [2]hal.Addr{ctx.NewOn(1, factoryT), ctx.NewOn(2, factoryT)}
		servers := ctx.NewJoin(rpcClients, func(ctx *hal.Context, addrs []any) {
			done := ctx.NewJoin(rpcClients, func(ctx *hal.Context, _ []any) { ctx.Exit(true) })
			for i, a := range addrs {
				c := ctx.NewType(clientT, i, a.(hal.Addr))
				ctx.Request(c, selStart, done, i)
			}
		})
		for i := 0; i < rpcClients; i++ {
			ctx.Request(fac[i%2], selMake, servers, i, led, ctx.Rand().Intn(rpcMoveEvery))
		}
	}
}

// runRPC is the rpc-mem workload.
func runRPC(r *run) {
	resetPeakRSS()
	for k := 0; k < rpcRounds; k++ {
		r.rpcRound(k, r.dur/rpcRounds)
	}
}

// rpcMachine is one round's machine and the types registered on it.
type rpcMachine struct {
	m                          *hal.Machine
	clientT, factoryT, ledgerT hal.TypeID
}

// newRPCMachine builds and starts a round's machine, returning when
// NewMachine returned and when Start did.
func newRPCMachine(sh *rpcShared, seed int64) (rpcMachine, time.Time, time.Time, error) {
	cfg := hal.DefaultConfig(rpcNodes)
	cfg.Seed = seed
	cfg.Out = os.Stderr // standard output carries the result
	m, err := hal.NewMachine(cfg)
	built := time.Now()
	if err != nil {
		return rpcMachine{}, built, built, err
	}
	rm := rpcMachine{m: m}
	rm.clientT = m.RegisterType("rpc-client", func(args []any) hal.Behavior {
		return &client{sh: sh, idx: args[0].(int), server: args[1].(hal.Addr)}
	})
	serverT := m.RegisterType("rpc-server", func(args []any) hal.Behavior {
		return &server{sh: sh, ledger: args[0].(hal.Addr), served: args[1].(int)}
	})
	rm.factoryT = m.RegisterType("rpc-factory", func([]any) hal.Behavior { return &factory{server: serverT} })
	rm.ledgerT = m.RegisterType("rpc-ledger", func([]any) hal.Behavior { return &ledger{sh: sh} })
	err = m.Start()
	return rm, built, time.Now(), err
}

func (r *run) rpcRound(k int, length time.Duration) {
	tr := unitTrace(k)
	sh := &rpcShared{round: k, perClient: r.size.rpcPerClient, spans: r.spans}
	seed := r.seed + int64(k)
	// A round is a single unit, so its set-up alone would give set-up
	// time only rpcRounds samples per run; time more, without running.
	for i := 0; i < rpcExtraSetUps; i++ {
		begin := time.Now()
		rm, _, started, err := newRPCMachine(sh, seed)
		if err == nil {
			r.setupS.Observe(started.Sub(begin).Seconds())
			rm.m.Shutdown()
		}
	}
	begin := time.Now()
	rm, built, started, err := newRPCMachine(sh, seed)
	if err != nil {
		r.attempted++
		r.fail("%s: %v", tr, err)
		return
	}
	m := rm.m
	r.setUp(tr, begin, begin, built, started)

	if sh.perClient == 0 {
		stopper := time.AfterFunc(length, func() { sh.stop.Store(true) })
		defer stopper.Stop()
	}
	var exitAt atomic.Int64
	v, took, g, err := r.program(m, tr, rpcRoot(sh, rm.clientT, rm.factoryT, rm.ledgerT), &exitAt, length+rpcDrainLimit)
	m.Shutdown()
	r.unitDone(tr, begin)
	r.unitPeak(0)
	st := m.Stats().Total
	r.addStats(st)
	r.measured(took, st.Delivered, g)
	r.roundTrips(&sh.rtt)

	issued, done := 0, 0
	for i, c := range sh.clients {
		issued += c.issued
		done += c.done
		r.attempted += c.issued
		r.failed += c.bad + c.issued - c.done
		if c.bad > 0 {
			r.note("%s: client %d got %d replies with the wrong token", tr, i, c.bad)
		}
	}
	if issued == 0 {
		r.attempted++ // a round that never ran is one failed unit
	}
	if issued != done {
		r.note("%s: %d of %d requests got no reply", tr, issued-done, issued)
	}
	if got := int(sh.tallies.Load()); got != done {
		r.failed += max(1, abs(got-done))
		r.note("%s: ledger counted %d tallies for %d requests", tr, got, done)
	}
	if err != nil || m.RetryExhausted() || v != true {
		r.failed++
		r.note("%s: program result %v, err %v, retry exhausted %v", tr, v, err, m.RetryExhausted())
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
