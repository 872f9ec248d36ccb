package main

import (
	"math"
	"os"
	"time"

	"hal"
	"hal/internal/apps/pagerank"
)

// Shape of the pagerank-mem workload.  At the full size every
// contribution vector is far larger than one 512-word segment, so all of
// them ride the three-phase bulk protocol.
const (
	prNodes  = 2
	prAvgDeg = 8
	// prTolerance bounds the largest per-vertex difference from
	// pagerank.Seq; only the order of floating-point sums differs.
	prTolerance = 1e-12
)

// runPageRank is the pagerank-mem workload: a closed loop of units, each
// one pagerank.Run on a fresh two-node machine, checked against the
// sequential reference computed once per run.
func runPageRank(r *run) {
	cfg := pagerank.Config{N: r.size.prN, AvgDeg: prAvgDeg, Iters: r.size.prIters, Damping: 0.85, Seed: r.seed}
	graphSeed := r.seed
	if graphSeed == 0 {
		graphSeed = 99 // pagerank.Config's default for a zero seed
	}
	ref := pagerank.Seq(pagerank.RandGraph(cfg.N, cfg.AvgDeg, graphSeed), cfg.Damping, cfg.Iters)
	r.loop(func(k int) {
		r.attempted++
		tr := unitTrace(k)
		mcfg := hal.DefaultConfig(prNodes)
		mcfg.Seed = r.seed
		mcfg.Out = os.Stderr // standard output carries the result
		var built time.Time
		var m *hal.Machine
		mcfg.OnMachine = func(mm *hal.Machine) { built, m = time.Now(), mm }
		g0 := readGo()
		begin := time.Now()
		res, err := pagerank.Run(mcfg, cfg, false)
		end := time.Now()
		g1 := readGo()
		// pagerank.Run builds its machine and graph itself; set-up is the
		// part of the call outside the Wall it reports.
		r.setUpTotal(tr, begin, built, end.Sub(begin)-res.Wall)
		r.spans.add(tr, "program", tr+"/unit", end.Add(-res.Wall), end)
		r.unitDone(tr, begin)
		r.unitPeak(0)
		r.addStats(res.Stats.Total)
		r.measured(res.Wall, res.Stats.Total.Delivered, g1.sub(g0))
		r.oneRoundTrip(res.Wall)
		switch {
		case err != nil:
			r.fail("%s: %v", tr, err)
		case m.RetryExhausted():
			r.fail("%s: retry budget exhausted", tr)
		case len(res.Ranks) != len(ref):
			r.fail("%s: %d ranks, want %d", tr, len(res.Ranks), len(ref))
		default:
			worst := 0.0
			for i, v := range res.Ranks {
				worst = math.Max(worst, math.Abs(v-ref[i]))
			}
			if !(worst <= prTolerance) {
				r.fail("%s: rank differs from pagerank.Seq by %g", tr, worst)
			}
		}
	})
}
