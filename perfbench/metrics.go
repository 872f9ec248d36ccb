package main

// metric is one named figure with its unit and the number of samples
// behind it (units, requests or observations).
type metric struct {
	Name  string
	Value float64
	Unit  string
	N     uint64
}

// endToEnd returns the metrics a user of the runtime sees.  Every
// workload reports all of them, each summarizing the units' own
// figures.  Rates and times take the faster quartile of units: a
// virtual machine's CPUs are now and then taken by its host for seconds
// at a time, which only ever slows a unit, so the faster units estimate
// the program's own speed far more steadily than the median does.  An
// rpc round has a million round trips; a fib or pagerank unit is a
// single one, the whole program run, so there rtt_p99_us equals
// rtt_p50_us: with a few dozen runs no percentile past the median has
// ten samples beyond it.
func (r *run) endToEnd() []metric {
	units := uint64(r.units)
	return []metric{
		{"msgs_per_s", r.rate.Quantile(0.75), "1/s", units},
		{"rtt_p50_us", r.rttP50.Quantile(0.25), "us", r.rtt.N},
		{"rtt_p99_us", r.rttP99.Quantile(0.25), "us", r.rtt.N},
		{"alloc_bytes_per_msg", r.allocPerMsg.Quantile(0.5), "B", units},
		{"peak_rss_mb", r.rssMB.Quantile(0.5), "MB", r.rssMB.N},
		{"setup_s", r.setupS.Quantile(0.5), "s", r.setupS.N},
	}
}

// reported returns end-to-end figures that are printed but not part of
// the result object: bulk throughput exists only on pagerank-mem, and
// fail_ratio is 0 on a correct program, which the result object's
// attempted and failed counts already carry.
func (r *run) reported() []metric {
	out := []metric{{"fail_ratio", ratio(float64(r.failed), float64(r.attempted)), "ratio", uint64(r.attempted)}}
	if r.stats.Net.BulkWords > 0 {
		out = append(out, metric{"bulk_mb_per_s", r.bulkMBPerS(), "MB/s", uint64(r.units)})
	}
	return out
}

func (r *run) bulkMBPerS() float64 {
	return ratio(8*float64(r.stats.Net.BulkWords)/1e6, r.busy.Seconds())
}

// perLayer returns the traced run's per-layer metrics.  A metric whose
// layer the workload does not touch reads 0.  Counts are per unit.
func (r *run) perLayer() []metric {
	s, n, w, tm := &r.stats, &r.stats.Net, &r.wire, &r.timings
	del := float64(s.Delivered)
	units := float64(r.units)
	u := uint64(r.units)
	f := func(v uint64) float64 { return float64(v) }
	return []metric{
		{"setup.new_machine_ms", r.newMachineMs.Quantile(0.5), "ms", r.newMachineMs.N},
		{"setup.start_ms", r.startMs.Quantile(0.5), "ms", r.startMs.N},
		{"sock.handshake_ms", r.handshakeMs.Quantile(0.5), "ms", r.handshakeMs.N},

		{"core.delivered", ratio(del, units), "count", u},
		{"core.pkts_per_msg", ratio(f(n.Sent), del), "ratio", u},
		{"core.idle_parks_per_msg", ratio(f(s.IdleParks), del), "ratio", u},
		{"core.sendfast_hit_ratio", ratio(f(s.SendsFast), f(s.SendsFast+s.SendsFastMiss)), "ratio", u},

		{"dist.exit_to_wait_ms", r.exitToWaitMs.Quantile(0.5), "ms", r.exitToWaitMs.N},

		{"names.routed_ratio", ratio(f(s.SendsRouted), f(s.SendsRemote+s.SendsRouted)), "ratio", u},
		{"names.cache_updates_per_msg", ratio(f(s.CacheUpdates), del), "ratio", u},
		{"names.held_per_move", ratio(f(s.HeldMessages), f(s.Migrations)), "ratio", u},
		{"names.fir_per_move", ratio(f(s.FIRSent), f(s.Migrations)), "ratio", u},
		{"names.fir_repair_p50_us", s.FIRRepair.Quantile(0.5), "us", s.FIRRepair.N},
		{"names.fir_repair_p99_us", s.FIRRepair.Quantile(0.99), "us", s.FIRRepair.N},

		{"amnet.batched_ratio", ratio(f(n.BatchedPkts), f(n.Sent)), "ratio", u},
		{"amnet.flush_occ_p50", n.FlushOcc.Quantile(0.5), "count", n.FlushOcc.N},
		{"amnet.flush_occ_max", n.FlushOcc.Max, "count", n.FlushOcc.N},
		{"amnet.stalls_per_kpkt", 1000 * ratio(f(n.SendStalls+n.TryStalls), f(n.Sent)), "ratio", u},
		{"amnet.polls_per_pkt", ratio(f(n.Polls), f(n.Received)), "ratio", u},

		{"bulk.grant_wait_p50_us", n.GrantWait.Quantile(0.5), "us", n.GrantWait.N},
		{"bulk.grant_wait_p99_us", n.GrantWait.Quantile(0.99), "us", n.GrantWait.N},
		{"bulk.queued_per_xfer", ratio(f(n.BulkQueued), f(n.BulkSends)), "ratio", u},
		{"bulk.words", ratio(f(n.BulkWords), units), "count", u},
		{"bulk.mb_per_s", r.bulkMBPerS(), "MB/s", u},

		{"reliable.retries_per_msg", ratio(f(s.Retries), del), "ratio", u},
		{"reliable.useful_tx_ratio", ratio(f(w.WireSent)-f(s.Retries), f(w.WireSent)), "ratio", u},
		{"reliable.dups_filtered", ratio(f(s.DupsFiltered), units), "count", u},

		{"sock.frames_per_msg", ratio(f(w.WireSent), del), "ratio", u},
		{"sock.bytes_per_frame", ratio(f(w.WireBytesOut), f(w.WireSent)), "B", u},
		{"sock.ctl_msgs", ratio(f(w.CtlSent), units), "count", u},
		{"sock.trysend_refused_ratio", ratio(f(tm.TrySendRefused), f(tm.TrySendCalls)), "ratio", tm.TrySendCalls},
		{"sock.trysend_ns_p50", tm.TrySendNs.Quantile(0.5), "ns", tm.TrySendNs.N},
		{"sock.trysend_ns_p99", tm.TrySendNs.Quantile(0.99), "ns", tm.TrySendNs.N},

		{"payload.boxed_ratio", ratio(f(tm.EncodeUs.N), f(w.WireSent)), "ratio", tm.EncodeUs.N},
		{"payload.encode_us_p50", tm.EncodeUs.Quantile(0.5), "us", tm.EncodeUs.N},
		{"payload.encode_us_p99", tm.EncodeUs.Quantile(0.99), "us", tm.EncodeUs.N},
		{"payload.decode_us_p50", tm.DecodeUs.Quantile(0.5), "us", tm.DecodeUs.N},
		{"payload.decode_us_p99", tm.DecodeUs.Quantile(0.99), "us", tm.DecodeUs.N},
		{"payload.bytes_p50", tm.PayloadBytes.Quantile(0.5), "B", tm.PayloadBytes.N},

		{"go.gc_cycles", ratio(f(r.goDelta.GCCycles), units), "count", u},
		{"go.gc_pause_total_ms", ratio(r.goDelta.GCPauseNs/1e6, units), "ms", u},

		{"trace.msgs_per_s", r.rate.Quantile(0.75), "1/s", u},
	}
}
