package main

import (
	"fmt"
	"math"
	"time"

	"txconcur/internal/exec"
)

// runEnv is what one workload run shares across its rounds.
type runEnv struct {
	// tmp is where WAL and table directories are made.
	tmp string
	// rec is the span recorder of a traced run, nil otherwise.
	rec        *recorder
	transports []*tracedTransport
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload run's figures.
type outcome struct {
	attempted, failed int
	e2e               map[string]float64
}

// setupReps is how many times a run sets up, for the median set-up time.
const setupReps = 5

// timeSetup runs fn setupReps times and returns the last result and the
// median duration.
func timeSetup[T any](fn func() (T, error)) (T, time.Duration, error) {
	var v T
	var ds []float64
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		var err error
		if v, err = fn(); err != nil {
			return v, 0, err
		}
		ds = append(ds, float64(time.Since(start)))
	}
	return v, time.Duration(median(ds)), nil
}

// interleave orders a rounds of one kind and b of another (true), the b
// rounds spread evenly among the a rounds and the first round of the first
// kind, so both kinds sample the host over the whole run.
func interleave(a, b int) []bool {
	order := make([]bool, 0, a+b)
	var na, nb int
	for i := 0; i < a+b; i++ {
		isB := nb < b && (na == a || nb*(a+b) < i*b)
		if isB {
			nb++
		} else {
			na++
		}
		order = append(order, isB)
	}
	return order
}

// ingestRun is everything one ingest workload run measured.
type ingestRun struct {
	setup time.Duration
	// fixed are the fixed-rate rounds, each a fresh service run over the
	// same stream prefix; their percentiles are summarised by quietTime.
	fixed  []*ingestRound
	floods []*ingestRound
	// replays are batch re-executions of each flood round's chain from
	// the pre-state, all state in RAM; replay is the first one's result.
	replays   []time.Duration
	replayTxs []int
	replay    *exec.ChainResult
}

func (r *ingestRun) rounds() []*ingestRound {
	return append(append([]*ingestRound(nil), r.fixed...), r.floods...)
}

// runIngestWorkload generates the stream, runs the fixed-rate rounds and
// the flood rounds in turn, and times a batch re-execution of each flood
// round's chain.
func runIngestWorkload(spec ingestSpec, seed int64, seconds float64, env *runEnv) (*ingestRun, error) {
	nFixed := max(1, int(spec.rate*fixedShare*seconds/fixedRounds))
	nFlood := spec.floodTxs
	s, gen, err := timeSetup(func() (*stream, error) { return spec.gen(seed, max(nFixed, nFlood), spec.blockTxs) })
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	// Warm-up: a short fixed-rate round and a short flood, gated but
	// neither measured nor traced, so the first measured rounds do not pay
	// for the process's first heap growth and page faults.
	warm := &runEnv{tmp: env.tmp}
	for _, w := range []struct {
		n    int
		rate float64
	}{{max(1, nFixed/2), spec.rate}, {max(1, nFlood/4), 0}} {
		f, err := runIngest(spec, s, w.n, w.rate, warm)
		if err != nil {
			return nil, fmt.Errorf("warm-up round: %w", err)
		}
		f.release()
	}
	run := &ingestRun{}
	// Fixed-rate and flood rounds interleave. After each flood round, one
	// batch re-execution of its chain: the figure does not follow one
	// round's block composition, and no chain outlives its round.
	eng := exec.Sharded{Workers: workers, Shards: shards, Depth: depth, OpLevel: spec.opLevel, Cost: s.cost}
	for _, flood := range interleave(fixedRounds, floodRounds) {
		if !flood {
			f, err := runIngest(spec, s, nFixed, spec.rate, env)
			if err != nil {
				return nil, fmt.Errorf("fixed-rate round %d: %w", len(run.fixed), err)
			}
			run.fixed = append(run.fixed, f)
			f.release()
			f.log("fixed", len(run.fixed)-1)
			continue
		}
		f, err := runIngest(spec, s, nFlood, 0, env)
		if err != nil {
			return nil, fmt.Errorf("flood round %d: %w", len(run.floods), err)
		}
		run.floods = append(run.floods, f)
		st := s.pre.Copy()
		t := time.Now()
		cr, _, err := eng.ExecuteChain(st, f.blocks)
		if err != nil {
			return nil, fmt.Errorf("batch replay: %w", err)
		}
		run.replays = append(run.replays, time.Since(t))
		run.replayTxs = append(run.replayTxs, cr.Stats.Txs)
		if err := checkChain("batch replay", cr, f.oracle); err != nil {
			return nil, err
		}
		if run.replay == nil {
			cr.Receipts = nil
			run.replay = cr
		}
		f.release()
		f.log("flood", len(run.floods)-1)
	}
	var setups []float64
	for _, r := range run.rounds() {
		setups = append(setups, float64(r.setup))
	}
	run.setup = gen + time.Duration(median(setups))
	return run, nil
}

// toSeconds converts durations to seconds.
func toSeconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

const mib = 1 << 20

func (r *ingestRun) outcome(spec ingestSpec) *outcome {
	o := &outcome{e2e: map[string]float64{}}
	var heaps, speedups []float64
	for _, rd := range r.rounds() {
		o.attempted += rd.n
		o.failed += rd.failed
	}
	// Latency percentiles are each fixed-rate round's own, summarised
	// over rounds by quietTime. A round offers about two seconds of load, so
	// a stall that recurs once a round shows in every round.
	ackQ, commitQ := make([][]float64, 2), make([][]float64, 2)
	for _, f := range r.fixed {
		for j := range ackQ {
			ackQ[j] = append(ackQ[j], f.ackQ[j])
			commitQ[j] = append(commitQ[j], f.commitQ[j])
		}
	}
	var caps, recs []float64
	for _, f := range r.floods {
		caps = append(caps, f.tps)
		heaps = append(heaps, float64(f.proc.heapPeak)/mib)
		speedups = append(speedups, f.cr.Stats.GasSpeedup)
	}
	replayWalls := toSeconds(r.replays)
	if spec.durable {
		for _, rd := range r.rounds() {
			recs = append(recs, rd.recovery.Seconds())
		}
	} else {
		// An all-RAM node has no durable state: it recovers by
		// re-executing its chain from the pre-state.
		recs = replayWalls
	}
	var replayRates []float64
	for i, w := range replayWalls {
		replayRates = append(replayRates, float64(r.replayTxs[i])/w)
	}
	o.e2e = map[string]float64{
		"setup_s":       r.setup.Seconds(),
		"ack_p50_ms":    quietTime(ackQ[0]),
		"ack_p99_ms":    quietTime(ackQ[1]),
		"commit_p50_ms": quietTime(commitQ[0]),
		"commit_p99_ms": quietTime(commitQ[1]),
		"capacity_tps":  quietRate(caps),
		"replay_tps":    quietRate(replayRates),
		"speedup_cost":  median(speedups),
		"recovery_s":    quietTime(recs),
		"heap_peak_mib": median(heaps),
		"ok_frac":       float64(o.attempted-o.failed) / float64(o.attempted),
	}
	return o
}

// ingestLayers computes the per-layer figures of a traced ingest run.
func (r *ingestRun) layers(spec ingestSpec, env *runEnv) map[string]float64 {
	rec := env.rec
	rec.link()
	m := zeroLayers()
	rounds := r.rounds()
	var txs, blocks, deferred, ckpts, skipped, replayed, faults int
	var proc procStats
	var conflicted, cross, aborts, waves, repairs, fallback int
	var gasSeq, gasPar uint64
	for _, rd := range rounds {
		txs += rd.n - rd.failed
		blocks += len(rd.committed)
		deferred += rd.deferred
		ckpts += rd.ckptWritten
		skipped += rd.css.CheckpointsSkipped
		replayed += rd.replayed
		faults += rd.faults
		proc.merge(rd.proc)
		conflicted += rd.cr.Stats.Conflicted
		cross += rd.css.Cross
		aborts += rd.css.CrossAborts
		waves += rd.css.MergeWaves
		repairs += rd.css.Repairs
		fallback += rd.css.FallbackBlocks
		gasSeq += rd.cr.Stats.GasSeq
		gasPar += rd.cr.Stats.GasPar
	}

	// Latency figures come from the fixed-rate pass, which the latency
	// metrics measure; busy times and counts cover every round.
	fixed := func(name string) []span {
		var out []span
		for _, f := range r.fixed {
			out = append(out, within(rec.named(name), f.win)...)
		}
		return out
	}
	var depthMax int64
	var lag []time.Duration
	for _, f := range r.fixed {
		depthMax = max(depthMax, f.depth)
		lag = append(lag, f.lag...)
	}
	if !spec.durable {
		rpc := fixed("client.rpc")
		var calls int64
		for _, t := range env.transports {
			calls += t.calls.Load()
		}
		m["client.rpc_p50_ms"] = median(durs(rpc, time.Millisecond))
		m["client.rpc_p99_ms"] = quantile(durs(rpc, time.Millisecond), 0.99)
		m["client.http_requests_per_tx"] = ratio(float64(calls), float64(txs))
		m["client.self_s"] = selfTime(rec.named("client.rpc"), rec.named("mempool.admit"))
	}

	admit := rec.named("mempool.admit")
	pack := rec.named("mempool.pack")
	validate := rec.named("mempool.validate")
	fill := fixed("mempool.fill")
	m["mempool.admit_p99_ms"] = quantile(durs(fixed("mempool.admit"), time.Millisecond), 0.99)
	m["mempool.depth_max"] = float64(depthMax)
	m["mempool.pack_calls"] = float64(len(pack))
	m["mempool.pack_busy_s"] = busy(pack)
	m["mempool.pack_p99_ms"] = quantile(durs(pack, time.Millisecond), 0.99)
	m["mempool.validate_busy_s"] = busy(validate)
	m["mempool.deferred"] = float64(deferred)
	m["mempool.txs_per_block"] = ratio(float64(sizes(fill)), float64(len(fill)))
	m["mempool.block_fill_p50_ms"] = median(durs(fill, time.Millisecond))
	m["mempool.self_s"] = busy(admit) + busy(pack) + busy(validate)

	if spec.durable {
		appends := rec.named("wal.append")
		fixedAppends := fixed("wal.append")
		ckptSpans := rec.named("wal.ckpt")
		inAppend := rec.children("wal.append")
		var syncs int
		for _, f := range r.fixed {
			syncs += len(only(within(inAppend, f.win), "fs.fsync"))
		}
		m["wal.append_calls"] = float64(len(appends))
		m["wal.append_busy_s"] = busy(appends)
		m["wal.append_p50_ms"] = median(durs(fixedAppends, time.Millisecond))
		m["wal.append_p99_ms"] = quantile(durs(fixedAppends, time.Millisecond), 0.99)
		m["wal.txs_per_sync"] = ratio(float64(sizes(fixedAppends)), float64(syncs))
		m["wal.bytes_per_tx"] = ratio(float64(sizes(only(inAppend, "fs.write"))), float64(sizes(appends)))
		m["wal.ckpt_written"] = float64(ckpts)
		m["wal.ckpt_skipped"] = float64(skipped)
		m["wal.ckpt_busy_s"] = busy(ckptSpans)
		m["wal.ckpt_p99_ms"] = quantile(durs(ckptSpans, time.Millisecond), 0.99)
		n := float64(len(rounds))
		m["wal.recover_open_s"] = busy(rec.named("wal.recover_open")) / n
		m["wal.recover_s"] = busy(rec.named("wal.recover")) / n
		m["wal.materialize_s"] = busy(rec.named("wal.materialize")) / n
		m["wal.replay_s"] = busy(rec.named("wal.replay")) / n
		m["wal.replayed_blocks"] = float64(replayed) / n
		m["wal.lazy_faults"] = float64(faults) / n
		walSpans := append(append([]span{}, appends...), ckptSpans...)
		m["wal.self_s"] = selfTime(walSpans, rec.children("wal.append", "wal.ckpt"))
	}

	execBlocks := fixed("exec.block")
	m["exec.block_p50_ms"] = median(durs(execBlocks, time.Millisecond))
	m["exec.block_p99_ms"] = quantile(durs(execBlocks, time.Millisecond), 0.99)
	m["exec.conflicted"] = float64(conflicted)
	m["exec.cross_aborts"] = float64(aborts)
	m["exec.abort_ratio"] = ratio(float64(aborts), float64(cross))
	m["exec.merge_waves"] = float64(waves)
	m["exec.repairs"] = float64(repairs)
	m["exec.fallback_blocks"] = float64(fallback)
	m["exec.speedup_cost"] = ratio(float64(gasSeq), float64(gasPar))
	replayWall := median(toSeconds(r.replays))
	m["exec.self_s"] = replayWall
	m["exec.ram_replay_tps"] = float64(r.replay.Stats.Txs) / replayWall

	fsLayer(m, rec)
	genLayer(m, lag, proc)
	return m
}

// within keeps the spans that start inside the window.
func within(ss []span, win [2]int64) []span {
	var out []span
	for _, s := range ss {
		if s.start >= win[0] && s.start < win[1] {
			out = append(out, s)
		}
	}
	return out
}

// only filters spans by name.
func only(ss []span, name string) []span {
	var out []span
	for _, s := range ss {
		if s.name == name {
			out = append(out, s)
		}
	}
	return out
}

// fsLayer fills the fs.* figures: every filesystem call the traced seam
// saw, wherever it was made.
func fsLayer(m map[string]float64, rec *recorder) {
	syncs := rec.named("fs.fsync")
	dirs := rec.named("fs.dirsync")
	m["fs.fsyncs"] = float64(len(syncs))
	m["fs.dir_syncs"] = float64(len(dirs))
	m["fs.renames"] = float64(len(rec.named("fs.rename")))
	m["fs.bytes_written"] = float64(sizes(rec.named("fs.write")))
	m["fs.sync_busy_s"] = busy(syncs) + busy(dirs)
	var all []span
	for _, s := range rec.spans {
		if len(s.name) > 3 && s.name[:3] == "fs." {
			all = append(all, s)
		}
	}
	m["fs.self_s"] = busy(all)
}

// genLayer fills the generator and process health figures.
func genLayer(m map[string]float64, lag []time.Duration, proc procStats) {
	ls := make([]float64, len(lag))
	for i, l := range lag {
		ls[i] = ms(l)
	}
	m["gen.lag_p99_ms"] = quantile(ls, 0.99)
	m["gen.samples"] = float64(len(lag))
	m["proc.cpu_s"] = proc.cpu.Seconds()
	m["proc.gc_pause_s"] = proc.gcPause.Seconds()
}

// finite replaces NaN and infinities, which JSON cannot carry, by 0.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}
