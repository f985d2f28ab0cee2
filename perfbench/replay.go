package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
	"txconcur/internal/chainsim"
	"txconcur/internal/exec"
)

// replayRound is one execution of the wide chain over a fresh base store:
// a paced block import (due, ack and commit per block) or a batch replay.
type replayRound struct {
	wall                time.Duration
	win                 [2]int64 // recorder clock, traced runs only
	due, handed, commit []time.Time
	lag                 []time.Duration
	cr                  *exec.ChainResult
	css                 *exec.ChainShardStats
	proc                procStats
	store               *basestore.Store
	dir                 string
}

// replayRun is everything one replay-bounded run measured.
type replayRun struct {
	setup    time.Duration
	pre      *account.StateDB
	chain    []*account.Block
	imports  []*replayRound
	batches  []*replayRound
	recovery time.Duration
	// ram is the same batch replay with no backend (traced runs only).
	ram *replayRound
}

func (r *replayRun) rounds() []*replayRound {
	return append(append([]*replayRound(nil), r.imports...), r.batches...)
}

// openStore makes a fresh base store under tmp.
func openStore(tmp string, fsys basestore.FS, rec *recorder) (*basestore.Store, string, error) {
	dir, err := os.MkdirTemp(tmp, "base-")
	if err != nil {
		return nil, "", err
	}
	start, g := rec.now(), goid()
	st, err := basestore.OpenStore(fsys, dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, "", err
	}
	rec.add("basestore.open", start, g, -1, 0)
	return st, dir, nil
}

func (r *replayRound) close() {
	if r.store != nil {
		r.store.Close()
		os.RemoveAll(r.dir)
		r.store = nil
	}
}

// engine returns the executor for a round over store (nil: all state in
// RAM).
func (spec replaySpec) engine(store *basestore.Store, rec *recorder) exec.Sharded {
	eng := exec.Sharded{Workers: workers, Shards: shards, Depth: depth}
	if store != nil {
		var be exec.StateBackend = store
		if rec != nil {
			be = &tracedBackend{inner: store, r: rec}
		}
		eng.Backend = be
		eng.CacheBudget = spec.budget / shards
	}
	return eng
}

// runReplayWorkload generates the chain, runs the paced import rounds over
// a prefix of it and the batch rounds over all of it, each over a fresh
// base store, and finally times a cold reopen of the last batch round's
// store.
func runReplayWorkload(spec replaySpec, seed int64, seconds float64, env *runEnv) (*replayRun, error) {
	rec := env.rec
	fsys := basestore.FS(basestore.OS{})
	if rec != nil {
		fsys = tracedFS{FS: fsys, r: rec}
	}
	type input struct {
		pre    *account.StateDB
		blocks []*account.Block
	}
	in, gen, err := timeSetup(func() (input, error) {
		pre, blocks, err := chainsim.GenerateAccountChain(wideProfile(spec.users, spec.blockTxs), spec.blocks, seed)
		return input{pre, blocks}, err
	})
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	run := &replayRun{pre: in.pre, chain: in.blocks}

	interval := float64(spec.blockTxs) / spec.rate // seconds per block
	nFixed := min(len(run.chain), max(2, int(fixedShare*seconds/importRounds/interval)))
	prefix := run.chain[:nFixed]
	want, err := replaySequential(run.pre, prefix)
	if err != nil {
		return nil, err
	}
	full, err := replaySequential(run.pre, run.chain)
	if err != nil {
		return nil, err
	}
	// Warm-up: a paced import of the first half of the prefix, gated but
	// neither measured nor traced, so the first measured round does not
	// pay for the process's first heap growth and page faults.
	{
		half := prefix[:max(1, len(prefix)/2)]
		hw, err := replaySequential(run.pre, half)
		if err != nil {
			return nil, err
		}
		store, dir, err := openStore(env.tmp, basestore.OS{}, nil)
		if err != nil {
			return nil, err
		}
		_, err = spec.importRound(run.pre, half, 1/interval, store, hw, nil)
		store.Close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("warm-up import: %w", err)
		}
	}
	// Paced imports and batch replays interleave. Every batch round ends
	// with timed cold reopens of its store.
	var setups, reopens []float64
	newStore := func() (*basestore.Store, string, error) {
		t := time.Now()
		store, dir, err := openStore(env.tmp, fsys, rec)
		setups = append(setups, float64(time.Since(t)))
		return store, dir, err
	}
	for _, batch := range interleave(importRounds, batchRounds) {
		if batch {
			store, dir, err := newStore()
			if err != nil {
				return nil, err
			}
			b, err := spec.batchRound(run.pre, run.chain, store, full, rec)
			if err != nil {
				store.Close()
				os.RemoveAll(dir)
				return nil, fmt.Errorf("batch replay %d: %w", len(run.batches), err)
			}
			b.store, b.dir = store, dir
			run.batches = append(run.batches, b)
			ds, err := reopenStore(b, fsys, rec)
			b.close()
			if err != nil {
				return nil, err
			}
			reopens = append(reopens, ds...)
			fmt.Fprintf(os.Stderr, "batch round %d: %d txs, %.0f tx/s, %d evicted, reopen %.3fs\n",
				len(run.batches)-1, b.cr.Stats.Txs, float64(b.cr.Stats.Txs)/b.wall.Seconds(), b.css.Evicted, median(ds)/1e9)
			continue
		}
		store, dir, err := newStore()
		if err != nil {
			return nil, err
		}
		r, err := spec.importRound(run.pre, prefix, 1/interval, store, want, rec)
		store.Close()
		os.RemoveAll(dir)
		if err != nil {
			return nil, fmt.Errorf("paced import %d: %w", len(run.imports), err)
		}
		run.imports = append(run.imports, r)
		_, commit := r.latencies(prefix)
		fmt.Fprintf(os.Stderr, "import round %d: %d blocks, commit p50 %.2fms p99 %.2fms\n",
			len(run.imports)-1, len(prefix), quantile(commit, 0.5), quantile(commit, 0.99))
	}
	// Set-up is generating the chain plus making a fresh base store.
	run.setup = gen + time.Duration(median(setups))
	run.recovery = time.Duration(quietTime(reopens))

	if rec != nil {
		if run.ram, err = spec.batchRound(run.pre, run.chain, nil, full, rec); err != nil {
			return nil, fmt.Errorf("all-RAM replay: %w", err)
		}
	}
	return run, nil
}

// importRound feeds blocks to the streaming executor over store at a
// fixed rate (blocks per second), open-loop: block k is due at start +
// k/rate. A block import is acknowledged when the block commits, as a
// node's block-import call returns after execution, so its ack and commit
// times are both the commit callback; handed records when the executor
// took the block.
func (spec replaySpec) importRound(pre *account.StateDB, blocks []*account.Block, rate float64,
	store *basestore.Store, want *oracle, rec *recorder) (*replayRound, error) {
	r := &replayRound{handed: make([]time.Time, len(blocks))}
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	blkCh := make(chan *account.Block)
	genErr := make(chan error, 1)
	sampler := startSampler()
	r.win[0] = rec.now()
	go func() {
		defer close(blkCh)
		due, lag, err := openLoop(ctx, len(blocks), rate, func(i int) error {
			select {
			case blkCh <- blocks[i]:
				r.handed[i] = time.Now()
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		r.due, r.lag = due, lag
		genErr <- err
	}()
	cr, css, err := spec.engine(store, rec).ExecuteChainStream(pre.Copy(), blkCh, func(int, *account.Block, []*account.Receipt) {
		r.commit = append(r.commit, time.Now())
	})
	if err != nil {
		cancel()
	}
	gerr := <-genErr
	r.proc = sampler.end()
	r.win[1] = rec.now()
	if err == nil {
		err = gerr
	}
	if err != nil {
		return nil, err
	}
	r.cr, r.css = cr, css
	if rec != nil {
		for i := range blocks {
			rec.addSpan(span{name: "exec.block", start: rec.at(r.handed[i]), end: rec.at(r.commit[i]), id: int64(blocks[i].Height)})
		}
	}
	if err := checkChain("paced import", cr, want); err != nil {
		return nil, err
	}
	// Gated: later rounds should not carry these receipts in their heap.
	cr.Receipts = nil
	return r, nil
}

// batchRound runs Sharded.ExecuteChain over the whole chain, with store
// as the state backend (nil: all state in RAM), and gates the result.
func (spec replaySpec) batchRound(pre *account.StateDB, blocks []*account.Block, store *basestore.Store,
	want *oracle, rec *recorder) (*replayRound, error) {
	r := &replayRound{}
	st := pre.Copy()
	sampler := startSampler()
	r.win[0] = rec.now()
	t := time.Now()
	cr, css, err := spec.engine(store, rec).ExecuteChain(st, blocks)
	r.wall = time.Since(t)
	r.win[1] = rec.now()
	r.proc = sampler.end()
	if err != nil {
		return nil, err
	}
	r.cr, r.css = cr, css
	if err := checkChain("batch replay", cr, want); err != nil {
		return nil, err
	}
	if store != nil && css.Evicted == 0 {
		return nil, fmt.Errorf("bounded replay evicted nothing: the cache budget never bound")
	}
	cr.Receipts = nil
	return r, nil
}

// storeDigest hashes every key and value the store holds, in key order.
func storeDigest(s *basestore.Store) ([32]byte, int, error) {
	h := sha256.New()
	n := 0
	err := s.Range(func(key string, val []byte) bool {
		h.Write([]byte(key))
		h.Write(val)
		n++
		return true
	})
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, n, err
}

// reopenStore closes a round's base layer and times reopenReps cold
// restarts of it: open the directory (indexing every table) and read every
// entry back. What it reads must equal what the live store held. It
// returns each restart's time in nanoseconds and removes the directory.
func reopenStore(r *replayRound, fsys basestore.FS, rec *recorder) ([]float64, error) {
	live, n, err := storeDigest(r.store)
	if err != nil {
		return nil, err
	}
	if err := r.store.Close(); err != nil {
		return nil, err
	}
	r.store = nil
	defer os.RemoveAll(r.dir)
	var ds []float64
	for i := 0; i < reopenReps; i++ {
		start := time.Now()
		t, g := rec.now(), goid()
		s, err := basestore.OpenStore(fsys, r.dir)
		if err != nil {
			return nil, err
		}
		rec.add("basestore.open", t, g, -1, 0)
		got, m, err := storeDigest(s)
		d := time.Since(start)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		if got != live || m != n {
			return nil, fmt.Errorf("reopened base store holds %d entries that differ from the live store's %d", m, n)
		}
		ds = append(ds, float64(d))
	}
	return ds, nil
}

// latencies returns, per transaction in due order, its block's due time
// and due → commit in milliseconds.
func (r *replayRound) latencies(blocks []*account.Block) (due []time.Time, commit []float64) {
	for i := range r.due {
		c := ms(r.commit[i].Sub(r.due[i]))
		for range blocks[i].Txs {
			due = append(due, r.due[i])
			commit = append(commit, c)
		}
	}
	return due, commit
}

func (r *replayRun) outcome() *outcome {
	o := &outcome{}
	var heaps, rates []float64
	for _, rd := range r.rounds() {
		o.attempted += rd.cr.Stats.Txs
	}
	for _, b := range r.batches {
		rates = append(rates, float64(b.cr.Stats.Txs)/b.wall.Seconds())
		heaps = append(heaps, float64(b.proc.heapPeak)/mib)
	}
	tps := quietRate(rates)
	// Percentiles are per import round, summarised over rounds by
	// quietTime: the eviction and compaction stalls fall on fixed blocks
	// of the prefix, so every round holds the same ones.
	commitQ := make([][]float64, 2)
	for _, im := range r.imports {
		_, commit := im.latencies(r.chain)
		commitQ[0] = append(commitQ[0], quantile(commit, 0.5))
		commitQ[1] = append(commitQ[1], quantile(commit, 0.99))
	}
	o.e2e = map[string]float64{
		"setup_s": r.setup.Seconds(),
		// A block import is acknowledged when it commits.
		"ack_p50_ms":    quietTime(commitQ[0]),
		"ack_p99_ms":    quietTime(commitQ[1]),
		"commit_p50_ms": quietTime(commitQ[0]),
		"commit_p99_ms": quietTime(commitQ[1]),
		// A batch replay is the flood pass: every block is available
		// at once.
		"capacity_tps":  tps,
		"replay_tps":    tps,
		"speedup_cost":  r.batches[0].cr.Stats.GasSpeedup,
		"recovery_s":    r.recovery.Seconds(),
		"heap_peak_mib": median(heaps),
		"ok_frac":       1,
	}
	return o
}

// layers computes the per-layer figures of a traced replay run.
func (r *replayRun) layers(env *runEnv) map[string]float64 {
	rec := env.rec
	rec.link()
	m := zeroLayers()
	var proc procStats
	var lag []time.Duration
	for _, im := range r.imports {
		proc.merge(im.proc)
		lag = append(lag, im.lag...)
	}
	hits := rec.named("basestore.get_hit")
	misses := rec.named("basestore.get_miss")
	apply := rec.named("basestore.apply")
	ranges := rec.named("basestore.range")
	var backend []span
	for _, ss := range [][]span{hits, misses, apply, ranges} {
		backend = append(backend, ss...)
	}

	var selfs []float64
	var css exec.ChainShardStats
	var conflicted int
	var gasSeq, gasPar uint64
	for _, b := range r.batches {
		proc.merge(b.proc)
		selfs = append(selfs, (b.wall - covered(b.win[0], b.win[1], within(backend, b.win))).Seconds())
		css.Cross += b.css.Cross
		css.CrossAborts += b.css.CrossAborts
		css.MergeWaves += b.css.MergeWaves
		css.Repairs += b.css.Repairs
		css.FallbackBlocks += b.css.FallbackBlocks
		css.Evicted += b.css.Evicted
		css.ColdReads += b.css.ColdReads
		conflicted += b.cr.Stats.Conflicted
		gasSeq += b.cr.Stats.GasSeq
		gasPar += b.cr.Stats.GasPar
	}
	n := float64(len(r.batches))

	blocks := rec.named("exec.block")
	m["exec.block_p50_ms"] = median(durs(blocks, time.Millisecond))
	m["exec.block_p99_ms"] = quantile(durs(blocks, time.Millisecond), 0.99)
	m["exec.conflicted"] = float64(conflicted) / n
	m["exec.cross_aborts"] = float64(css.CrossAborts) / n
	m["exec.abort_ratio"] = ratio(float64(css.CrossAborts), float64(css.Cross))
	m["exec.merge_waves"] = float64(css.MergeWaves) / n
	m["exec.repairs"] = float64(css.Repairs) / n
	m["exec.fallback_blocks"] = float64(css.FallbackBlocks) / n
	m["exec.speedup_cost"] = ratio(float64(gasSeq), float64(gasPar))
	m["exec.self_s"] = median(selfs)
	m["exec.evicted"] = float64(css.Evicted) / n
	m["exec.cold_reads"] = float64(css.ColdReads) / n
	m["exec.ram_replay_tps"] = float64(r.ram.cr.Stats.Txs) / r.ram.wall.Seconds()

	// Per-pass figures: every paced import and batch replay executes the
	// chain, or a prefix of it, over a fresh store.
	passes := n + float64(len(r.imports))
	gets := float64(len(hits) + len(misses))
	m["basestore.get_calls"] = gets / passes
	m["basestore.get_hits"] = float64(len(hits)) / passes
	m["basestore.hit_ratio"] = ratio(float64(len(hits)), gets)
	m["basestore.get_busy_s"] = (busy(hits) + busy(misses)) / passes
	m["basestore.miss_busy_s"] = busy(misses) / passes
	m["basestore.get_hit_p99_us"] = quantile(durs(hits, time.Microsecond), 0.99)
	m["basestore.apply_calls"] = float64(len(apply)) / passes
	m["basestore.apply_entries"] = float64(sizes(apply)) / passes
	m["basestore.apply_busy_s"] = busy(apply) / passes
	m["basestore.apply_p99_ms"] = quantile(durs(apply, time.Millisecond), 0.99)
	m["basestore.range_s"] = busy(ranges) / passes
	m["basestore.bytes_per_evicted"] = ratio(float64(sizes(only(rec.children("basestore.apply"), "fs.write"))), float64(sizes(apply)))
	m["basestore.self_s"] = selfTime(backend, rec.children("basestore.apply", "basestore.range")) / passes

	fsLayer(m, rec)
	genLayer(m, lag, proc)
	return m
}
