package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
	"txconcur/internal/client"
	"txconcur/internal/exec"
	"txconcur/internal/mempool"
	"txconcur/internal/types"
	"txconcur/internal/wal"
)

// conns is the number of submitting goroutines (keep-alive connections on
// the RPC path).
const conns = 2

// roundTimeout bounds one service round; a run that hits it fails.
const roundTimeout = 150 * time.Second

// ingestRound is one service run over the first n submissions of a stream.
type ingestRound struct {
	n      int
	setup  time.Duration // dirs, WAL, pool, builder, server, goroutines
	due    []time.Time
	lag    []time.Duration
	ack    []time.Time
	commit []time.Time // zero for a submission that never committed
	blocks []*account.Block
	// handed and committed are per block: when the executor took the
	// block and when its commit callback fired.
	handed, committed []time.Time
	deferred          int
	cr                *exec.ChainResult
	css               *exec.ChainShardStats
	oracle            *oracle
	ckptWritten       int
	failed            int
	recovery          time.Duration
	replayed, faults  int
	depth             int64
	proc              procStats
	// win is the round's span window on the recorder clock (traced runs).
	win [2]int64
	// ackQ and commitQ are the p50 and p99 of due → ack and due → commit
	// in milliseconds over the committed submissions, and tps is committed
	// transactions per second from the first due submission to the last
	// commit; release sets them.
	ackQ, commitQ [2]float64
	tps           float64
}

// release summarises a gated round, then drops what it no longer needs
// (blocks, receipts, oracle and per-submission times), so that every
// round runs with the same live heap rather than carrying the earlier
// rounds' chains.
func (r *ingestRound) release() {
	var ack, commit []float64
	for i := 0; i < r.n; i++ {
		if r.commit[i].IsZero() {
			continue
		}
		ack = append(ack, ms(r.ack[i].Sub(r.due[i])))
		commit = append(commit, ms(r.commit[i].Sub(r.due[i])))
	}
	r.ackQ = [2]float64{quantile(ack, 0.5), quantile(ack, 0.99)}
	r.commitQ = [2]float64{quantile(commit, 0.5), quantile(commit, 0.99)}
	last := r.committed[len(r.committed)-1]
	r.tps = float64(r.n-r.failed) / last.Sub(r.due[0]).Seconds()
	r.due, r.ack, r.commit = nil, nil, nil
	r.blocks, r.oracle = nil, nil
	r.cr.Receipts = nil
}

// log prints the round's headline figures to standard error.
func (r *ingestRound) log(kind string, i int) {
	fmt.Fprintf(os.Stderr, "%s round %d: %d txs in %d blocks, ack p50 %.2fms p99 %.2fms, commit p50 %.2fms p99 %.2fms, %.0f tx/s, recovery %.3fs, conflicted %.1f%%, %d repairs, heap %.1f MiB\n",
		kind, i, r.n, len(r.committed), r.ackQ[0], r.ackQ[1], r.commitQ[0], r.commitQ[1], r.tps,
		r.recovery.Seconds(), 100*ratio(float64(r.cr.Stats.Conflicted), float64(r.cr.Stats.Txs)),
		r.css.Repairs, float64(r.proc.heapPeak)/mib)
}

// connFor deals senders to connections, so one sender's nonces stay in
// order on the wire.
func connFor(from types.Address) int {
	h := fnv.New32a()
	h.Write(from[:])
	return int(h.Sum32() % conns)
}

// runIngest performs one round: it starts the service, offers the first n
// submissions open-loop at rate (rate <= 0 floods), waits for every ack,
// closes the pool, drains the builder and the streaming executor, and then
// gates the outcome. A durable round ends with a timed cold recovery.
func runIngest(spec ingestSpec, s *stream, n int, rate float64, env *runEnv) (*ingestRound, error) {
	rec := env.rec
	ctx, cancel := context.WithTimeout(context.Background(), roundTimeout)
	defer cancel()
	t0 := time.Now()
	r := &ingestRound{n: n, ack: make([]time.Time, n), commit: make([]time.Time, n)}

	var fsys basestore.FS = basestore.OS{}
	if rec != nil {
		fsys = tracedFS{FS: fsys, r: rec}
	}
	var d *wal.Dir
	var ckpt *wal.Checkpointer
	var dir string
	if spec.durable {
		var err error
		if dir, err = os.MkdirTemp(env.tmp, "wal-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		start := rec.now()
		if d, err = wal.Open(fsys, dir, wal.SyncEachRecord); err != nil {
			return nil, err
		}
		rec.add("wal.open", start, goid(), -1, 0)
		ckpt = d.Checkpointer(spec.ckptEvery)
	}

	pool := mempool.New(spec.poolTxs)
	var poolDepth maxGauge
	var packer mempool.Packer = mempool.ConflictAware{}
	var tp *tracedPacker
	if rec != nil {
		tp = &tracedPacker{Packer: packer, r: rec, packed: map[*account.Transaction][2]int64{}}
		packer = tp
	}
	cfg := mempool.BuilderConfig{
		Packer:   packer,
		Pack:     mempool.PackConfig{MaxTxs: spec.blockTxs, HotKeyCap: spec.hotCap},
		Coinbase: types.AddressFromUint64("perfbench/miner", 1),
		Flush:    spec.flush,
	}
	if d != nil {
		var log mempool.BlockLog = d.Log()
		if rec != nil {
			log = &tracedLog{inner: log, r: rec, p: tp}
		}
		cfg.Log = log
	}
	builder := mempool.NewBuilder(pool, s.pre, cfg)

	var send func(i int) error
	var drain func() error // waits for every ack or reply
	if spec.durable {
		var acks sync.WaitGroup
		ackErr := make([]error, n)
		send = func(i int) error {
			start := rec.now()
			ch, err := pool.SubmitDurable(ctx, s.subs[i].Pending())
			if rec != nil {
				rec.add("mempool.admit", start, 0, int64(i), 0)
				poolDepth.note(int64(pool.Len()))
			}
			if err != nil {
				return fmt.Errorf("submit %d: %w", i, err)
			}
			acks.Add(1)
			go func() {
				defer acks.Done()
				e := <-ch
				r.ack[i] = time.Now()
				ackErr[i] = e
			}()
			return nil
		}
		drain = func() error {
			acks.Wait()
			for i, e := range ackErr {
				if e != nil {
					return fmt.Errorf("durable ack %d resolved %v", i, e)
				}
			}
			return nil
		}
	} else {
		var handler http.Handler = client.NewBuilderServer(pool)
		if rec != nil {
			handler = &tracedHandler{inner: handler, r: rec, depth: pool.Len, max: &poolDepth}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		srv := &http.Server{Handler: handler}
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.Serve(ln)
		}()
		defer func() {
			srv.Close()
			<-served
		}()
		url := "http://" + ln.Addr().String()
		var queues [conns]chan int
		var senders sync.WaitGroup
		refused := make([]error, n)
		for k := range queues {
			// Sized to the number of sends: the generator never waits on
			// a connection, the queue is where an open loop's backlog
			// builds.
			queues[k] = make(chan int, n)
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			var rt http.RoundTripper = tr
			if rec != nil {
				tt := &tracedTransport{inner: tr, r: rec}
				env.transports = append(env.transports, tt)
				rt = tt
			}
			sub := &client.Submitter{Collector: client.Collector{URL: url, MaxRetries: 2, HTTPClient: &http.Client{Transport: rt}}}
			q := queues[k]
			senders.Add(1)
			go func() {
				defer senders.Done()
				for i := range q {
					refused[i] = sub.Submit(context.WithValue(ctx, txIDKey{}, i), s.subs[i])
					r.ack[i] = time.Now()
				}
			}()
		}
		send = func(i int) error {
			queues[connFor(s.subs[i].From)] <- i
			return nil
		}
		drain = func() error {
			for _, q := range queues {
				close(q)
			}
			senders.Wait()
			for i, e := range refused {
				if e != nil {
					// A refused submission is never committed; it
					// counts as failed below.
					fmt.Fprintf(os.Stderr, "perfbench: submission %d refused: %v\n", i, e)
				}
			}
			return nil
		}
	}

	// The builder emits on an unbuffered channel so the bridge sees each
	// block the moment it is emitted; the queue behind it holds up to 16
	// blocks, the backlog at which executor backpressure reaches the
	// builder.
	out := make(chan mempool.BuiltBlock)
	queue := make(chan *account.Block, 16)
	blkCh := make(chan *account.Block)
	var leftovers []*mempool.Pending
	var runErr error
	var wg sync.WaitGroup
	var mu sync.Mutex // guards r.blocks, r.handed, r.committed, r.deferred
	wg.Add(3)
	go func() {
		defer wg.Done()
		leftovers, runErr = builder.Run(ctx, out)
	}()
	go func() {
		defer wg.Done()
		defer close(queue)
		for bb := range out {
			if rec != nil {
				traceBlock(rec, tp, bb, spec.durable)
			}
			mu.Lock()
			r.blocks = append(r.blocks, bb.Block)
			r.deferred += bb.Deferred
			mu.Unlock()
			select {
			case queue <- bb.Block:
			case <-ctx.Done():
			}
		}
	}()
	go func() {
		defer wg.Done()
		defer close(blkCh)
		for b := range queue {
			select {
			case blkCh <- b:
			case <-ctx.Done():
				return
			}
			mu.Lock()
			r.handed = append(r.handed, time.Now())
			mu.Unlock()
		}
	}()

	eng := exec.Sharded{Workers: workers, Shards: shards, Depth: depth, OpLevel: spec.opLevel, Cost: s.cost}
	if ckpt != nil {
		var sink exec.CheckpointSink = ckpt
		if rec != nil {
			sink = &tracedSink{inner: ckpt, r: rec}
		}
		eng.Checkpoint = sink
	}
	onCommit := func(int, *account.Block, []*account.Receipt) {
		t := time.Now()
		mu.Lock()
		r.committed = append(r.committed, t)
		mu.Unlock()
	}

	r.setup = time.Since(t0)
	r.win[0] = rec.now()
	sampler := startSampler()
	genErr := make(chan error, 1)
	go func() {
		due, lag, err := openLoop(ctx, n, rate, send)
		r.due, r.lag = due, lag
		if err != nil {
			// Stop the service so every outstanding ack resolves.
			cancel()
		}
		if derr := drain(); err == nil {
			err = derr
		}
		pool.Close()
		genErr <- err
	}()
	cr, css, err := eng.ExecuteChainStream(s.pre.Copy(), blkCh, onCommit)
	if err != nil {
		cancel()
	}
	gerr := <-genErr
	wg.Wait()
	r.proc = sampler.end()
	r.win[1] = rec.now()
	r.depth = poolDepth.v.Load()
	switch {
	case err != nil:
		return nil, fmt.Errorf("executor: %w", err)
	case gerr != nil:
		return nil, gerr
	case runErr != nil:
		return nil, fmt.Errorf("builder: %w", runErr)
	case len(leftovers) != 0:
		return nil, fmt.Errorf("%d transactions left unpackable", len(leftovers))
	case len(r.committed) != len(r.blocks):
		return nil, fmt.Errorf("%d commit callbacks for %d blocks", len(r.committed), len(r.blocks))
	}
	r.cr, r.css = cr, css

	committed, err := countCommitted(s, n, r.blocks)
	if err != nil {
		return nil, err
	}
	r.failed = n - committed
	for b, blk := range r.blocks {
		for _, tx := range blk.Txs {
			r.commit[s.index[keyOf(tx)]] = r.committed[b]
		}
	}
	if rec != nil {
		for b, blk := range r.blocks {
			rec.addSpan(span{name: "exec.block", start: rec.at(r.handed[b]), end: rec.at(r.committed[b]), id: int64(blk.Height)})
		}
	}
	if r.oracle, err = replaySequential(s.pre, r.blocks); err != nil {
		return nil, err
	}
	if err := checkChain("streamed chain", cr, r.oracle); err != nil {
		return nil, err
	}
	if d == nil {
		return r, nil
	}
	if err := ckpt.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	r.ckptWritten = ckpt.Written()
	if err := d.Close(); err != nil {
		return nil, err
	}
	if err := recoverWAL(r, s, fsys, dir, spec, rec); err != nil {
		return nil, err
	}
	return r, nil
}

// traceBlock records, for one emitted block, how long its first admitted
// transaction waited for the block to close and — on the path without a
// WAL, where no Append marks the end of validation — the replica
// validation time.
func traceBlock(rec *recorder, tp *tracedPacker, bb mempool.BuiltBlock, durable bool) {
	now := rec.now()
	start, end, ok := tp.closed(bb.Block)
	if !ok {
		return
	}
	first := bb.Submitted[0]
	for _, t := range bb.Submitted[1:] {
		if t.Before(first) {
			first = t
		}
	}
	rec.addSpan(span{name: "mempool.fill", start: rec.at(first), end: start, id: int64(bb.Block.Height), n: int64(len(bb.Block.Txs))})
	if !durable {
		rec.addSpan(span{name: "mempool.validate", start: end, end: now, id: int64(bb.Block.Height)})
	}
}

// recoverWAL times a cold restart of a durable round's directory: reopen
// the log, pick the newest valid checkpoint, materialise it and replay the
// log suffix. The recovered root must equal the live root and the log must
// hold exactly the built blocks.
func recoverWAL(r *ingestRound, s *stream, fsys basestore.FS, dir string, spec ingestSpec, rec *recorder) error {
	start := time.Now()
	g := goid()
	t := rec.now()
	d, err := wal.Open(fsys, dir, wal.SyncEachRecord)
	if err != nil {
		return err
	}
	defer d.Close()
	rec.add("wal.recover_open", t, g, -1, 0)
	t = rec.now()
	rc, err := d.Recover(s.pre)
	if err != nil {
		return err
	}
	rec.add("wal.recover", t, g, -1, 0)
	t = rec.now()
	st, err := rc.State.Materialize()
	if err != nil {
		return fmt.Errorf("materialize: %w", err)
	}
	rec.add("wal.materialize", t, g, -1, 0)
	root := st.Root()
	if len(rc.Blocks) > 0 {
		t = rec.now()
		eng := exec.Sharded{Workers: workers, Shards: shards, Depth: depth, OpLevel: spec.opLevel, Cost: s.cost}
		cr, _, err := eng.ExecuteChain(st, rc.Blocks)
		if err != nil {
			return fmt.Errorf("recovery replay: %w", err)
		}
		rec.add("wal.replay", t, g, -1, int64(len(rc.Blocks)))
		root = cr.Root
	}
	r.recovery = time.Since(start)
	r.replayed = len(rc.Blocks)
	r.faults = rc.State.Faults()
	if root != r.cr.Root {
		return errors.New("recovered root differs from the live root")
	}
	return checkLog(d.Records(), r.blocks)
}
