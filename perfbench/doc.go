// Command perfbench is the repository benchmark: it runs one named workload
// against the service's public entry points, checks every output against
// the sequential oracle, and prints the metrics as one JSON line.
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// run.sh builds the binary into .bench_build/ and passes -dir .bench_build,
// where the WAL and table directories are made (on the same disk as the
// checkout, so latencies are that filesystem's) and span files written.
//
// # Workloads
//
// All run with 2 workers, 2 shards and a pipeline 2 blocks deep, in one
// process, with at most 2 submitting goroutines or connections. The seed
// makes the inputs; the system sees only the generated inputs.
//
//   - ingest-durable: Shard-Skew transfers over 20,000 users, submitted
//     open-loop in process through Pool.SubmitDurable into the
//     conflict-aware builder (200-tx blocks, hot-key cap 25, pool 3,200,
//     Flush 2 ms) at 8,000 tx/s and in 16,000-tx floods. The WAL syncs
//     each record, the executor checkpoints every 8 blocks, and every round
//     ends with a timed cold recovery.
//   - ingest-rpc-erc20: the ERC20 rwset trace (hot tokens, DEX pools,
//     airdrop deltas, with each row's key sets as predictions) submitted
//     open-loop over JSON-RPC through 2 keep-alive connections to the
//     non-durable BuilderServer (50-tx blocks, hot-key cap 8, pool 3,200,
//     Flush 10 ms) at 1,500 tx/s and in 12,000-tx floods; op-level
//     execution, all state in RAM.
//   - replay-bounded: a 40,000-account chain of 100 blocks × 200 txs with
//     the version caches capped at users/100 keys over a real
//     basestore.Store: paced block import of a prefix through
//     ExecuteChainStream at 6,000 tx/s and batch Sharded.ExecuteChain of
//     the whole chain.
//
// Each ingest run interleaves fixedRounds fixed-rate rounds at the rate
// frozen in config.go (latency) with floodRounds flood rounds (capacity),
// each a fresh service over the same stream prefix, and after each flood
// round times a batch re-execution of its chain; replay-bounded likewise
// interleaves its paced imports with its batch rounds. A short untimed,
// untraced warm-up comes first. Every round yields its own figures: the
// p50 and p99 of its latencies, its throughput, its recovery time. Over
// rounds they are summarised on the quiet side: the lower quartile of
// latencies and times, the upper quartile of throughputs. The shared host
// steals CPU time from the VM in spells of seconds, which doubles an RPC
// reply's p99 while it lasts; stolen time only adds, so the quieter
// rounds measure the system. A fixed-rate (or import) round offers about
// two seconds of load, so a stall the system causes at least that often —
// a GC cycle, a checkpoint every 8 blocks, a compaction on a fixed block,
// an fsync per block — shows in every round and so in the figure, and a
// regression moves the quiet rounds too. A stall rarer than about one in
// three seconds can miss two rounds of seven and then not show. Set-up is
// timed setupReps times and reported as the median. The offered rates sit well below capacity:
// at about 60% of it, the latency tail followed the CPU time the shared
// 2-vCPU host stole, beyond the regression bounds.
//
// # End-to-end metrics (--trace 0)
//
//	setup_s        input generation plus one round's dirs, WAL, pool, builder and server
//	ack_p50/p99    due → durable ack, RPC reply, or (replay) the block's commit
//	commit_p50/p99 due → commit callback of the transaction's block
//	capacity_tps   flood: committed txs ÷ (first due → last commit); replay: batch throughput
//	replay_tps     txs ÷ Sharded.ExecuteChain wall (ingest: the flood chains in RAM)
//	speedup_cost   GasSeq/GasPar of the executed chain, the paper's figure
//	recovery_s     durable: wal.Open+Recover+Materialize+suffix replay, root-checked;
//	               rpc: batch re-execution from the pre-state (no durable state);
//	               replay: reopen the base store and read every entry back, checked
//	heap_peak_mib  peak live heap of a timed round (median over rounds)
//	ok_frac        committed ÷ attempted (1 − the failed fraction; never 0)
//
// # Per-layer metrics (--trace 1) and what they should move
//
//	client.*             ack_p99_ms, capacity_tps on ingest-rpc-erc20 (0 elsewhere)
//	mempool.admit_p99_ms, depth_max       ack_p99_ms on ingest-durable
//	mempool.pack_*, validate_busy_s, deferred   capacity_tps, most on ingest-rpc-erc20
//	mempool.txs_per_block, block_fill_p50_ms    ack_p50_ms at the fixed rate (Flush lull)
//	wal.append_*, txs_per_sync, bytes_per_tx    ack_p99_ms, capacity_tps on ingest-durable
//	wal.ckpt_*           recovery_s (replay length), capacity_tps (CPU share)
//	wal.recover_open_s, recover_s, materialize_s, replay_s, replayed_blocks, lazy_faults   recovery_s
//	exec.block_p50/p99_ms                 commit_p99_ms on the ingest workloads
//	exec.conflicted, cross_aborts, abort_ratio, merge_waves, repairs, fallback_blocks, speedup_cost
//	                     commit_p99_ms, capacity_tps on ingest-rpc-erc20; replay_tps on replay-bounded
//	exec.self_s, evicted, cold_reads, ram_replay_tps      replay_tps
//	basestore.*          replay_tps, heap_peak_mib on replay-bounded (0 on ingest)
//	fs.*                 capacity_tps on ingest-durable, replay_tps on replay-bounded
//	gen.lag_p99_ms, gen.samples, proc.cpu_s, proc.gc_pause_s   generator and process health
//	<layer>.self_s       the layer's span time minus the child spans it covers
//	overhead.<metric>    traced minus untraced, per end-to-end metric
//
// Latency-type layer figures (p50/p99, fill, txs per block and per sync)
// come from the fixed-rate rounds; busy times and counts cover every round.
// fs spans are attributed to the enclosing wal.* or basestore.* span on the
// same goroutine by interval containment.
package main
