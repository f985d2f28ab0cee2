package main

import (
	"time"

	"txconcur/internal/chainsim"
)

// The service configuration every workload runs under, sized to a 2-core
// host: two speculative workers, two shards, and a chain pipeline two
// blocks deep.
const (
	workers = 2
	shards  = 2
	depth   = 2
)

// How much work one run measures. An ingest run interleaves fixedRounds
// fixed-rate rounds with floodRounds flood rounds, a replay-bounded run
// importRounds paced imports with batchRounds batch replays, so every
// figure samples the host over the whole run. Each round yields its own
// percentiles, throughput or recovery time, summarised over rounds by
// quietTime or quietRate (stats.go). The bounded store's cold reopen is
// timed reopenReps times after every batch round. Peak heap is the median
// over the flood (or batch) rounds, the ones under most pressure.
const (
	fixedRounds  = 7
	floodRounds  = 7
	importRounds = 7
	batchRounds  = 5
	reopenReps   = 2
)

// fixedShare is the share of --seconds the fixed-rate (or paced import)
// rounds offer load for, together.
const fixedShare = 0.5

// ingestSpec is one ingest workload: how its transaction stream is made,
// how the service is configured, and the frozen offered rate of its
// fixed-rate pass.
type ingestSpec struct {
	name string
	// durable submits in process through Pool.SubmitDurable into a
	// builder that appends every block to a SyncEachRecord WAL and
	// checkpoints every ckptEvery blocks; otherwise submissions go over
	// JSON-RPC through two keep-alive connections to a BuilderServer with
	// all state in RAM.
	durable   bool
	ckptEvery int
	// rate is the fixed-rate rounds' offered load in tx/s, well below the
	// flood capacity (about 40% on ingest-durable, 20% on
	// ingest-rpc-erc20 on a 2-core host): at higher load the latency tail
	// swings with the CPU time a shared host steals, and run-to-run spread
	// exceeds the regression bounds.
	rate float64
	// floodTxs is how many transactions each flood round submits.
	floodTxs int
	// blockTxs is the builder's MaxTxs, hotCap its per-key density cap,
	// poolTxs the pool capacity and flush its lull timeout.
	blockTxs, hotCap, poolTxs int
	flush                     time.Duration
	// opLevel runs the executor in delta (op-level) mode.
	opLevel bool
	gen     func(seed int64, n, blockTxs int) (*stream, error)
}

// replaySpec is the bounded-state batch replay workload.
type replaySpec struct {
	name string
	// users accounts, blocks blocks of about blockTxs transactions.
	users, blocks, blockTxs int
	// budget is the total version-cache budget in keys (users/100),
	// split evenly across the shards.
	budget int
	// rate is the fixed-rate block-import pass's offered load in tx/s
	// (blocks arrive every blockTxs/rate seconds), about 45% of the
	// bounded replay capacity on a 2-core host. At 30 s a round imports
	// the first 64 blocks, so its p99 is the largest compaction stall of
	// those blocks, which varies less from seed to seed than an earlier,
	// smaller one.
	rate float64
}

var ingestDurable = ingestSpec{
	name:      "ingest-durable",
	durable:   true,
	ckptEvery: 8,
	rate:      8000,
	floodTxs:  16000,
	blockTxs:  200, hotCap: 25, poolTxs: 3200,
	flush: 2 * time.Millisecond,
	gen:   skewStream,
}

var ingestRPC = ingestSpec{
	name:     "ingest-rpc-erc20",
	rate:     1500,
	floodTxs: 12000,
	blockTxs: 50, hotCap: 8, poolTxs: 3200,
	// At 1,500 tx/s a 2 ms lull between arrivals is one scheduling
	// hiccup away, so block sizes and commit latency would follow host
	// noise; a 10 ms lull closes only the tail of a round.
	flush:   10 * time.Millisecond,
	opLevel: true,
	gen:     erc20Stream,
}

var replayBounded = replaySpec{
	name:  "replay-bounded",
	users: 40000, blocks: 100, blockTxs: 200,
	budget: 400,
	rate:   6000,
}

// skewProfile is the ingest-durable account population: the Shard Skew
// traffic shape (four hot sweep bots consolidating into collectors) over
// 20,000 users at about 200 transactions per block.
func skewProfile(blockTxs int) chainsim.Profile {
	p := chainsim.ShardSkewProfile()
	p.Eras[0].Users = 20000
	p.Eras[0].TxPerBlock = float64(blockTxs)
	return p
}

// wideProfile is the replay-bounded account population: a wide state with
// a skewed active set, so the version caches keep faulting different cold
// accounts while a hot core stays resident.
func wideProfile(users, blockTxs int) chainsim.Profile {
	return chainsim.Profile{
		Name: "Wide Bounded", Model: chainsim.Account, Consensus: "PoW",
		DataSource: "Synthetic", LaunchYear: 2020,
		Eras: []chainsim.Era{
			{Name: "wide", Weight: 1, StartTime: 1577836800, BlockInterval: 15,
				TxPerBlock: float64(blockTxs), TxPerBlockJitter: 0.3, Users: users,
				ActiveFrac: 2.5, HotSenderFrac: 0.6, HotSenders: 4},
		},
	}
}
