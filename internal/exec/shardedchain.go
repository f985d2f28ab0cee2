package exec

import (
	"fmt"
	"sync"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/basestore"
	"txconcur/internal/core"
	"txconcur/internal/mvstore"
	"txconcur/internal/types"
)

// This file composes the sharded engine with the mvstore pipeline: across a
// chain of blocks, the per-shard speculative phase 1 of block b+1 overlaps
// the deterministic cross-shard commit of block b. Each shard owns a
// persistent multi-version store; a block commits its writes — partitioned
// by the engine's shard map — to every shard's store at the next logical
// timestamp, and phase 1 speculates against per-shard snapshots pinned at
// the deterministic fixed-lag timestamp (see Sharded.Depth): re-execution
// counts and ParUnits depend only on the workload, never on scheduler
// timing.
//
// With an adaptive shard map (core.AdaptiveShardMap + RebalanceEvery > 0)
// the chain is additionally segmented into epochs. At each epoch boundary
// the pipeline drains, the map rebalances from the heat it observed, and
// the moved addresses' state migrates between the per-shard stores as one
// migration commit — a reconfiguration barrier, exactly as committee
// reassignment is in a real sharded chain. Timestamps within an epoch
// advance one per block; each boundary consumes one extra timestamp for
// its migration commit, so the logical clock remains strictly monotonic on
// every store and fixed-lag pins stay valid:
//
//	epoch 0                 boundary            epoch 1
//	blk0   blk1   blk2      rebalance+migrate   blk3   blk4   ...
//	ts 1   ts 2   ts 3      ts 4 (migration)    ts 5   ts 6   ...
//
// Migrated values are committed as absolute (Put) versions materialised
// over the pre-chain state, so they supersede any stale copy an earlier
// migration left behind; the final fold into the caller's StateDB filters
// every store by the *final* assignment, which owns each key's newest
// version by construction.

// ChainShardStats aggregates the sharding counters of a chain executed by
// Sharded.ExecuteChain, per block and in total.
type ChainShardStats struct {
	// Blocks holds each block's ShardStats, in chain order.
	Blocks []ShardStats
	// Cross, CrossAborts, Repairs, MergeWaves, MergeUnits and BatchedStage
	// sum the per-block counters; FallbackBlocks counts blocks whose
	// repair suffix was the whole block.
	Cross, CrossAborts, Repairs  int
	MergeWaves, MergeUnits       int
	BatchedStage, FallbackBlocks int
	// RebalanceEpochs counts the epoch boundaries at which the adaptive
	// shard map recomputed its assignment (including boundaries that moved
	// nothing); Migrations counts the key-values copied between per-shard
	// stores across all of them, and MigrationUnits the schedule-length
	// cost charged for the copies (⌈moved keys/n⌉ per boundary — migration
	// is a real cost, so it is folded into Stats.ParUnits). All zero under
	// a static map.
	RebalanceEpochs int
	Migrations      int
	MigrationUnits  int
	// Checkpoints counts snapshots handed to the engine's CheckpointSink;
	// CheckpointsSkipped counts commit points whose checkpoint was dropped
	// because the async worker was still busy (the commit path never
	// waits). Both zero without a sink.
	Checkpoints        int
	CheckpointsSkipped int
	// Evicted counts version chains the committer moved from the per-shard
	// caches to the state backend (stale migration leftovers dropped
	// alongside included); ColdReads counts reads the backend served after
	// their key was evicted. Both zero without a Backend.
	Evicted   int
	ColdReads int
}

// add folds one block's counters into the aggregate.
func (c *ChainShardStats) add(ss *ShardStats) {
	c.Blocks = append(c.Blocks, *ss)
	c.Cross += ss.Cross
	c.CrossAborts += ss.CrossAborts
	c.Repairs += ss.Repairs
	c.MergeWaves += ss.MergeWaves
	c.MergeUnits += ss.MergeUnits
	c.BatchedStage += ss.BatchedStage
	if ss.Fallback {
		c.FallbackBlocks++
	}
}

// BlockStats describes the chain driver's work on one block.
type BlockStats struct {
	// Txs is the number of transactions in the block.
	Txs int
	// Reexecuted is how many distinct transactions of the block were
	// re-executed at least once: stale or conflicting phase-1 reads,
	// phase-1 envelope failures, cross-shard aborts and repairs alike.
	Reexecuted int
}

// ChainResult is the outcome of executing a sequence of blocks through the
// pipelined chain driver.
type ChainResult struct {
	// Receipts holds the per-block, per-transaction receipts in order.
	Receipts [][]*account.Receipt
	// Root is the state root after the last block.
	Root types.Hash
	// Stats aggregates the whole chain under the paper's unit-cost model;
	// ParUnits is the two-stage flow-shop makespan (phase 1 of block b+1
	// overlapping the ordered work of block b).
	Stats Stats
	// Blocks holds per-block counters.
	Blocks []BlockStats
}

// snapState adapts a multi-version snapshot layered over an immutable base
// — the pre-chain StateDB, or a backedState reading through the disk base
// layer first — to the account.State reads. All execution writes go
// through recording overlays, never through their base, so the mutators
// panic to surface any violation of that invariant.
type snapState struct {
	base baseState
	snap *mvstore.Snapshot[StateKey, stateVal]
}

var _ account.State = (*snapState)(nil)

// GetBalance implements vm.State. Balances resolve through the version
// chain: committed delta versions fold onto the newest absolute version, or
// onto the base state's balance when the chain holds only deltas.
func (s *snapState) GetBalance(a types.Address) int64 {
	k := StateKey{Kind: kindBalance, Addr: a}
	return s.snap.Resolve(k, stateVal{i64: s.base.GetBalance(a)}).i64
}

// GetNonce implements account.State.
func (s *snapState) GetNonce(a types.Address) uint64 {
	if v, ok := s.snap.Get(StateKey{Kind: kindNonce, Addr: a}); ok {
		return v.u64
	}
	return s.base.GetNonce(a)
}

// GetCode implements vm.State.
func (s *snapState) GetCode(a types.Address) []byte {
	if v, ok := s.snap.Get(StateKey{Kind: kindCode, Addr: a}); ok {
		return v.bytes
	}
	return s.base.GetCode(a)
}

// GetStorage implements vm.State.
func (s *snapState) GetStorage(a types.Address, slot uint64) uint64 {
	if v, ok := s.snap.Get(StateKey{Kind: kindStorage, Addr: a, Slot: slot}); ok {
		return v.u64
	}
	return s.base.GetStorage(a, slot)
}

// Snapshot implements vm.State; snapshots of an immutable view are free.
func (s *snapState) Snapshot() int { return 0 }

// RevertToSnapshot implements vm.State; nothing was written, nothing to do.
func (s *snapState) RevertToSnapshot(int) {}

func (s *snapState) AddBalance(types.Address, int64) { panic("exec: write to mv snapshot") }
func (s *snapState) SubBalance(types.Address, int64) { panic("exec: write to mv snapshot") }
func (s *snapState) SetNonce(types.Address, uint64)  { panic("exec: write to mv snapshot") }
func (s *snapState) SetCode(types.Address, []byte)   { panic("exec: write to mv snapshot") }
func (s *snapState) SetStorage(types.Address, uint64, uint64) {
	panic("exec: write to mv snapshot")
}

// shardedSpecBlock carries one block's phase-1 output from the speculative
// stage to the cross-shard committer. rel is the block's position within
// its epoch (the fixed-lag clock runs on epoch-relative positions).
type shardedSpecBlock struct {
	rel    int
	blk    *account.Block
	spec   *shardedSpec
	snaps  []*mvstore.Snapshot[StateKey, stateVal]
	specTS uint64
}

func (sb *shardedSpecBlock) release() {
	for _, sn := range sb.snaps {
		sn.Release()
	}
}

// shardedChain is the mutable state ExecuteChain threads through its
// epochs: the per-shard stores, the logical clock, and the chain-level
// accumulators.
type shardedChain struct {
	st  *account.StateDB
	mvs []*mvstore.Store[StateKey, stateVal]
	m   core.ShardMap
	// bs is the speculative base every snapState falls through to: st
	// itself, or — with a configured Backend — bst, which reads the disk
	// base layer before st. budget is the per-shard eviction target.
	bs     baseState
	bst    *backedState
	budget int
	// baseTS is the last committed timestamp at the current epoch's entry
	// (0 before the first block; the migration timestamp after a
	// boundary). Block lo+r of an epoch starting at lo commits at
	// baseTS+r+1.
	baseTS uint64

	// all and blockStats grow by append as blocks commit (strictly in
	// order), so the same accumulator serves slice-backed and streamed
	// chains alike.
	all        [][]*account.Receipt
	blockStats []BlockStats
	css        *ChainShardStats
	// Per-epoch flow-shop inputs; the makespans are summed across epochs
	// because a boundary is a barrier (phase 1 of the next epoch cannot
	// start before the migration commit).
	parUnits, seqUnits  int
	gasParUnits         uint64
	gasSeq              uint64
	conflicted, retries int

	// Async checkpointing (see checkpoint.go): the committer enqueues
	// pinned commit points every ckptEvery blocks; the worker materialises
	// and hands them to the engine's CheckpointSink. ckptCh nil when
	// checkpointing is off.
	ckptCh    chan ckptReq
	ckptWG    sync.WaitGroup
	ckptOnce  sync.Once
	ckptEvery int
}

// ExecuteChain executes blocks in order on st (mutated on success), with
// the per-shard speculative phase 1 of later blocks overlapping the
// cross-shard commit of earlier ones — the composition of the sharded
// engine with the mvstore pipeline that converts the merge's sequential
// tail from a per-block barrier into pipelined work. With an adaptive
// shard map and RebalanceEvery > 0 the chain runs in epochs: each boundary
// drains the pipeline, rebalances the map from the heat observed so far,
// and migrates the moved addresses' state between the per-shard stores
// (ChainShardStats.RebalanceEpochs/Migrations/MigrationUnits).
//
// Nothing touches st until every block has committed, so the speculative
// stage can read it lock-free; each shard's newest values are folded into
// st once at the end, filtered by the final assignment. Serial equivalence
// (state roots and receipts against Sequential) is enforced by the
// regression and fuzz suites on every profile, shard count, conflict mode,
// and rebalance schedule.
func (e Sharded) ExecuteChain(st *account.StateDB, blocks []*account.Block) (*ChainResult, *ChainShardStats, error) {
	if e.Workers < 1 {
		return nil, nil, ErrNoWorkers
	}
	m := e.shardMap()
	//txlint:clock wall-clock timing metric for reported stats only; committed state never depends on it
	start := time.Now()

	am, adaptive := m.(core.AdaptiveShardMap)
	epochLen := len(blocks)
	if adaptive && e.RebalanceEvery > 0 && e.RebalanceEvery < epochLen {
		epochLen = e.RebalanceEvery
	}
	if epochLen < 1 {
		epochLen = 1
	}

	c := e.newShardedChain(st, m, len(blocks))
	c.startCheckpoints(e.Checkpoint)
	for lo := 0; lo < len(blocks); lo += epochLen {
		hi := lo + epochLen
		if hi > len(blocks) {
			hi = len(blocks)
		}
		// A slice-backed source never blocks, so the quit channel is moot.
		src := func(rel int, _ <-chan struct{}) (*account.Block, bool) {
			if lo+rel >= hi {
				return nil, false
			}
			return blocks[lo+rel], true
		}
		if _, err := e.runShardedEpoch(c, src, am, nil); err != nil {
			c.closeCheckpoints()
			return nil, nil, err
		}
		if adaptive && e.RebalanceEvery > 0 && hi < len(blocks) {
			e.migrateShards(c, am.Rebalance())
		}
	}
	return e.finishChain(c, start)
}

// newShardedChain builds the chain accumulator with one fresh multi-version
// store per shard. sizeHint pre-sizes the per-block slices (0 when the
// block count is unknown, as in a streamed chain).
func (e Sharded) newShardedChain(st *account.StateDB, m core.ShardMap, sizeHint int) *shardedChain {
	c := &shardedChain{
		st:         st,
		mvs:        make([]*mvstore.Store[StateKey, stateVal], m.Shards()),
		m:          m,
		all:        make([][]*account.Receipt, 0, sizeHint),
		blockStats: make([]BlockStats, 0, sizeHint),
		css:        &ChainShardStats{},
	}
	for sh := range c.mvs {
		c.mvs[sh] = mvstore.NewStoreDelta[StateKey, stateVal](mergeStateVal)
	}
	c.bs = st
	if e.Backend != nil {
		c.bst = &backedState{st: st, be: e.Backend}
		c.bs = c.bst
		c.budget = e.CacheBudget
	}
	return c
}

// finishChain folds every shard's newest values into the caller's state
// database, filtered by the final assignment: migration leaves superseded
// copies behind on a key's previous shards, and only the owning shard's
// chain is guaranteed newest. Under a static map the filter never rejects.
func (e Sharded) finishChain(c *shardedChain, start time.Time) (*ChainResult, *ChainShardStats, error) {
	// The checkpoint worker reads c.st as its immutable base; stop it
	// before mutating.
	c.closeCheckpoints()
	// Base layer first, per-shard caches second: cache chains are strictly
	// newer than the base values their keys evicted to, so the cache fold
	// wins per key.
	if c.bst != nil {
		err := c.bst.Err()
		if err == nil {
			err = foldBackendInto(c.bst.be, c.st)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("exec: sharded chain: state backend: %w", err)
		}
		c.css.ColdReads = c.bst.ColdReads()
	}
	for sh := range c.mvs {
		fold := foldResolvedInto(c.st)
		c.mvs[sh].RangeLatestResolved(func(k StateKey, v stateVal, anchored bool) bool {
			if c.m.Shard(k.Addr) != sh {
				return true
			}
			return fold(k, v, anchored)
		})
	}
	c.st.DiscardJournal()

	res := &ChainResult{Receipts: c.all, Root: c.st.Root(), Blocks: c.blockStats}
	res.Stats = Stats{
		Workers:    e.Workers,
		Txs:        c.seqUnits,
		Conflicted: c.conflicted,
		SeqUnits:   c.seqUnits,
		ParUnits:   c.parUnits,
		GasSeq:     c.gasSeq,
		GasPar:     c.gasParUnits,
		Retries:    c.retries,
		//txlint:clock wall-clock timing metric only
		Wall: time.Since(start),
	}
	res.Stats.finish()
	return res, c.css, nil
}

// epochSource yields one epoch's blocks to the speculative stage, in order:
// src(rel, quit) returns the epoch's rel-th block, or false when the epoch
// is over (boundary reached, slice exhausted, or stream closed). A source
// backed by a live stream must honour quit — it is closed when the
// committer aborts, and a source still blocked on its producer would
// deadlock the drain otherwise.
type epochSource func(rel int, quit <-chan struct{}) (*account.Block, bool)

// runShardedEpoch pipelines one epoch's blocks: stage 1 speculates per
// shard against pinned fixed-lag snapshots (never below the epoch's entry
// timestamp — everything older was superseded by the boundary migration),
// stage 2 classifies, commits sub-blocks, merges cross-shard and composes,
// strictly in block order, committing each block's writes to the per-shard
// stores. onCommit (optional) fires after each block's writes are durable
// on every shard, with the block's chain-wide index. Returns the number of
// blocks committed; on return the epoch's last commit is c.baseTS.
func (e Sharded) runShardedEpoch(c *shardedChain, src epochSource,
	am core.AdaptiveShardMap, onCommit func(idx int, blk *account.Block, receipts []*account.Receipt)) (int, error) {
	wps := ceilDiv(e.Workers, c.m.Shards())
	depth := e.Depth
	if depth < 1 {
		depth = 1
	}
	bs, mvs, m := c.bs, c.mvs, c.m
	shards := m.Shards()
	baseTS := c.baseTS
	shardOfKey := func(k StateKey) int { return m.Shard(k.Addr) }

	// Stage 1: per-shard speculative execution, one block at a time, each
	// transaction on its own recording overlay over the pinned per-shard
	// snapshots. The channel buffer is the pipeline depth: stage 1 runs at
	// most depth blocks ahead of the cross-shard committer.
	specCh := make(chan shardedSpecBlock, depth)
	done := make(chan struct{})
	// abort stops the speculative stage and waits for it to exit before an
	// error return: otherwise its workers would keep reading st after the
	// caller regains ownership of it. Draining specCh both releases the
	// buffered snapshot pins and blocks until the goroutine's deferred
	// close.
	abort := func() {
		close(done)
		for sb := range specCh {
			sb.release()
		}
	}
	go func() {
		defer close(specCh)
		for rel := 0; ; rel++ {
			blk, ok := src(rel, done)
			if !ok {
				return
			}
			// Deterministic pessimistic snapshot (fixed lag): when
			// stage 1 starts the epoch's rel-th block it has pushed the
			// previous rel blocks through a channel of capacity depth, so
			// stage 2 has received at least rel−depth of them and committed
			// all but its current one: baseTS+rel−depth−1 is guaranteed
			// durable on every shard. Earlier epochs are fully durable
			// (the boundary drained), so the floor is the epoch's entry
			// timestamp. The clock runs on epoch-relative positions, so a
			// streamed source — whose producers have arbitrary timing —
			// yields the same pins, and therefore the same re-execution
			// counts and schedule stats, as the slice-backed batch run.
			ts := baseTS
			if rel > depth {
				ts = baseTS + uint64(rel-depth-1)
			}
			sb := shardedSpecBlock{
				rel:    rel,
				blk:    blk,
				snaps:  make([]*mvstore.Snapshot[StateKey, stateVal], shards),
				specTS: ts,
			}
			view := &mergedState{m: m, views: make([]account.State, shards)}
			for sh := range mvs {
				sb.snaps[sh] = mvs[sh].PinAt(ts)
				view.views[sh] = &snapState{base: bs, snap: sb.snaps[sh]}
			}
			sb.spec = e.specExec(view, blk, m, wps)
			//txlint:clock send-vs-shutdown arbitration; commit order is enforced by stage 2, not by this select
			select {
			case specCh <- sb:
			case <-done:
				sb.release()
				return
			}
		}
	}()

	// Stage 2: classification, per-shard sub-block commit, cross-shard
	// merge and composition — strictly in block order (stage 1 emits in
	// order and the channel preserves it, so appends index correctly).
	var p1Units, p2Units []int
	var p1Gas, p2Gas []uint64

	n := 0
	for sb := range specCh {
		blk := sb.blk
		rel := sb.rel
		commitTS := baseTS + uint64(rel) + 1
		specTS := sb.specTS

		// The committed pre-block view: every shard's store at the previous
		// timestamp, over the immutable pre-chain state.
		base := &mergedState{m: m, views: make([]account.State, shards)}
		for sh := range mvs {
			base.views[sh] = &snapState{base: bs, snap: mvs[sh].At(commitTS - 1)}
		}
		// Cross-block staleness: a phase-1 read is stale iff its key was
		// committed after the pinned snapshot (per-shard ChangedSince, the
		// mvstore validation primitive).
		stale := func(k StateKey) bool {
			return mvs[shardOfKey(k)].ChangedSince(k, specTS)
		}
		if specTS == commitTS-1 {
			// The snapshot already reflects the previous commit; no
			// committed version can postdate it.
			stale = nil
		}
		out, err := e.phase2(base, stale, blk, sb.spec, m, wps)
		sb.release()
		if err != nil {
			abort()
			return n, fmt.Errorf("exec: sharded chain block %d: %w", blk.Height, err)
		}

		// Deferred fees and block reward, exactly as finalizeBlock does,
		// then the block's writes partitioned onto the per-shard stores.
		out.acc.AddBalance(blk.Coinbase, account.Fees(blk.Txs, out.receipts))
		out.acc.AddBalance(blk.Coinbase, account.BlockReward)
		parts := make([]map[StateKey]mvstore.Write[stateVal], shards)
		for sh := range parts {
			parts[sh] = make(map[StateKey]mvstore.Write[stateVal])
		}
		//txlint:ordered distinct keys land in distinct entries of the per-shard partition maps; shardOfKey is a pure function of k
		for k, w := range overlayWrites(out.acc) {
			parts[shardOfKey(k)][k] = w
		}
		for sh := range mvs {
			// Empty partitions still commit: every shard's clock advances
			// in lockstep so fixed-lag pins stay valid on all shards.
			if err := mvs[sh].CommitWrites(commitTS, parts[sh]); err != nil {
				abort()
				return n, fmt.Errorf("exec: sharded chain block %d shard %d: %w", blk.Height, sh, err)
			}
		}
		if am != nil && out.obs != nil {
			am.ObserveBlock(*out.obs)
		}
		// Epoch GC, fixed-lag horizon: a future pin within this epoch
		// requests at least commitTS−depth (the next block's floor), later
		// epochs pin above the boundary migration, and PinAt cannot
		// resurrect collected versions.
		if commitTS > baseTS+uint64(depth)+1 {
			horizon := commitTS - uint64(depth) - 1
			for sh := range mvs {
				mvs[sh].TruncateBelow(horizon)
			}
			// Cold-key eviction rides the GC cadence: fully resolved cold
			// keys beyond each shard's budget are persisted to the shared
			// base layer, then their chains dropped from every shard.
			if c.bst != nil {
				ev, err := c.evictShards(horizon)
				if err != nil {
					abort()
					return n, fmt.Errorf("exec: sharded chain block %d: state backend: %w", blk.Height, err)
				}
				c.css.Evicted += ev
			}
		}
		// A backend read failure latched by a speculative worker poisons
		// every result after it; surface it at the commit point.
		if c.bst != nil {
			if err := c.bst.Err(); err != nil {
				abort()
				return n, fmt.Errorf("exec: sharded chain block %d: state backend: %w", blk.Height, err)
			}
		}

		c.all = append(c.all, out.receipts)
		c.css.add(out.ss)
		x := len(blk.Txs)
		gasBlock := costSum(e.Cost, blk.Txs, out.receipts)
		c.blockStats = append(c.blockStats, BlockStats{
			Txs:        x,
			Reexecuted: out.conflicted,
		})
		// Two-stage flow shop: machine 1 is the per-shard speculative
		// spread (overlappable with the previous block's commit), machine 2
		// everything ordered — shard bins, merge waves, repairs. The two
		// sum to the per-block engine's ParUnits, so pipelining can only
		// help.
		p1Units = append(p1Units, out.spreadUnits)
		p2Units = append(p2Units, out.intraUnits-out.spreadUnits+out.mergeUnits+out.repairs)
		p1Gas = append(p1Gas, out.spreadGas)
		p2Gas = append(p2Gas, out.intraGas-out.spreadGas+out.mergeGas+out.repairGas)
		c.seqUnits += x
		c.gasSeq += gasBlock
		c.conflicted += out.conflicted
		c.retries += out.binned + out.mergeReexecs + out.redos + out.repairs
		n++
		if onCommit != nil {
			onCommit(len(c.all)-1, blk, out.receipts)
		}
		if c.ckptCh != nil && len(c.all)%c.ckptEvery == 0 {
			c.enqueueCheckpoint(len(c.all)-1, commitTS)
		}
	}

	c.baseTS = baseTS + uint64(n)
	c.parUnits += flowShopMakespan(p1Units, p2Units)
	c.gasParUnits += flowShopMakespan(p1Gas, p2Gas)
	return n, nil
}

// evictShards moves cold keys from every shard's version cache into the
// shared base layer, down to the per-shard budget. The protocol is
// persist-then-drop: the batch is durable in the backend before any chain
// is removed, so a reader missing a dropped chain always finds the value
// in the base. A key owned by its shard (per the current map) is persisted
// from that shard's chain — the newest by construction — and dropped on
// *every* shard, so a stale copy an epoch migration left behind can never
// outlive the owner's chain and win a newest-wins merge against the base
// value. A cold chain on a non-owning shard is such a stale copy: strictly
// older, never read (dispatch is by the current map), dropped without a
// base write. horizon must be the GC horizon of the triggering commit; the
// eviction cut additionally respects snapshot pins, exactly like GC.
// Returns the number of chains dropped across all shards.
func (c *shardedChain) evictShards(horizon uint64) (int, error) {
	var entries []basestore.Entry
	var owned []StateKey
	dropLocal := make([][]StateKey, len(c.mvs))
	for sh := range c.mvs {
		excess := c.mvs[sh].StoreStats().Keys - c.budget
		if excess <= 0 {
			continue
		}
		for _, ev := range c.mvs[sh].CollectCold(horizon, excess) {
			if c.m.Shard(ev.Key.Addr) != sh {
				dropLocal[sh] = append(dropLocal[sh], ev.Key)
				continue
			}
			v := ev.Val
			if !ev.Anchored {
				// Deltas exist only for balances: fold the accumulated
				// increment over the backed base so the persisted value is
				// absolute and commutativity is preserved.
				v = stateVal{i64: c.bst.GetBalance(ev.Key.Addr) + ev.Val.i64}
			}
			entries = append(entries, basestore.Entry{Key: encodeStateKey(ev.Key), Val: encodeStateVal(ev.Key, v)})
			owned = append(owned, ev.Key)
		}
	}
	if len(entries) > 0 {
		if err := c.bst.be.Apply(entries); err != nil {
			return 0, err
		}
	}
	dropped := 0
	for sh := range c.mvs {
		dropped += c.mvs[sh].DropChains(owned, horizon)
		dropped += c.mvs[sh].DropChains(dropLocal[sh], horizon)
	}
	return dropped, nil
}

// migrateShards applies one rebalance's moves to the per-shard stores: for
// every moved address, each of its keys present on the old shard is
// materialised (deltas folded over the pre-chain state) and committed to
// the new shard as an absolute version at the boundary's migration
// timestamp. Every store commits at that timestamp — empty write sets
// included — so the per-shard clocks stay in lockstep. The schedule charge
// is ⌈moved keys/n⌉: copies are independent and spread across the worker
// pool, but the boundary itself is a barrier.
func (e Sharded) migrateShards(c *shardedChain, moves []core.ShardMove) {
	migTS := c.baseTS + 1
	shards := len(c.mvs)
	parts := make([]map[StateKey]mvstore.Write[stateVal], shards)
	for sh := range parts {
		parts[sh] = make(map[StateKey]mvstore.Write[stateVal])
	}
	movedFrom := make([]map[types.Address]int, shards)
	for _, mv := range moves {
		if mv.From < 0 || mv.From >= shards || mv.To < 0 || mv.To >= shards || mv.From == mv.To {
			continue
		}
		if movedFrom[mv.From] == nil {
			movedFrom[mv.From] = make(map[types.Address]int)
		}
		movedFrom[mv.From][mv.Addr] = mv.To
	}
	migrated := 0
	for sh := range c.mvs {
		if len(movedFrom[sh]) == 0 {
			continue
		}
		c.mvs[sh].RangeLatestResolved(func(k StateKey, v stateVal, anchored bool) bool {
			dest, ok := movedFrom[sh][k.Addr]
			if !ok {
				return true
			}
			if !anchored {
				// Delta-only chain: v is the accumulated balance increment;
				// materialise it over the backed base (the disk base layer
				// holds the anchor when the key's absolute chain was
				// evicted, the immutable pre-chain state otherwise) so the
				// copy supersedes (rather than double-counts) any stale
				// version a previous migration left on the destination.
				v = stateVal{i64: c.bs.GetBalance(k.Addr) + v.i64}
			}
			parts[dest][k] = mvstore.Write[stateVal]{Kind: mvstore.Put, Val: v}
			migrated++
			return true
		})
	}
	for sh := range c.mvs {
		// Migration commits are infallible by construction (the timestamp
		// is fresh and strictly above every block commit of the epoch);
		// a failure would mean the clock discipline itself is broken.
		if err := c.mvs[sh].CommitWrites(migTS, parts[sh]); err != nil {
			panic(fmt.Sprintf("exec: shard migration commit: %v", err))
		}
	}
	c.baseTS = migTS
	c.css.RebalanceEpochs++
	c.css.Migrations += migrated
	if migrated > 0 {
		mu := ceilDiv(migrated, e.Workers)
		c.css.MigrationUnits += mu
		c.parUnits += mu
	}
}

// foldResolvedInto returns a RangeLatestResolved callback that folds a
// multi-version store's newest values into the given state database.
// Anchored chains materialise to absolute values; a balance that was only
// ever delta-written resolves to its accumulated delta, applied on top of
// the base balance in st. Shared by the chain driver's end-of-chain fold
// and the checkpoint worker's snapshot materialisation.
func foldResolvedInto(st *account.StateDB) func(k StateKey, v stateVal, anchored bool) bool {
	return func(k StateKey, v stateVal, anchored bool) bool {
		switch {
		case k.Kind == kindBalance && !anchored:
			st.AddBalance(k.Addr, v.i64)
		case k.Kind == kindBalance:
			st.AddBalance(k.Addr, v.i64-st.GetBalance(k.Addr))
		case k.Kind == kindNonce:
			st.SetNonce(k.Addr, v.u64)
		case k.Kind == kindCode:
			st.SetCode(k.Addr, v.bytes)
		case k.Kind == kindStorage:
			st.SetStorage(k.Addr, k.Slot, v.u64)
		}
		return true
	}
}

// overlayWrites converts an overlay's buffered values into the
// multi-version store's write-set representation: absolute values as Put
// versions, accumulated balance deltas as DeltaAdd versions that merge with
// — rather than supersede — the chain below them.
func overlayWrites(o *overlay) map[StateKey]mvstore.Write[stateVal] {
	w := make(map[StateKey]mvstore.Write[stateVal],
		len(o.balances)+len(o.deltas)+len(o.nonces)+len(o.codes)+len(o.storage))
	for a, v := range o.balances {
		w[StateKey{Kind: kindBalance, Addr: a}] = mvstore.Write[stateVal]{Kind: mvstore.Put, Val: stateVal{i64: v}}
	}
	for a, d := range o.deltas {
		w[StateKey{Kind: kindBalance, Addr: a}] = mvstore.Write[stateVal]{Kind: mvstore.DeltaAdd, Val: stateVal{i64: d}}
	}
	for a, n := range o.nonces {
		w[StateKey{Kind: kindNonce, Addr: a}] = mvstore.Write[stateVal]{Kind: mvstore.Put, Val: stateVal{u64: n}}
	}
	for a, c := range o.codes {
		w[StateKey{Kind: kindCode, Addr: a}] = mvstore.Write[stateVal]{Kind: mvstore.Put, Val: stateVal{bytes: c}}
	}
	for sk, v := range o.storage {
		w[StateKey{Kind: kindStorage, Addr: sk.Addr, Slot: sk.Slot}] = mvstore.Write[stateVal]{Kind: mvstore.Put, Val: stateVal{u64: v}}
	}
	return w
}

// flowShopMakespan is the classic two-machine flow-shop completion-time
// recurrence with a fixed job order: machine 1 (speculative execution)
// processes blocks back to back; machine 2 (validation/re-execution) starts
// block b as soon as both machine 1 finished b and machine 2 finished b-1.
// This is exactly the pipelined chain's schedule length under the paper's
// unit-cost model (or gas-weighted costs): the ordered work of block b
// overlaps the speculative execution of block b+1.
func flowShopMakespan[T int | uint64](p1, p2 []T) T {
	var c1, c2 T
	for i := range p1 {
		c1 += p1[i]
		if c1 > c2 {
			c2 = c1
		}
		c2 += p2[i]
	}
	return c2
}
