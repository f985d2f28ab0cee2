package exec

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/core"
	"txconcur/internal/types"
)

// Sharded is a multi-shard execution engine. The paper's §II-B singles out
// Zilliqa-style network sharding as a scaling route whose "major limitation
// ... is that it does not support cross-shard transactions"; package core's
// ShardingAnalysis (E6) measures how many transactions that limitation
// forfeits. This engine closes the gap: the account state is partitioned
// into per-shard state views keyed by the engine's shard map — a pluggable
// core.ShardMap whose baseline is static FNV-1a over the sender address
// (core.StaticShardMap / core.ShardOf), and whose adaptive variant
// (internal/heat.AdaptiveMap) learns conflict heat across blocks and
// rebalances between them — each shard runs its intra-shard sub-block as
// optimistic execution on its own workers followed by in-order validation
// (only a transaction that read what an earlier one wrote re-executes, the
// read-after-write rule), and — unlike Zilliqa — cross-shard transactions
// are *handled*, by a deterministic two-phase cross-shard commit:
//
//   - Phase 1 (parallel, per shard): every transaction executes on a
//     recording overlay against the pinned pre-block state. Transactions
//     whose access set stays inside their home shard are committed
//     shard-locally, in block order: a transaction keeps its phase-1
//     result unless it read a key an earlier intra-shard transaction
//     wrote, and otherwise re-executes against the shard's staged prefix.
//     Transactions that touched foreign-shard state — or whose phase-1
//     access set overlaps an earlier cross-shard transaction's writes —
//     stage their read/write sets for phase 2 instead.
//   - Phase 2 (deterministic, in block order): the cross-shard commit
//     validates each staged transaction's reads against the per-shard
//     commits and the earlier cross-shard writes. Runs of clean staged
//     transactions commit as one batched group (delta-only cross traffic —
//     hot-key deposits — commutes and batches maximally); stale or
//     never-staged ones re-execute against the merged view (every shard's
//     committed sub-block plus the cross-shard accumulator) in *parallel
//     waves* of key-disjoint transactions with in-order commit validation,
//     so the merge's sequential tail is ceil(wave/n) instead of one unit
//     per abort.
//
// Soundness follows the same discipline as Speculative: nothing touches st
// until every result is validated. Order-sensitive overlaps that the merge
// cannot reproduce (a cross-shard write a later intra-shard transaction
// should have observed, or a merged-view read that folded a later
// sub-block write) no longer force a whole-block sequential fallback:
// the engine records the earliest affected block position and the final
// composition pass re-executes only that suffix against its exact
// sequential prefix (ShardStats.Repairs). The regression and fuzz tests
// enforce receipt and state-root equality with Sequential on every profile,
// shard count, and conflict mode.
type Sharded struct {
	// Workers is the total core count n. Each shard's pipeline is credited
	// ⌈n/s⌉ logical workers; since s·⌈n/s⌉ can exceed n when s does not
	// divide n, the schedule-length accounting is additionally floored by
	// the total core budget (all intra-shard work over n cores), so the
	// reported speed-up never exceeds what n cores could deliver.
	Workers int
	// Shards is the committee count s; values below 1 mean 1. A single
	// shard never stages a cross-shard transaction: per block it is
	// optimistic execution plus in-order validation, and its ExecuteChain
	// is the Octopus-style pipelined chain that experiments E7, E8 and E12
	// report as "Pipeline".
	Shards int
	// OpLevel enables operation-level conflict refinement: balance credits
	// and debits are recorded as commutative deltas. Deltas merge within a
	// shard's sub-block and across shards in the cross-shard commit, so
	// blind credits never abort each other no matter which shard staged
	// them.
	OpLevel bool
	// SequentialMerge caps the cross-shard merge's re-execution waves and
	// staged commit groups at one transaction, restoring the strictly
	// sequential merge the first version of this engine used. Results are
	// identical; only the schedule accounting (and wall time) change.
	// BenchmarkShardedMerge uses it to isolate what the parallel merge
	// buys.
	SequentialMerge bool
	// Depth is the pipeline lookahead of ExecuteChain in blocks: phase 1
	// may run up to Depth blocks ahead of the cross-shard commit, against
	// per-shard snapshots pinned at a deterministic fixed lag — block i
	// speculates at timestamp max(0, i−Depth−1), the newest one the
	// channel backpressure guarantees committed — so re-execution counts
	// and schedule stats depend only on the workload, never on scheduler
	// timing. Deeper lookahead buys more overlap at the price of staler
	// snapshots. 0 means 1. Ignored by the per-block
	// Execute/ExecuteSharded.
	Depth int
	// Map overrides the address→shard assignment. nil means the static
	// FNV-1a baseline over Shards committees (core.StaticShardMap); when
	// set, its Shards() wins over the Shards field. A core.AdaptiveShardMap
	// is additionally fed every committed block's access/conflict heat
	// (ObserveBlock, in block order) and — in ExecuteChain, when
	// RebalanceEvery > 0 — rebalanced at epoch boundaries with the moved
	// addresses' state migrated between the per-shard stores. Adaptive maps
	// are stateful: reusing one across runs carries its learned profile
	// over, which is the intended chain-level usage.
	Map core.ShardMap
	// RebalanceEvery is ExecuteChain's epoch length in blocks: after every
	// RebalanceEvery committed blocks the pipeline drains, the adaptive map
	// rebalances, and the moved addresses' state migrates to its new home
	// shard before the next epoch starts. 0 disables rebalancing (the map
	// still observes). Ignored unless Map is a core.AdaptiveShardMap.
	RebalanceEvery int
	// Cost overrides the per-transaction schedule weight used for the
	// GasSeq/GasPar accounting (intra spreads, bins, merge waves, and
	// repairs alike); nil charges the receipt's gas.
	Cost CostModel
	// Checkpoint, if non-nil with a positive Interval, receives async
	// snapshots of committed chain state every Interval blocks from
	// ExecuteChain/ExecuteChainStream (see CheckpointSink). The snapshot
	// worker never blocks the commit path: busy intervals are skipped and
	// counted in ChainShardStats.CheckpointsSkipped. Ignored by the
	// per-block Execute/ExecuteSharded.
	Checkpoint CheckpointSink
	// Backend, if non-nil, is the disk-backed base layer shared by every
	// shard's version cache: the chain drivers evict cold, fully resolved
	// keys beyond CacheBudget per shard into it after each GC pass, and
	// cache misses read through to it before falling back to the pre-chain
	// state. A single shared base makes epoch migrations free for evicted
	// keys — any shard reads the same base entry. nil keeps the historical
	// all-RAM behaviour. Ignored by the per-block Execute/ExecuteSharded,
	// which hold at most one block of state.
	Backend StateBackend
	// CacheBudget is the target resident key count of each shard's version
	// cache when Backend is set: eviction trims cold keys down to it (0
	// evicts every cold key each pass). Ignored without a Backend.
	CacheBudget int
}

// shardMap resolves the effective assignment: the configured Map, or the
// static FNV baseline over the Shards field.
func (e Sharded) shardMap() core.ShardMap {
	if e.Map != nil {
		return e.Map
	}
	s := e.Shards
	if s < 1 {
		s = 1
	}
	return core.StaticShardMap(s)
}

// conflictHeatSource is the optional heat signal of a shard map
// (heat.AdaptiveMap implements it): the merge gives predicted-conflicting
// transactions their own re-execution wave instead of trusting a stale
// phase-1 prediction.
type conflictHeatSource interface {
	ConflictHot(a types.Address) bool
}

// ShardStats describes the sharded engine's work on one block, beyond the
// generic Stats.
type ShardStats struct {
	// Shards is the committee count actually used.
	Shards int
	// Intra is the number of transactions classified intra-shard and
	// committed shard-locally.
	Intra int
	// Cross is the number of transactions classified for the cross-shard
	// commit (foreign-shard touches, ordering overlaps with cross-shard
	// writes, and phase-1 failures rerouted by their shard). Intra+Cross
	// always equals the block's transaction count.
	Cross int
	// CrossAborts counts cross-shard transactions whose staged phase-1
	// result failed validation (or was never staged) and had to re-execute:
	// in the merge's waves, or — past the repair point — in the composition
	// pass. Always ≤ Cross.
	CrossAborts int
	// BatchedStage is the number of staged cross-shard transactions
	// committed as part of a multi-transaction commuting group (delta-only
	// runs batch maximally; a group of one is not counted).
	BatchedStage int
	// MergeWaves is the number of parallel re-execution waves the merge
	// ran; MergeUnits is the merge's schedule length in time units —
	// ⌈wave/n⌉ per wave plus one unit per in-order commit repair — which
	// replaces the one-unit-per-abort sequential tail of the strictly
	// sequential merge.
	MergeWaves int
	MergeUnits int
	// Repairs is the number of transactions re-executed by the
	// per-transaction repair pass: when the merge detects an ordering
	// overlap it cannot reproduce, the composition pass re-runs only the
	// block suffix from the earliest affected position, each against its
	// exact sequential prefix. 0 on clean blocks.
	Repairs int
	// Fallback reports that the repair suffix was the whole block — the
	// per-transaction repair was exhausted and the block was effectively
	// re-executed sequentially. Implies Repairs == Intra+Cross.
	Fallback bool
	// PerShardTxs is the phase-1 transaction count per home shard.
	PerShardTxs []int
}

// mergedState reads through every shard's committed view, dispatching each
// key to the view of the shard that owns its address under the block's
// shard map. Phase 2 layers the cross-shard accumulator over it; phase 1
// of ExecuteChain uses it over pinned per-shard snapshots. Writes panic:
// all execution goes through recording overlays.
type mergedState struct {
	m     core.ShardMap
	views []account.State
}

var _ account.State = (*mergedState)(nil)

func (s *mergedState) view(a types.Address) account.State {
	return s.views[s.m.Shard(a)]
}

func (s *mergedState) GetBalance(a types.Address) int64 { return s.view(a).GetBalance(a) }
func (s *mergedState) GetNonce(a types.Address) uint64  { return s.view(a).GetNonce(a) }
func (s *mergedState) GetCode(a types.Address) []byte   { return s.view(a).GetCode(a) }
func (s *mergedState) GetStorage(a types.Address, slot uint64) uint64 {
	return s.view(a).GetStorage(a, slot)
}
func (s *mergedState) Snapshot() int                   { return 0 }
func (s *mergedState) RevertToSnapshot(int)            {}
func (s *mergedState) AddBalance(types.Address, int64) { panic("exec: write to merged view") }
func (s *mergedState) SubBalance(types.Address, int64) { panic("exec: write to merged view") }
func (s *mergedState) SetNonce(types.Address, uint64)  { panic("exec: write to merged view") }
func (s *mergedState) SetCode(types.Address, []byte)   { panic("exec: write to merged view") }
func (s *mergedState) SetStorage(types.Address, uint64, uint64) {
	panic("exec: write to merged view")
}

// Execute runs the block on st (mutated on success), engine-interface
// parity with the other executors.
func (e Sharded) Execute(st *account.StateDB, blk *account.Block) (*Result, error) {
	res, _, err := e.ExecuteSharded(st, blk)
	return res, err
}

// touchesForeign reports whether the overlay's access set leaves the home
// shard under the block's shard map.
func touchesForeign(o *overlay, home int, m core.ShardMap) bool {
	//txlint:ordered m.Shard is a pure function of the address; the scan returns a constant on the first foreign hit, so any visit order agrees
	for k := range o.reads {
		if m.Shard(k.Addr) != home {
			return true
		}
	}
	//txlint:ordered same pure-predicate constant-return scan as the reads loop
	for k := range o.writes {
		if m.Shard(k.Addr) != home {
			return true
		}
	}
	//txlint:ordered same pure-predicate constant-return scan over delta addresses
	for a := range o.deltas {
		if m.Shard(a) != home {
			return true
		}
	}
	return false
}

// crossWriteIndex is the per-key ordering index of the cross-shard set:
// the smallest block position of a cross transaction that absolutely
// writes (abs) or delta-writes (delta) the key. Missing entries mean "not
// written"; -1 is never stored.
type crossWriteIndex struct {
	abs   map[StateKey]int
	delta map[StateKey]int
}

// noteMinIdx keeps the smallest block position recorded for k — the
// ordering-index primitive of the cross-shard commit.
func noteMinIdx(m map[StateKey]int, k StateKey, i int) {
	if prev, ok := m[k]; !ok || i < prev {
		m[k] = i
	}
}

// shardedSpec carries one block's phase-1 output into phase 2 — built
// inline by ExecuteSharded, and by the speculative stage goroutine (against
// pinned per-shard snapshots) in ExecuteChain.
type shardedSpec struct {
	overlays []*overlay
	p1rcpt   []*account.Receipt
	failed   []bool
	home     []int
	byShard  [][]int
}

// specExec runs phase 1: home-shard assignment by sender (as Zilliqa
// assigns accounts to committees — same-sender nonce chains stay in one
// shard) under the block's shard map, then per-shard speculative
// pipelines, every transaction on its own recording overlay over base.
// base must be safe for concurrent reads, and m must not be rebalanced
// while the stage runs.
func (e Sharded) specExec(base account.State, blk *account.Block, m core.ShardMap, wps int) *shardedSpec {
	x := len(blk.Txs)
	shards := m.Shards()
	sp := &shardedSpec{
		overlays: make([]*overlay, x),
		p1rcpt:   make([]*account.Receipt, x),
		failed:   make([]bool, x),
		home:     make([]int, x),
		byShard:  make([][]int, shards),
	}
	for i, tx := range blk.Txs {
		sp.home[i] = m.Shard(tx.From)
		sp.byShard[sp.home[i]] = append(sp.byShard[sp.home[i]], i)
	}
	var wg sync.WaitGroup
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			idxs := sp.byShard[sh]
			parallelFor(len(idxs), wps, func(j int) {
				i := idxs[j]
				o := newOverlayOp(base, e.OpLevel)
				rcpt, err := procDeferred.ApplyTransaction(o, blk, blk.Txs[i])
				if err != nil {
					// Envelope failure against the pinned state (e.g. a
					// nonce chain): the shard's phase-2 bin re-executes it.
					sp.failed[i] = true
				} else {
					sp.p1rcpt[i] = rcpt
				}
				sp.overlays[i] = o
			})
		}(sh)
	}
	wg.Wait()
	return sp
}

// shardedOutcome is phase 2's result: the final receipts, the block's write
// set composed in block order over the base view (fees not yet credited),
// the sharding counters, and the schedule-length terms the callers fold
// into Stats.
type shardedOutcome struct {
	receipts []*account.Receipt
	acc      *overlay
	ss       *ShardStats
	// obs is the block's heat observation, built only when the engine runs
	// with an adaptive shard map (nil otherwise).
	obs *core.BlockHeat

	// Unit-cost schedule terms. spreadUnits is the phase-1 spread alone
	// (max over shards, floored by the core budget); intraUnits adds the
	// shard-local bins (the per-block engine's phase-1+2a term);
	// mergeUnits and repairs are the cross-shard commit's and the repair
	// pass's sequential-tail contributions.
	spreadUnits, intraUnits, mergeUnits, repairs int
	// Re-execution event counters: binned shard-local re-executions, merge
	// re-executions (wave runs), in-order commit redos, and conflicted
	// (distinct serialised transactions).
	binned, mergeReexecs, redos, conflicted int
	// Gas-weighted counterparts.
	spreadGas, intraGas, mergeGas, repairGas uint64
}

// phase2 classifies the block, commits the per-shard sub-blocks, runs the
// cross-shard merge (batched staged groups, parallel re-execution waves),
// and composes the final block write set in order — re-executing the repair
// suffix when the merge detected an ordering overlap. stale, when non-nil,
// reports keys whose committed value postdates the phase-1 snapshot
// (ExecuteChain's cross-block staleness); phase-1 results reading such keys
// are demoted to failures and re-execute on the true prefix.
func (e Sharded) phase2(base account.State, stale func(StateKey) bool, blk *account.Block,
	sp *shardedSpec, m core.ShardMap, wps int) (*shardedOutcome, error) {
	x := len(blk.Txs)
	shards := m.Shards()
	overlays, failed, p1rcpt := sp.overlays, sp.failed, sp.p1rcpt

	if stale != nil {
		for i, o := range overlays {
			if failed[i] {
				continue
			}
			//txlint:ordered stale() only reads; sole effect is the constant failed[i] set immediately before break
			for k := range o.reads {
				if stale(k) {
					failed[i] = true
					break
				}
			}
		}
	}

	// Classification. A transaction whose phase-1 access set leaves its
	// home shard joins the cross-shard set. Then, to fixpoint: an intra
	// transaction ordered *after* a cross-shard write it touches must be
	// ordered against it, so it joins the cross-shard set too (delta–delta
	// contact commutes and is exempt). The fixpoint uses phase-1 access
	// sets — predictions, not guarantees; divergent re-executions are
	// caught by the commit-time validation below.
	cross := make([]bool, x)
	for i := range cross {
		cross[i] = touchesForeign(overlays[i], sp.home[i], m)
	}
	// The fixpoint is monotone — cross membership only grows and the
	// per-key minima in p1cw only decrease — so the index is maintained
	// incrementally: each reclassified transaction adds its writes once,
	// and the scan repeats until a full pass reclassifies nothing.
	p1cw := crossWriteIndex{abs: make(map[StateKey]int), delta: make(map[StateKey]int)}
	addCrossWrites := func(i int, o *overlay) {
		//txlint:ordered noteMinIdx keeps the per-key minimum with i fixed for the loop; min-reduction commutes
		for k := range o.writes {
			noteMinIdx(p1cw.abs, k, i)
		}
		//txlint:ordered same per-key min-reduction via deltaKey
		for a := range o.deltas {
			noteMinIdx(p1cw.delta, deltaKey(a), i)
		}
	}
	for i, o := range overlays {
		if cross[i] {
			addCrossWrites(i, o)
		}
	}
	orderedAfterCross := func(i int, o *overlay) bool {
		for k := range o.reads {
			if j, ok := p1cw.abs[k]; ok && j < i {
				return true
			}
			if j, ok := p1cw.delta[k]; ok && j < i {
				return true
			}
		}
		for k := range o.writes {
			if j, ok := p1cw.abs[k]; ok && j < i {
				return true
			}
			if j, ok := p1cw.delta[k]; ok && j < i {
				return true
			}
		}
		for a := range o.deltas {
			// Delta–delta commutes across the intra/cross boundary; only
			// an earlier cross *absolute* write forces ordering.
			if j, ok := p1cw.abs[deltaKey(a)]; ok && j < i {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for i, o := range overlays {
			if cross[i] {
				continue
			}
			if orderedAfterCross(i, o) {
				cross[i] = true
				addCrossWrites(i, o)
				changed = true
			}
		}
	}

	// Phase 2a: per-shard in-order commit of the intra-shard sub-blocks,
	// all shards in parallel. In block order, an intra transaction keeps its
	// phase-1 result unless it failed or read a key an earlier intra
	// transaction of its shard wrote — absolutely or as a delta, whether
	// that writer kept its phase-1 result or re-executed — and otherwise
	// re-executes against the shard's staged prefix. Kept results therefore
	// read exactly the shard prefix, so no winner can go stale. A
	// re-execution that leaves the shard — or fails — is handed to the
	// cross-shard commit: the shard prefix is not the sequential prefix, so
	// neither its access set nor its error is authoritative.
	type shardOutcome struct {
		acc    *overlay
		binned int
		gasBin uint64 // gas of the shard-local sequential re-executions
	}
	final := make([]*overlay, x) // committed results, by tx index
	receipts := make([]*account.Receipt, x)
	// reexecuted marks the distinct transactions the engine serialised at
	// least once (shard bin, cross-shard merge, or repair pass) — a bin
	// re-execution rerouted to the cross set and aborted there must not
	// count twice.
	reexecuted := make([]bool, x)
	outcomes := make([]shardOutcome, shards)
	parallelFor(shards, shards, func(sh int) {
		out := &outcomes[sh]
		acc := newOverlayOp(base, e.OpLevel)
		out.acc = acc
		// written holds every key an earlier intra transaction of this shard
		// wrote: a later phase-1 read of it missed that write.
		written := make(map[StateKey]struct{})
		commit := func(i int, o *overlay, rcpt *account.Receipt) {
			o.applyTo(acc)
			final[i] = o
			receipts[i] = rcpt
			for k := range o.writes {
				written[k] = struct{}{}
			}
			for a := range o.deltas {
				written[deltaKey(a)] = struct{}{}
			}
		}
		for _, i := range sp.byShard[sh] {
			if cross[i] {
				continue
			}
			o := overlays[i]
			ok := !failed[i]
			if ok {
				for k := range o.reads {
					if _, hit := written[k]; hit {
						ok = false
						break
					}
				}
			}
			if ok {
				commit(i, o, p1rcpt[i])
				continue
			}
			out.binned++
			reexecuted[i] = true
			ro := newOverlayOp(acc, e.OpLevel)
			rcpt, err := procDeferred.ApplyTransaction(ro, blk, blk.Txs[i])
			if err != nil || touchesForeign(ro, sh, m) {
				cross[i] = true
				continue
			}
			out.gasBin += costOf(e.Cost, blk.Txs[i], rcpt)
			commit(i, ro, rcpt)
		}
	})
	// repairFrom is the earliest block position whose committed result is
	// suspect: everything at or after it is re-executed by the composition
	// pass against its exact sequential prefix. x means "no repair".
	repairFrom := x
	bump := func(p int) {
		if p < repairFrom {
			repairFrom = p
		}
	}

	// Intra touch index, for ordering the cross-shard set against the
	// committed sub-blocks: per key, the smallest intra writer (reads of a
	// staged cross transaction must not postdate it) and the full ascending
	// position lists of intra readers / absolute writers / delta writers.
	// The lists bound the repair suffix precisely: when a cross-shard write
	// at j overlaps later intra results, only the *first affected* intra
	// position — not j+1 — starts the re-run.
	minIntraWrite := make(map[StateKey]int)
	intraReads := make(map[StateKey][]int)
	intraAbs := make(map[StateKey][]int)
	intraDeltas := make(map[StateKey][]int)
	for i, f := range final {
		if f == nil {
			continue
		}
		for k := range f.reads {
			intraReads[k] = append(intraReads[k], i)
		}
		//txlint:ordered per-key min and ascending-position append with i fixed; distinct keys, commuting updates
		for k := range f.writes {
			noteMinIdx(minIntraWrite, k, i)
			intraAbs[k] = append(intraAbs[k], i)
		}
		//txlint:ordered same commuting per-key min and append via deltaKey
		for a := range f.deltas {
			k := deltaKey(a)
			noteMinIdx(minIntraWrite, k, i)
			intraDeltas[k] = append(intraDeltas[k], i)
		}
	}
	// firstAfter returns the smallest position in the ascending list
	// strictly greater than j, or -1; lastOf the largest entry.
	firstAfter := func(list []int, j int) int {
		lo := sort.SearchInts(list, j+1)
		if lo == len(list) {
			return -1
		}
		return list[lo]
	}
	lastOf := func(list []int) int {
		if len(list) == 0 {
			return -1
		}
		return list[len(list)-1]
	}

	// Phase 2b: deterministic cross-shard commit, in block order, over the
	// merged view (every shard's committed sub-block read through
	// non-recording overlay readers) plus the cross-shard accumulator.
	merged := &mergedState{m: m, views: make([]account.State, shards)}
	for sh := range merged.views {
		merged.views[sh] = outcomes[sh].acc.reader()
	}
	accX := newOverlayOp(merged, e.OpLevel)
	cw := crossWriteIndex{abs: make(map[StateKey]int), delta: make(map[StateKey]int)}
	crossIdx := make([]int, 0, x)
	for j := 0; j < x; j++ {
		if cross[j] {
			crossIdx = append(crossIdx, j)
		}
	}
	crossN := len(crossIdx)
	ss := &ShardStats{
		Shards: shards, Cross: crossN, Intra: x - crossN,
		PerShardTxs: make([]int, shards),
	}
	for sh := range sp.byShard {
		ss.PerShardTxs[sh] = len(sp.byShard[sh])
	}
	out := &shardedOutcome{receipts: receipts, ss: ss}

	maxWave := e.Workers
	if e.SequentialMerge || maxWave < 1 {
		maxWave = 1
	}

	// Heat-aware wave ordering: when the shard map carries a learned
	// conflict profile, no two transactions touching the *same*
	// conflict-hot address share a wave — the second one is cut off so it
	// leads the next wave, executing against the first one's committed
	// writes instead of betting on a phase-1 prediction. Predictions are
	// exactly wrong on hot addresses whose transactions failed phase 1
	// outright (a sweep bot's nonce chain: the failed overlays predict
	// almost nothing, so the disjointness check waves the whole chain
	// together and every member past the first redoes sequentially at its
	// commit point); scheduling each hot community's next transaction into
	// the earliest *following* wave converts those redo units back into
	// wave-parallel ones. Transactions over distinct hot communities — four
	// bots' chains interleaved — still share waves freely.
	hs, _ := e.Map.(conflictHeatSource)
	hotAddrsOf := func(o *overlay) []types.Address {
		if hs == nil {
			return nil
		}
		var out []types.Address
		seen := func(a types.Address) bool {
			for _, b := range out {
				if a == b {
					return true
				}
			}
			return false
		}
		//txlint:ordered collects a deduplicated set of hot addresses; consumers only test membership, never order
		for k := range o.reads {
			if hs.ConflictHot(k.Addr) && !seen(k.Addr) {
				out = append(out, k.Addr)
			}
		}
		//txlint:ordered same membership-set collection as the reads loop
		for k := range o.writes {
			if hs.ConflictHot(k.Addr) && !seen(k.Addr) {
				out = append(out, k.Addr)
			}
		}
		//txlint:ordered same membership-set collection over delta addresses
		for a := range o.deltas {
			if hs.ConflictHot(a) && !seen(a) {
				out = append(out, a)
			}
		}
		return out
	}

	// validStaged reports whether j's phase-1 result is the sequential
	// result: every read must predate both the intra commits and the
	// earlier cross-shard writes. (Blind deltas carry no reads, so
	// op-level hot-key credits validate vacuously — they commute with
	// everything staged so far.)
	validStaged := func(j int) bool {
		if failed[j] || final[j] != nil || p1rcpt[j] == nil {
			return false
		}
		o := overlays[j]
		for k := range o.reads {
			if i, ok := minIntraWrite[k]; ok && i < j {
				return false
			}
			if _, ok := cw.abs[k]; ok {
				return false
			}
			if _, ok := cw.delta[k]; ok {
				return false
			}
		}
		return true
	}
	// commitCross records j's committed writes in the cross-write index and
	// runs the ordering checks against later intra results: a cross write a
	// later intra transaction read (that reader is stale), or one a later
	// intra write supersedes (the merged view would show the wrong value to
	// cross readers after that writer), bounds the repair suffix at the
	// *first affected* intra position — j's own result stands, and
	// everything from the first stale or superseding intra result on
	// re-executes against its exact prefix. Delta–delta contact commutes
	// and is exempt.
	bumpAffected := func(j int, list []int) {
		if i := firstAfter(list, j); i >= 0 {
			bump(i)
		}
	}
	commitCross := func(j int, f *overlay) {
		//txlint:ordered noteMinIdx and bumpAffected are per-key min-reductions of the repair bound; they commute
		for k := range f.writes {
			noteMinIdx(cw.abs, k, j)
			bumpAffected(j, intraReads[k])
			bumpAffected(j, intraAbs[k])
			bumpAffected(j, intraDeltas[k])
		}
		//txlint:ordered same commuting min-reductions via deltaKey
		for a := range f.deltas {
			k := deltaKey(a)
			noteMinIdx(cw.delta, k, j)
			bumpAffected(j, intraReads[k])
			bumpAffected(j, intraAbs[k])
		}
	}
	// exactReexec re-executes cross transaction j against its exact
	// sequential prefix, composed in block order from the committed
	// results — the per-transaction repair for a merge re-execution whose
	// merged-view reads folded a later sub-block write (or that failed
	// against the merged prefix, where the failure is not authoritative).
	// Everything before j is committed and valid here: any earlier
	// invalidity would have lowered repairFrom below j and stopped the
	// merge first. An envelope failure against the exact prefix therefore
	// *is* authoritative: the block itself is invalid. Repair positions
	// are strictly increasing within the block, so the prefix accumulator
	// advances incrementally instead of being rebuilt per repair.
	var pacc *overlay
	paccPos := 0
	exactReexec := func(j int) (*overlay, *account.Receipt, error) {
		if pacc == nil {
			pacc = newOverlayOp(base, e.OpLevel)
		}
		for ; paccPos < j; paccPos++ {
			if f := final[paccPos]; f != nil {
				f.applyTo(pacc)
			}
		}
		ro := newOverlayOp(pacc, e.OpLevel)
		rcpt, err := procDeferred.ApplyTransaction(ro, blk, blk.Txs[j])
		if err != nil {
			return nil, nil, fmt.Errorf("exec: sharded cross tx %d: %w", j, err)
		}
		return ro, rcpt, nil
	}

	// The staged group buffer: consecutive staged-valid transactions commit
	// as one commuting batch when the next merge step forces a flush.
	var group []int
	flushGroup := func() {
		committed := 0
		for _, j := range group {
			// A mid-flush ordering bump can cut the repair point into the
			// group: members at or past it stay uncommitted (the
			// composition pass re-executes them) and must not count as
			// batched.
			if j >= repairFrom {
				break
			}
			o := overlays[j]
			receipts[j] = p1rcpt[j]
			o.applyTo(accX)
			final[j] = o
			commitCross(j, o)
			committed++
		}
		if committed >= 2 {
			ss.BatchedStage += committed
		}
		group = group[:0]
	}

	p := 0
	for p < len(crossIdx) {
		j := crossIdx[p]
		if j >= repairFrom {
			break
		}
		if validStaged(j) {
			// Group members are validated against the incrementally
			// updated cross-write index only at flush time below; to keep
			// the in-group validation exact, flush-time commitCross runs
			// per member, and validStaged here sees cw as of the last
			// flush. A member whose reads hit an earlier member's writes
			// must not batch — close the group and revalidate.
			hit := false
			o := overlays[j]
			for _, g := range group {
				go_ := overlays[g]
				for k := range o.reads {
					if _, w := go_.writes[k]; w {
						hit = true
					}
					if k.Kind == kindBalance {
						if _, d := go_.deltas[k.Addr]; d {
							hit = true
						}
					}
				}
				if hit {
					break
				}
			}
			if !hit {
				group = append(group, j)
				if e.SequentialMerge {
					// One transaction per group: flush immediately so the
					// sequential baseline never batch-commits.
					flushGroup()
				}
				p++
				continue
			}
			flushGroup()
			if j >= repairFrom {
				break
			}
			if validStaged(j) {
				group = append(group, j)
				if e.SequentialMerge {
					flushGroup()
				}
				p++
				continue
			}
			// Flushing exposed a real stale read: fall through to
			// re-execution.
		}
		flushGroup()
		if j >= repairFrom {
			break
		}

		// Build a re-execution wave: the maximal run of consecutive cross
		// transactions that all need re-execution and are pairwise
		// key-disjoint by their phase-1 predictions (delta–delta contact
		// exempt). Predictions can be wrong — the in-order commit below
		// revalidates against the wave's actual writes and redoes
		// mispredicted members sequentially at their commit point.
		wave := []int{j}
		waveW := make(map[StateKey]struct{})
		waveR := make(map[StateKey]struct{})
		noteWave := func(o *overlay) {
			for k := range o.writes {
				waveW[k] = struct{}{}
			}
			for a := range o.deltas {
				waveW[deltaKey(a)] = struct{}{}
			}
			for k := range o.reads {
				waveR[k] = struct{}{}
			}
		}
		noteWave(overlays[j])
		var waveHot map[types.Address]struct{}
		noteHot := func(o *overlay) {
			addrs := hotAddrsOf(o)
			if len(addrs) == 0 {
				return
			}
			if waveHot == nil {
				waveHot = make(map[types.Address]struct{})
			}
			for _, a := range addrs {
				waveHot[a] = struct{}{}
			}
		}
		noteHot(overlays[j])
		for p+len(wave) < len(crossIdx) && len(wave) < maxWave {
			jn := crossIdx[p+len(wave)]
			if jn >= repairFrom || validStaged(jn) {
				break
			}
			hotShared := false
			for _, a := range hotAddrsOf(overlays[jn]) {
				if _, ok := waveHot[a]; ok {
					hotShared = true
					break
				}
			}
			if hotShared {
				// A hot community already has a member in this wave; its
				// next transaction leads the following wave instead.
				break
			}
			o := overlays[jn]
			indep := true
			for k := range o.reads {
				if _, w := waveW[k]; w {
					indep = false
					break
				}
			}
			if indep {
				for k := range o.writes {
					_, w := waveW[k]
					_, r := waveR[k]
					if w || r {
						indep = false
						break
					}
				}
			}
			if indep {
				//txlint:ordered membership probes only; sole effect is the constant indep=false set immediately before break
				for a := range o.deltas {
					k := deltaKey(a)
					// Delta–delta commutes; a delta against a wave
					// member's read or absolute write does not.
					if _, r := waveR[k]; r {
						indep = false
						break
					}
					if waveAbsWrite(waveW, wave, overlays, k) {
						indep = false
						break
					}
				}
			}
			if !indep {
				break
			}
			wave = append(wave, jn)
			noteWave(o)
			noteHot(o)
		}

		// Execute the wave in parallel against the pre-wave merged prefix.
		reader := accX.reader()
		wOverlays := make([]*overlay, len(wave))
		wReceipts := make([]*account.Receipt, len(wave))
		wErr := make([]error, len(wave))
		parallelFor(len(wave), maxWave, func(w int) {
			o := newOverlayOp(reader, e.OpLevel)
			rcpt, err := procDeferred.ApplyTransaction(o, blk, blk.Txs[wave[w]])
			wOverlays[w], wReceipts[w], wErr[w] = o, rcpt, err
		})
		ss.MergeWaves++
		waveUnits := ceilDiv(len(wave), maxWave)
		out.mergeUnits += waveUnits
		ss.MergeUnits += waveUnits
		var waveGas uint64

		// In-order commit with revalidation: a member whose actual reads
		// hit an earlier member's actual writes (or that failed against the
		// pre-wave prefix) re-executes sequentially at its commit point.
		committed := make(map[StateKey]struct{})
		noteCommitted := func(f *overlay) {
			for k := range f.writes {
				committed[k] = struct{}{}
			}
			for a := range f.deltas {
				committed[deltaKey(a)] = struct{}{}
			}
		}
		for w, jw := range wave {
			if jw >= repairFrom {
				break
			}
			f, rcpt := wOverlays[w], wReceipts[w]
			redone := false
			ok := wErr[w] == nil
			if ok {
				for k := range f.reads {
					if _, hit := committed[k]; hit {
						ok = false
						break
					}
				}
			}
			if ok {
				// The merged view folds *whole* sub-blocks; the wave run is
				// prefix-correct only if nothing it read was written by an
				// intra transaction ordered after it.
				//txlint:ordered lastOf reads fixed per-key lists; sole effect is the constant ok=false set immediately before break
				for k := range f.reads {
					if lastOf(intraAbs[k]) > jw || lastOf(intraDeltas[k]) > jw {
						ok = false
						break
					}
				}
			}
			if !ok {
				// Mispredicted independence, an envelope failure against
				// the merged prefix, or a merged read that folded a later
				// sub-block write: repair this transaction at its commit
				// point against the exact sequential prefix — one
				// sequential unit, instead of invalidating the block
				// suffix.
				ro, r2, err := exactReexec(jw)
				if err != nil {
					return nil, err
				}
				f, rcpt = ro, r2
				redone = true
				out.redos++
				out.mergeUnits++
				ss.MergeUnits++
			}
			receipts[jw] = rcpt
			final[jw] = f
			reexecuted[jw] = true
			out.mergeReexecs++
			ss.CrossAborts++
			if redone {
				// Redo gas is a sequential commit-point cost, not part of
				// the wave's parallel spread.
				out.mergeGas += costOf(e.Cost, blk.Txs[jw], rcpt)
			} else {
				waveGas += costOf(e.Cost, blk.Txs[jw], rcpt)
			}
			noteCommitted(f)
			f.applyTo(accX)
			commitCross(jw, f)
		}
		out.mergeGas += ceilDivU(waveGas, uint64(maxWave))
		p += len(wave)
	}
	flushGroup()

	// Composition (and repair) pass: fold every committed result into the
	// block accumulator strictly in block order — absolute values land as
	// writes, deltas as commutative increments, so the in-order fold
	// reproduces the sequential composition (a later intra write correctly
	// supersedes an earlier cross write, unlike a fold that applies whole
	// sub-blocks first). From repairFrom on, results are suspect: each such
	// transaction re-executes against the accumulator, which at its turn
	// holds exactly the sequential prefix — so the repair is authoritative,
	// and an envelope failure here means the block itself is invalid.
	acc := newOverlayOp(base, e.OpLevel)
	for i := 0; i < x; i++ {
		if i < repairFrom && final[i] != nil {
			final[i].applyTo(acc)
			continue
		}
		ro := newOverlayOp(acc, e.OpLevel)
		rcpt, err := procDeferred.ApplyTransaction(ro, blk, blk.Txs[i])
		if err != nil {
			return nil, fmt.Errorf("exec: sharded repair tx %d: %w", i, err)
		}
		receipts[i] = rcpt
		ro.applyTo(acc)
		final[i] = ro
		if cross[i] && !reexecuted[i] {
			ss.CrossAborts++
		}
		reexecuted[i] = true
		out.repairs++
		out.repairGas += costOf(e.Cost, blk.Txs[i], rcpt)
	}
	out.acc = acc
	ss.Repairs = out.repairs
	ss.Fallback = x > 0 && out.repairs == x
	if _, adaptive := e.Map.(core.AdaptiveShardMap); adaptive {
		out.obs = buildBlockHeat(final, reexecuted)
	}

	// Schedule-length accounting, paper unit-cost model: the per-shard
	// pipelines run concurrently (max over shards of phase 1 + bin), the
	// cross-shard merge costs ⌈wave/n⌉ per re-execution wave plus one unit
	// per commit redo (validated applications, like winner applies, are
	// free), and the repair pass appends its suffix sequentially. Because
	// each shard's pipeline is credited ⌈n/s⌉ workers, s·⌈n/s⌉ can exceed
	// n when s does not divide n; the intra stage is therefore floored by
	// the total core-budget bound — all intra work over n cores — so
	// configurations like Workers=2, Shards=8 cannot report an 8-way
	// speed-up.
	var gasTotal, gasBinTotal uint64
	for sh := range sp.byShard {
		n := len(sp.byShard[sh])
		spread, u := 0, 0
		if n > 0 {
			spread = ceilDiv(n, wps)
			u = spread + outcomes[sh].binned
		}
		// Gas counterpart of u: the shard's phase 1 spreads the sub-block's
		// gas over its workers, the shard-local bin re-executes its gas
		// sequentially — the same two terms as the speculative engine's
		// GasPar, per shard.
		var g uint64
		for _, i := range sp.byShard[sh] {
			if receipts[i] != nil {
				g += costOf(e.Cost, blk.Txs[i], receipts[i])
			}
		}
		var spreadGas, shardGas uint64
		if g > 0 {
			spreadGas = ceilDivU(g, uint64(wps))
			shardGas = spreadGas + outcomes[sh].gasBin
		}
		if spread > out.spreadUnits {
			out.spreadUnits = spread
		}
		if u > out.intraUnits {
			out.intraUnits = u
		}
		if spreadGas > out.spreadGas {
			out.spreadGas = spreadGas
		}
		if shardGas > out.intraGas {
			out.intraGas = shardGas
		}
		out.binned += outcomes[sh].binned
		gasTotal += g
		gasBinTotal += outcomes[sh].gasBin
	}
	if x > 0 {
		if floor := ceilDiv(x, e.Workers); floor > out.spreadUnits {
			out.spreadUnits = floor
		}
		if floor := ceilDiv(x+out.binned, e.Workers); floor > out.intraUnits {
			out.intraUnits = floor
		}
	}
	if gasTotal > 0 {
		if floor := ceilDivU(gasTotal, uint64(e.Workers)); floor > out.spreadGas {
			out.spreadGas = floor
		}
	}
	if gasTotal+gasBinTotal > 0 {
		if floor := ceilDivU(gasTotal+gasBinTotal, uint64(e.Workers)); floor > out.intraGas {
			out.intraGas = floor
		}
	}
	for _, r := range reexecuted {
		if r {
			out.conflicted++
		}
	}
	return out, nil
}

// touchedAddrs returns the distinct addresses of the overlay's recorded
// access set, in deterministic (byte) order.
func touchedAddrs(o *overlay) []types.Address {
	set := make(map[types.Address]struct{})
	for k := range o.reads {
		set[k.Addr] = struct{}{}
	}
	for k := range o.writes {
		set[k.Addr] = struct{}{}
	}
	for a := range o.deltas {
		set[a] = struct{}{}
	}
	addrs := make([]types.Address, 0, len(set))
	for a := range set {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	return addrs
}

// buildBlockHeat summarises one committed block for an adaptive shard map:
// per-address access counts over the committed results, per-address
// conflict counts over the serialised (re-executed) transactions, and the
// serialised transactions' address groups — the affinity signal placement
// clusters on.
func buildBlockHeat(final []*overlay, reexecuted []bool) *core.BlockHeat {
	h := &core.BlockHeat{
		Access:   make(map[types.Address]int),
		Conflict: make(map[types.Address]int),
	}
	for i, f := range final {
		if f == nil {
			continue
		}
		addrs := touchedAddrs(f)
		for _, a := range addrs {
			h.Access[a]++
		}
		if reexecuted[i] {
			for _, a := range addrs {
				h.Conflict[a]++
			}
			h.Groups = append(h.Groups, addrs)
		}
	}
	return h
}

// waveAbsWrite reports whether any wave member absolutely wrote k (as
// opposed to delta-writing it): waveW conflates the two kinds, so the
// delta-candidate check walks the members' write sets directly.
func waveAbsWrite(waveW map[StateKey]struct{}, wave []int, overlays []*overlay, k StateKey) bool {
	if _, any := waveW[k]; !any {
		return false
	}
	for _, j := range wave {
		if _, w := overlays[j].writes[k]; w {
			return true
		}
	}
	return false
}

// ExecuteSharded runs the block and additionally returns the sharding
// counters the E9 experiment reports. st is mutated on success. With an
// adaptive Map, the committed block's heat is fed to the map before
// returning, so repeated per-block calls against a shared map accumulate a
// profile exactly as ExecuteChain does.
func (e Sharded) ExecuteSharded(st *account.StateDB, blk *account.Block) (*Result, *ShardStats, error) {
	if e.Workers < 1 {
		return nil, nil, ErrNoWorkers
	}
	m := e.shardMap()
	shards := m.Shards()
	wps := ceilDiv(e.Workers, shards)
	//txlint:clock wall-clock timing metric for reported stats only; committed state never depends on it
	start := time.Now()
	x := len(blk.Txs)

	sp := e.specExec(st, blk, m, wps)
	out, err := e.phase2(st, nil, blk, sp, m, wps)
	if err != nil {
		return nil, nil, err
	}
	out.acc.applyTo(st)
	finalizeBlock(st, blk, out.receipts)
	if am, ok := m.(core.AdaptiveShardMap); ok && out.obs != nil {
		am.ObserveBlock(*out.obs)
	}

	res := &Result{Receipts: out.receipts, Root: st.Root()}
	res.Stats = Stats{
		Workers:    e.Workers,
		Txs:        x,
		Conflicted: out.conflicted,
		SeqUnits:   x,
		ParUnits:   out.intraUnits + out.mergeUnits + out.repairs,
		GasSeq:     costSum(e.Cost, blk.Txs, out.receipts),
		GasPar:     out.intraGas + out.mergeGas + out.repairGas,
		Retries:    out.binned + out.mergeReexecs + out.redos + out.repairs,
		//txlint:clock wall-clock timing metric only
		Wall: time.Since(start),
	}
	res.Stats.finish()
	return res, out.ss, nil
}
