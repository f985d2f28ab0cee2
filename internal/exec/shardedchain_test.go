package exec

import (
	"errors"
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
	"txconcur/internal/exec/testutil"
)

// TestShardedChainSerialEquivalenceAllProfiles: the pipelined sharded
// engine must reproduce the sequential chain root and receipts on every
// account-model chainsim profile, for shard counts {1, 2, 4, 8}, in both
// key-level and operation-level mode — the acceptance criterion of the
// E10 experiment.
func TestShardedChainSerialEquivalenceAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("long: all profiles x shard counts x modes")
	}
	for _, p := range shardedEquivalenceProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			pre, blocks, err := chainsim.GenerateAccountChain(p, 6, 11)
			if err != nil {
				t.Fatal(err)
			}
			seq := testutil.ReplaySequential(t, pre, blocks)
			for _, shards := range []int{1, 2, 4, 8} {
				for _, op := range []bool{false, true} {
					cr, css, err := Sharded{Workers: 8, Shards: shards, OpLevel: op, Depth: 2}.
						ExecuteChain(pre.Copy(), blocks)
					if err != nil {
						t.Fatalf("shards=%d op=%v: %v", shards, op, err)
					}
					if cr.Root != seq.Root() {
						t.Fatalf("shards=%d op=%v: chain root mismatch (stats %+v)", shards, op, css)
					}
					seq.RequireChain(t, p.Name, cr.Root, cr.Receipts)
					if cr.Stats.Txs > 0 && cr.Stats.ParUnits <= 0 {
						t.Fatalf("shards=%d op=%v: non-positive ParUnits %d", shards, op, cr.Stats.ParUnits)
					}
					if len(css.Blocks) != len(blocks) {
						t.Fatalf("shards=%d op=%v: %d block stats, want %d",
							shards, op, len(css.Blocks), len(blocks))
					}
				}
			}
		})
	}
}

// TestShardedChainFuzzFixtures replays the conflict-heavy fuzz chains —
// nonce chains, shared-counter contracts, blind writers and readers —
// through ExecuteChain at several shard counts and depths.
func TestShardedChainFuzzFixtures(t *testing.T) {
	for _, tc := range []struct {
		seed                          int64
		users, hotN, txn, hotPct, spl uint8
	}{
		{7, 24, 3, 75, 85, 2},
		{42, 9, 2, 60, 70, 1},
		{3, 20, 3, 79, 50, 0},
	} {
		pre, blocks := fuzzChain(tc.seed, tc.users, tc.hotN, tc.txn, tc.hotPct, tc.spl)
		seq := testutil.ReplaySequential(t, pre, blocks)
		for _, shards := range []int{1, 2, 3, 8} {
			for _, depth := range []int{1, 3} {
				for _, op := range []bool{false, true} {
					cr, _, err := Sharded{Workers: 6, Shards: shards, OpLevel: op, Depth: depth}.
						ExecuteChain(pre.Copy(), blocks)
					if err != nil {
						t.Fatalf("seed=%d shards=%d depth=%d op=%v: %v", tc.seed, shards, depth, op, err)
					}
					seq.RequireChain(t, "chain", cr.Root, cr.Receipts)
				}
			}
		}
	}
}

// TestShardedChainValidation: worker validation and the empty chain on
// several shards.
func TestShardedChainValidation(t *testing.T) {
	checkChainEdgeCases(t, 2)
}

// TestPipelineEdgeCases covers the degenerate inputs of the single-shard
// pipeline: zero workers and the empty chain.
func TestPipelineEdgeCases(t *testing.T) {
	checkChainEdgeCases(t, 1)
}

// checkChainEdgeCases: zero workers is rejected with ErrNoWorkers, and the
// empty chain yields no blocks, neutral stats and an unchanged state.
func checkChainEdgeCases(t *testing.T, shards int) {
	t.Helper()
	st := account.NewStateDB()
	if _, _, err := (Sharded{Workers: 0, Shards: shards}).ExecuteChain(st, nil); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("shards=%d workers=0: err = %v, want ErrNoWorkers", shards, err)
	}
	cr, css, err := (Sharded{Workers: 2, Shards: shards}).ExecuteChain(st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cr.Receipts) != 0 || len(css.Blocks) != 0 {
		t.Fatalf("shards=%d: empty chain produced %d blocks", shards, len(cr.Receipts))
	}
	if cr.Stats.Txs != 0 || cr.Stats.ParUnits != 0 || cr.Stats.Speedup != 1 {
		t.Fatalf("shards=%d: empty chain stats = %+v", shards, cr.Stats)
	}
	if cr.Root != st.Root() {
		t.Fatalf("shards=%d: empty chain must not change the state", shards)
	}
}

// TestPipelineSerialEquivalenceAllProfiles is the single-shard pipeline's
// regression suite: on every account-model chainsim profile, a 12-block
// chain executed at pipeline depths 1 and 3 must produce receipts and a
// final state root identical to the Sequential engine. (UTXO profiles have
// no account state for the engine to run on and are exercised by
// GroupedUTXO instead.)
func TestPipelineSerialEquivalenceAllProfiles(t *testing.T) {
	for _, p := range chainsim.AllProfiles() {
		if p.Model != chainsim.Account {
			continue
		}
		pre, blocks, err := chainsim.GenerateAccountChain(p, 12, 11)
		if err != nil {
			t.Fatal(err)
		}
		seq := testutil.ReplaySequential(t, pre, blocks)
		for _, depth := range []int{1, 3} {
			cr, _, err := Sharded{Workers: 8, Shards: 1, Depth: depth}.ExecuteChain(pre.Copy(), blocks)
			if err != nil {
				t.Fatalf("%s depth %d: %v", p.Name, depth, err)
			}
			seq.RequireChain(t, p.Name, cr.Root, cr.Receipts)
			if cr.Stats.Txs > 0 && cr.Stats.ParUnits <= 0 {
				t.Fatalf("%s depth %d: non-positive ParUnits %d", p.Name, depth, cr.Stats.ParUnits)
			}
		}
	}
}

// TestPipelineSingleBlock: a one-block chain through the pipeline — the
// chain driver on a single shard, as experiments E7, E8 and E12 run it —
// must match Sequential from the same pre-state, for every block of a
// generated history (using the generator's own pre-states, as the
// per-block engines' tests do).
func TestPipelineSingleBlock(t *testing.T) {
	g, err := chainsim.NewAcctGen(chainsim.EthereumProfile(), 10, 7)
	if err != nil {
		t.Fatal(err)
	}
	for {
		pre := g.Chain().State().Copy()
		blk, _, ok, err := g.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		seq, err := Sequential(pre.Copy(), blk)
		if err != nil {
			t.Fatal(err)
		}
		cr, _, err := Sharded{Workers: 8, Shards: 1}.ExecuteChain(pre.Copy(), []*account.Block{blk})
		if err != nil {
			t.Fatal(err)
		}
		if cr.Root != seq.Root {
			t.Fatalf("block %d: single-shard chain root mismatch", blk.Height)
		}
		for i, want := range seq.Receipts {
			if got := cr.Receipts[0][i]; got.GasUsed != want.GasUsed || got.Status != want.Status {
				t.Fatalf("block %d tx %d: receipt mismatch", blk.Height, i)
			}
		}
	}
}

// TestPipelineCrossBlockConflicts drives the cross-block staleness path of
// the single-shard pipeline directly: consecutive blocks reusing the same
// senders force phase-1 nonce failures and stale balance reads, all of
// which must be repaired by re-execution, never silently committed.
func TestPipelineCrossBlockConflicts(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.EthereumClassicProfile(), 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	seq := testutil.ReplaySequential(t, pre, blocks)

	cr, _, err := Sharded{Workers: 4, Shards: 1, Depth: 2}.ExecuteChain(pre.Copy(), blocks)
	if err != nil {
		t.Fatal(err)
	}
	seq.RequireChain(t, "single-shard chain", cr.Root, cr.Receipts)
	// The workloads reuse senders across blocks, so at least one block must
	// have taken the re-execution path — otherwise this test exercises
	// nothing.
	total := 0
	for _, bs := range cr.Blocks {
		total += bs.Reexecuted
	}
	if total == 0 {
		t.Fatal("expected some cross-block re-executions in this workload")
	}
	if cr.Stats.Retries != total {
		t.Fatalf("Stats.Retries = %d, want %d", cr.Stats.Retries, total)
	}
}

// TestShardedChainOverlapBound: the chain makespan must never exceed the
// sum of the per-block engine's schedule lengths (pipelining can only
// help), and must still respect the core budget.
func TestShardedChainOverlapBound(t *testing.T) {
	pre, blocks, err := chainsim.GenerateAccountChain(chainsim.ShardUniformProfile(), 8, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []bool{false, true} {
		e := Sharded{Workers: 8, Shards: 4, OpLevel: op, Depth: 2}
		cr, _, err := e.ExecuteChain(pre.Copy(), blocks)
		if err != nil {
			t.Fatal(err)
		}
		var perBlock int
		work := pre.Copy()
		for _, blk := range blocks {
			res, _, err := e.ExecuteSharded(work, blk)
			if err != nil {
				t.Fatal(err)
			}
			perBlock += res.Stats.ParUnits
		}
		if cr.Stats.ParUnits > perBlock {
			t.Fatalf("op=%v: chain makespan %d exceeds per-block sum %d",
				op, cr.Stats.ParUnits, perBlock)
		}
		if cr.Stats.Speedup > float64(e.Workers)+1e-9 {
			t.Fatalf("op=%v: speed-up %.2f exceeds the %d-worker budget",
				op, cr.Stats.Speedup, e.Workers)
		}
	}
}

// TestFlowShopMakespan pins the pipelined schedule-length recurrence.
func TestFlowShopMakespan(t *testing.T) {
	cases := []struct {
		p1, p2 []int
		want   int
	}{
		{nil, nil, 0},
		{[]int{5}, []int{2}, 7},
		// Ordered work fully hidden behind the next block's execution.
		{[]int{5, 5, 5}, []int{1, 1, 1}, 16},
		// Ordered work dominates: machine 2 becomes the bottleneck.
		{[]int{2, 2, 2}, []int{5, 5, 5}, 17},
	}
	for _, c := range cases {
		if got := flowShopMakespan(c.p1, c.p2); got != c.want {
			t.Fatalf("flowShopMakespan(%v, %v) = %d, want %d", c.p1, c.p2, got, c.want)
		}
	}
}
