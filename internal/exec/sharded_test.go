package exec

import (
	"testing"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
	"txconcur/internal/core"
	"txconcur/internal/types"
)

// shardedEquivalenceProfiles is the profile set the acceptance criterion
// names: every account-model chainsim profile, including the three
// cross-shard stress profiles.
func shardedEquivalenceProfiles() []chainsim.Profile {
	var ps []chainsim.Profile
	for _, p := range chainsim.AllProfiles() {
		if p.Model == chainsim.Account {
			ps = append(ps, p)
		}
	}
	ps = append(ps, chainsim.HotKeyProfiles()...)
	ps = append(ps, chainsim.ShardProfiles()...)
	ps = append(ps, chainsim.AdaptiveShardProfiles()...)
	return ps
}

// TestShardedSerialEquivalenceAllProfiles: the sharded engine must
// reproduce the sequential state root and receipts on every account-model
// chainsim profile, for shard counts {1, 2, 4, 8}, in both key-level and
// operation-level mode.
func TestShardedSerialEquivalenceAllProfiles(t *testing.T) {
	if testing.Short() {
		t.Skip("long: all profiles x shard counts x modes")
	}
	for _, p := range shardedEquivalenceProfiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			g, err := chainsim.NewAcctGen(p, 6, 11)
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
				for _, shards := range []int{1, 2, 4, 8} {
					for _, op := range []bool{false, true} {
						res, ss, err := Sharded{Workers: 8, Shards: shards, OpLevel: op}.ExecuteSharded(pre.Copy(), blk)
						if err != nil {
							t.Fatalf("block %d shards=%d op=%v: %v", blk.Height, shards, op, err)
						}
						if res.Root != seq.Root {
							t.Fatalf("block %d shards=%d op=%v: root mismatch (stats %+v)", blk.Height, shards, op, ss)
						}
						if len(res.Receipts) != len(seq.Receipts) {
							t.Fatalf("block %d shards=%d op=%v: receipt count", blk.Height, shards, op)
						}
						for i := range res.Receipts {
							a, b := res.Receipts[i], seq.Receipts[i]
							if a.Status != b.Status || a.GasUsed != b.GasUsed || a.TxHash != b.TxHash ||
								len(a.Internal) != len(b.Internal) {
								t.Fatalf("block %d shards=%d op=%v: receipt %d differs", blk.Height, shards, op, i)
							}
						}
						if ss.Cross+ss.Intra != len(blk.Txs) {
							t.Fatalf("block %d shards=%d op=%v: intra %d + cross %d != %d txs",
								blk.Height, shards, op, ss.Intra, ss.Cross, len(blk.Txs))
						}
					}
				}
			}
		})
	}
}

// TestShardedSingleShardMatchesUnsharded: with one shard nothing is ever
// cross-shard, and the engine must agree with Sequential on a nonce-chained,
// conflict-heavy fixture.
func TestShardedSingleShard(t *testing.T) {
	pre, blocks := fuzzChain(42, 9, 2, 60, 70, 1)
	work := pre.Copy()
	for _, blk := range blocks {
		seq, err := Sequential(work.Copy(), blk)
		if err != nil {
			t.Fatal(err)
		}
		res, ss, err := Sharded{Workers: 4, Shards: 1}.ExecuteSharded(work.Copy(), blk)
		if err != nil {
			t.Fatal(err)
		}
		if res.Root != seq.Root {
			t.Fatal("single-shard root mismatch")
		}
		if ss.Cross != 0 {
			t.Fatalf("single shard reported %d cross-shard txs", ss.Cross)
		}
		if _, err := Sequential(work, blk); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedCrossShardTransfer drives one deliberate cross-shard transfer
// and checks classification plus result.
func TestShardedCrossShardTransfer(t *testing.T) {
	const shards = 4
	// Find a sender and a receiver on different shards.
	var from, to types.Address
	for i := uint64(0); ; i++ {
		from = types.AddressFromUint64("xshard/sender", i)
		if core.ShardOf(from, shards) == 0 {
			break
		}
	}
	for i := uint64(0); ; i++ {
		to = types.AddressFromUint64("xshard/receiver", i)
		if core.ShardOf(to, shards) == 1 {
			break
		}
	}
	st := account.NewStateDB()
	st.AddBalance(from, 1_000_000)
	st.DiscardJournal()
	blk := &account.Block{
		Height:   1,
		Time:     1_600_000_000,
		Coinbase: types.AddressFromUint64("xshard/miner", 0),
		Txs: []*account.Transaction{
			{From: from, To: to, Value: 500, Nonce: 0, GasLimit: account.GasTx, GasPrice: 1},
		},
	}
	seq, err := Sequential(st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range []bool{false, true} {
		res, ss, err := Sharded{Workers: 4, Shards: shards, OpLevel: op}.ExecuteSharded(st.Copy(), blk)
		if err != nil {
			t.Fatalf("op=%v: %v", op, err)
		}
		if res.Root != seq.Root {
			t.Fatalf("op=%v: root mismatch", op)
		}
		if ss.Cross != 1 || ss.Intra != 0 {
			t.Fatalf("op=%v: classification = %+v, want 1 cross", op, ss)
		}
		if ss.Fallback {
			t.Fatalf("op=%v: unexpected fallback", op)
		}
		// A single staged transfer validates cleanly: no abort.
		if ss.CrossAborts != 0 {
			t.Fatalf("op=%v: aborts = %d, want 0", op, ss.CrossAborts)
		}
	}
}

// TestShardedHotKeyDeltasCommute: a block of transfers from senders on many
// shards into one hot address. Key-level, the staged results all read the
// hot balance, so all but the first cross transaction abort and re-execute;
// operation-level the credits are blind deltas that merge commutatively —
// zero aborts, no fallback, and the speed-up survives the skew.
func TestShardedHotKeyDeltasCommute(t *testing.T) {
	const shards = 4
	hot := types.AddressFromUint64("hotshard/sink", 3)
	st := account.NewStateDB()
	var txs []*account.Transaction
	for i := uint64(0); i < 48; i++ {
		from := types.AddressFromUint64("hotshard/payer", i)
		st.AddBalance(from, 1_000_000)
		txs = append(txs, &account.Transaction{
			From: from, To: hot, Value: 100 + account.Amount(i),
			Nonce: 0, GasLimit: account.GasTx, GasPrice: 1,
		})
	}
	st.DiscardJournal()
	blk := &account.Block{
		Height: 1, Time: 1_600_000_000,
		Coinbase: types.AddressFromUint64("hotshard/miner", 0),
		Txs:      txs,
	}
	seq, err := Sequential(st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}

	key, ssKey, err := Sharded{Workers: 8, Shards: shards}.ExecuteSharded(st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	op, ssOp, err := Sharded{Workers: 8, Shards: shards, OpLevel: true}.ExecuteSharded(st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	if key.Root != seq.Root || op.Root != seq.Root {
		t.Fatal("hot-key root mismatch")
	}
	if ssOp.Fallback || ssKey.Fallback {
		t.Fatalf("unexpected fallback: key=%+v op=%+v", ssKey, ssOp)
	}
	if ssOp.CrossAborts != 0 {
		t.Fatalf("op-level aborts = %d, want 0 (deltas commute)", ssOp.CrossAborts)
	}
	if ssKey.CrossAborts <= ssOp.CrossAborts {
		t.Fatalf("key-level aborts (%d) not above op-level (%d) on a hot key",
			ssKey.CrossAborts, ssOp.CrossAborts)
	}
	if op.Stats.Speedup <= key.Stats.Speedup {
		t.Fatalf("op-level speed-up %.2f not above key-level %.2f", op.Stats.Speedup, key.Stats.Speedup)
	}
}

// TestShardedWorkerValidation: worker counts below one are rejected before
// any scheduling arithmetic runs.
func TestShardedWorkerValidation(t *testing.T) {
	st := account.NewStateDB()
	blk := &account.Block{Coinbase: types.AddressFromUint64("sv/miner", 0)}
	if _, _, err := (Sharded{Workers: 0, Shards: 4}).ExecuteSharded(st, blk); err == nil {
		t.Fatal("zero workers accepted")
	}
	// Shards <= 0 normalises to one shard rather than failing.
	res, ss, err := (Sharded{Workers: 2, Shards: -3}).ExecuteSharded(st, blk)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Shards != 1 {
		t.Fatalf("normalised shards = %d, want 1", ss.Shards)
	}
	if res.Stats.ParUnits != 0 {
		t.Fatalf("empty block ParUnits = %d", res.Stats.ParUnits)
	}
}

// TestShardedChainReplay replays a multi-block fuzz chain block by block,
// feeding each block's exact pre-state — the pattern E9 uses.
func TestShardedChainReplay(t *testing.T) {
	pre, blocks := fuzzChain(7, 24, 3, 75, 85, 2)
	work := pre.Copy()
	for bi, blk := range blocks {
		seq, err := Sequential(work.Copy(), blk)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{2, 3, 8} {
			for _, op := range []bool{false, true} {
				res, _, err := Sharded{Workers: 6, Shards: shards, OpLevel: op}.ExecuteSharded(work.Copy(), blk)
				if err != nil {
					t.Fatalf("block %d shards=%d op=%v: %v", bi, shards, op, err)
				}
				if res.Root != seq.Root {
					t.Fatalf("block %d shards=%d op=%v: root mismatch", bi, shards, op)
				}
			}
		}
		if _, err := Sequential(work, blk); err != nil {
			t.Fatal(err)
		}
	}
}

// TestShardedGasAccountsForBins: GasPar must include the shard-local bin's
// sequential gas — an earlier version charged only the phase-1 spread and
// overstated gas speed-ups on conflicted workloads — and must price the
// in-order schedule exactly.
func TestShardedGasAccountsForBins(t *testing.T) {
	hot := types.AddressFromUint64("gasbin/sink", 0)
	st := account.NewStateDB()
	var txs []*account.Transaction
	for i := uint64(0); i < 16; i++ {
		from := types.AddressFromUint64("gasbin/payer", i)
		st.AddBalance(from, 1_000_000)
		txs = append(txs, &account.Transaction{
			From: from, To: hot, Value: 100,
			Nonce: 0, GasLimit: account.GasTx, GasPrice: 1,
		})
	}
	st.DiscardJournal()
	blk := &account.Block{
		Height: 1, Time: 1_600_000_000,
		Coinbase: types.AddressFromUint64("gasbin/miner", 0),
		Txs:      txs,
	}
	// Key-level, one shard: every transaction reads and writes the hot
	// balance, so every one after the first read a key an earlier one wrote
	// and re-executes in the shard bin; the sequential gas term must push
	// GasPar past the pure phase-1 spread.
	res, ss, err := Sharded{Workers: 8, Shards: 1}.ExecuteSharded(st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Fallback {
		t.Fatalf("unexpected fallback: %+v", ss)
	}
	spread := (res.Stats.GasSeq + 7) / 8
	if res.Stats.GasPar <= spread {
		t.Fatalf("GasPar %d not above phase-1 spread %d despite %d binned txs",
			res.Stats.GasPar, spread, res.Stats.Conflicted)
	}
	// The in-order schedule: the first transaction keeps its phase-1
	// result, the other x−1 re-execute one after another after the spread.
	x := len(txs)
	if res.Stats.Conflicted != x-1 {
		t.Fatalf("Conflicted = %d, want %d", res.Stats.Conflicted, x-1)
	}
	if want := spread + uint64(x-1)*account.GasTx; res.Stats.GasPar != want {
		t.Fatalf("GasPar = %d, want ⌈GasSeq/8⌉ + (x−1)·GasTx = %d", res.Stats.GasPar, want)
	}
}

// TestShardedSpeedupBoundedByWorkers: with ⌈n/s⌉ workers credited per
// shard, s·⌈n/s⌉ exceeds n for non-dividing configurations; the core-budget
// floor must keep the reported speed-up within the configured core count.
func TestShardedSpeedupBoundedByWorkers(t *testing.T) {
	st := account.NewStateDB()
	var txs []*account.Transaction
	for i := uint64(0); i < 80; i++ {
		// Self-payments: each transaction touches only its own account, so
		// every one is intra-shard and conflict-free at any shard count.
		a := types.AddressFromUint64("budget/self", i)
		st.AddBalance(a, 1_000_000)
		txs = append(txs, &account.Transaction{
			From: a, To: a, Value: 1, Nonce: 0, GasLimit: account.GasTx, GasPrice: 1,
		})
	}
	st.DiscardJournal()
	blk := &account.Block{
		Height: 1, Time: 1_600_000_000,
		Coinbase: types.AddressFromUint64("budget/miner", 0),
		Txs:      txs,
	}
	res, ss, err := Sharded{Workers: 2, Shards: 8}.ExecuteSharded(st.Copy(), blk)
	if err != nil {
		t.Fatal(err)
	}
	if ss.Fallback || ss.Cross != 0 {
		t.Fatalf("unexpected sharding outcome: %+v", ss)
	}
	if res.Stats.Speedup > 2+1e-9 {
		t.Fatalf("speed-up %.2f exceeds the 2-worker budget (ParUnits %d for %d txs)",
			res.Stats.Speedup, res.Stats.ParUnits, res.Stats.Txs)
	}
	if res.Stats.GasSpeedup > 2+1e-9 {
		t.Fatalf("gas speed-up %.2f exceeds the 2-worker budget", res.Stats.GasSpeedup)
	}
}
