package main

import (
	"fmt"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
	"txconcur/internal/client"
	"txconcur/internal/dataset"
	"txconcur/internal/exec"
	"txconcur/internal/mempool"
	"txconcur/internal/types"
)

// stream is one ingest workload's input: the pre-state and the submissions
// in arrival order, in wire form with their predicted key sets. Arrival
// order is the generated chain's sequential order, so every prefix is a
// feasible submission order.
type stream struct {
	pre  *account.StateDB
	subs []client.SubmitTx
	// cost prices schedules for the speed-up figure (nil: gas).
	cost exec.CostModel
	// index maps a submission's (sender, nonce) to its position in subs;
	// hashes holds each submission's transaction hash.
	index  map[txKey]int
	hashes []types.Hash
}

// txKey identifies a submission across the wire and the pool, which both
// copy transactions.
type txKey struct {
	from  types.Address
	nonce uint64
}

func keyOf(tx *account.Transaction) txKey { return txKey{tx.From, tx.Nonce} }

func (s *stream) finish(n int) (*stream, error) {
	if len(s.subs) < n {
		return nil, fmt.Errorf("generated %d transactions, need %d", len(s.subs), n)
	}
	s.subs = s.subs[:n]
	s.index = make(map[txKey]int, n)
	s.hashes = make([]types.Hash, n)
	for i := range s.subs {
		s.hashes[i] = s.subs[i].Pending().Tx.Hash()
		k := txKey{s.subs[i].From, s.subs[i].Nonce}
		if _, dup := s.index[k]; dup {
			return nil, fmt.Errorf("duplicate sender nonce at submission %d", i)
		}
		s.index[k] = i
	}
	return s, nil
}

// skewStream generates n Shard-Skew-shaped account transfers with their
// envelope predictions.
func skewStream(seed int64, n, blockTxs int) (*stream, error) {
	pre, blks, err := chainsim.GenerateAccountChain(skewProfile(blockTxs), n/blockTxs+n/(2*blockTxs)+2, seed)
	if err != nil {
		return nil, err
	}
	s := &stream{pre: pre}
	for _, b := range blks {
		for _, tx := range b.Txs {
			s.subs = append(s.subs, submission(tx))
		}
	}
	return s.finish(n)
}

// submission is a transfer's wire form with its envelope predictions.
func submission(tx *account.Transaction) client.SubmitTx {
	p := mempool.PredictTransfer(tx)
	return client.SubmitTx{
		From: tx.From, To: tx.To, Value: tx.Value, Nonce: tx.Nonce,
		GasLimit: tx.GasLimit, GasPrice: tx.GasPrice, Arg: tx.Arg, Code: tx.Code,
		Reads: p.Reads, Writes: p.Writes, Deltas: p.Deltas,
	}
}

// erc20Stream generates n rows of the ERC20 rwset trace (hot tokens, DEX
// pools, airdrop deltas, cold payments), compiles them into executable
// transactions and attaches each row's recorded key sets as its
// prediction. The population is the trace generator's default (32 senders,
// 64 holders per token), as in the trace-replay and streaming experiments;
// at 50 transactions a block nearly every transaction conflicts.
func erc20Stream(seed int64, n, blockTxs int) (*stream, error) {
	tr, err := dataset.GenerateERC20Trace(dataset.ERC20TraceConfig{
		Seed: seed, Blocks: (n + blockTxs - 1) / blockTxs, TxPerBlock: blockTxs,
	})
	if err != nil {
		return nil, err
	}
	rc, err := dataset.BuildReplayChain(tr)
	if err != nil {
		return nil, err
	}
	var flat []*account.Transaction
	for _, b := range rc.Blocks {
		flat = append(flat, b.Txs...)
	}
	if len(flat) != len(tr.Txs) {
		return nil, fmt.Errorf("trace rows (%d) != replay txs (%d)", len(tr.Txs), len(flat))
	}
	s := &stream{pre: rc.Pre, cost: rc.TxCost}
	for i, tx := range flat {
		row := &tr.Txs[i]
		sub := client.SubmitTx{
			From: tx.From, To: tx.To, Value: tx.Value, Nonce: tx.Nonce,
			GasLimit: tx.GasLimit, GasPrice: tx.GasPrice, Arg: tx.Arg, Code: tx.Code,
		}
		// Every transaction read-writes its sender envelope; the row's
		// ops carry the contract keys.
		env := "sender:" + row.Sender
		sub.Reads = append(sub.Reads, env)
		sub.Writes = append(sub.Writes, env)
		for _, op := range row.Ops {
			switch op.Kind {
			case dataset.OpRead:
				sub.Reads = append(sub.Reads, op.Key)
			case dataset.OpWrite:
				sub.Writes = append(sub.Writes, op.Key)
			case dataset.OpDelta:
				sub.Deltas = append(sub.Deltas, op.Key)
			}
		}
		s.subs = append(s.subs, sub)
	}
	return s.finish(n)
}
