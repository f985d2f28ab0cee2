package main

import (
	"fmt"

	"txconcur/internal/account"
	"txconcur/internal/exec"
	"txconcur/internal/types"
	"txconcur/internal/wal"
)

// The correctness gate. Every run, traced or not, checks the service's
// output against a sequential replay of the blocks it actually built; a
// mismatch fails the run instead of producing a number.

// oracle is the sequential replay of a chain: per-block receipts and the
// final state root.
type oracle struct {
	receipts [][]*account.Receipt
	root     types.Hash
}

// replaySequential executes blocks one transaction at a time on a copy of
// pre with the engines' sequential semantics (fees deferred to the end of
// the block, then the block reward). Unlike exec.Sequential it hashes the
// state once, at the end, not after every block.
func replaySequential(pre *account.StateDB, blocks []*account.Block) (*oracle, error) {
	st := pre.Copy()
	proc := account.Processor{DeferCoinbase: true}
	o := &oracle{receipts: make([][]*account.Receipt, len(blocks))}
	for i, blk := range blocks {
		rs := make([]*account.Receipt, 0, len(blk.Txs))
		for j, tx := range blk.Txs {
			r, err := proc.ApplyTransaction(st, blk, tx)
			if err != nil {
				return nil, fmt.Errorf("sequential replay: block %d tx %d: %w", i, j, err)
			}
			rs = append(rs, r)
		}
		st.AddBalance(blk.Coinbase, account.Fees(blk.Txs, rs))
		st.AddBalance(blk.Coinbase, account.BlockReward)
		st.DiscardJournal()
		o.receipts[i] = rs
	}
	o.root = st.Root()
	return o, nil
}

// checkChain compares an engine's chain result with the oracle: the final
// root and every receipt's status, gas and transaction hash.
func checkChain(what string, cr *exec.ChainResult, o *oracle) error {
	if cr.Root != o.root {
		return fmt.Errorf("%s: root %x differs from the sequential replay's %x", what, cr.Root[:6], o.root[:6])
	}
	if len(cr.Receipts) != len(o.receipts) {
		return fmt.Errorf("%s: receipts for %d blocks, sequential replay has %d", what, len(cr.Receipts), len(o.receipts))
	}
	for i, want := range o.receipts {
		got := cr.Receipts[i]
		if len(got) != len(want) {
			return fmt.Errorf("%s: block %d has %d receipts, want %d", what, i, len(got), len(want))
		}
		for j, w := range want {
			g := got[j]
			if g == nil || g.Status != w.Status || g.GasUsed != w.GasUsed || g.TxHash != w.TxHash {
				return fmt.Errorf("%s: block %d receipt %d differs from the sequential replay", what, i, j)
			}
		}
	}
	return nil
}

// checkLog verifies that the WAL holds exactly the built blocks, in order.
func checkLog(recs []wal.Record, built []*account.Block) error {
	if len(recs) != len(built) {
		return fmt.Errorf("wal holds %d blocks, the builder built %d", len(recs), len(built))
	}
	for i, r := range recs {
		if r.Index != uint64(i) || r.Block.Hash() != built[i].Hash() {
			return fmt.Errorf("wal record %d differs from built block %d", r.Index, i)
		}
	}
	return nil
}

// countCommitted checks that every committed transaction is one the run
// submitted, at most once, and returns how many submissions committed.
func countCommitted(s *stream, n int, built []*account.Block) (int, error) {
	seen := make([]bool, n)
	committed := 0
	for _, b := range built {
		for _, tx := range b.Txs {
			i, ok := s.index[keyOf(tx)]
			if !ok || i >= n || tx.Hash() != s.hashes[i] {
				return 0, fmt.Errorf("block %d holds a transaction that was never submitted", b.Height)
			}
			if seen[i] {
				return 0, fmt.Errorf("submission %d committed twice", i)
			}
			seen[i] = true
			committed++
		}
	}
	return committed, nil
}
