// Pipeline is a walkthrough of the mvstore-backed two-phase pipelined
// chain driver on a single shard: it generates account-model histories,
// executes each whole chain with exec.Sharded{Shards: 1}.ExecuteChain at
// several lookahead depths, verifies serial equivalence against a
// sequential replay, and reports how the pipelined flow-shop schedule
// compares with the per-block engines and the analytical model.
//
// The interesting number is the re-execution share: every transaction
// whose phase-1 snapshot went stale (an address also touched by a block
// committed after its snapshot) or that read what an earlier transaction
// of its block wrote is repaired serially in phase 2. Deeper lookahead
// pins staler snapshots, so workloads with heavy cross-block sender reuse
// bound the pipeline's win, exactly as core.PipelineSpeedup predicts.
package main

import (
	"flag"
	"fmt"
	"os"

	"txconcur/internal/bench"
	"txconcur/internal/chainsim"
	"txconcur/internal/core"
	"txconcur/internal/exec"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pipeline:", err)
		os.Exit(1)
	}
}

func run() error {
	blocks := flag.Int("blocks", 12, "blocks to generate per chain")
	workers := flag.Int("workers", 8, "cores n for the parallel engines")
	seed := flag.Int64("seed", 7, "generator seed")
	flag.Parse()

	for _, name := range []string{"Ethereum", "Zilliqa"} {
		if err := runChain(name, *blocks, *workers, *seed); err != nil {
			return err
		}
	}
	return nil
}

func runChain(profile string, blocks, workers int, seed int64) error {
	p, ok := chainsim.ProfileByName(profile)
	if !ok {
		return fmt.Errorf("unknown profile %q", profile)
	}
	pre, chain, err := chainsim.GenerateAccountChain(p, blocks, seed)
	if err != nil {
		return err
	}

	// Ground truth: sequential replay of the same blocks from the same
	// starting state.
	seqSt := pre.Copy()
	var seqUnits int
	var conflicted float64
	for _, blk := range chain {
		blkPre := seqSt.Copy() // this block's true pre-state
		res, err := exec.Sequential(seqSt, blk)
		if err != nil {
			return err
		}
		seqUnits += res.Stats.Txs
		spec, err := exec.Speculative{Workers: workers}.Execute(blkPre, blk)
		if err != nil {
			return err
		}
		if res.Stats.Txs > 0 {
			conflicted += float64(spec.Stats.Conflicted) / float64(res.Stats.Txs)
		}
	}
	seqRoot := seqSt.Root()

	t := bench.Table{
		Title: fmt.Sprintf("%s: pipelined single-shard chain over %d blocks, %d txs (n = %d)",
			profile, len(chain), seqUnits, workers),
		Headers: []string{"Depth", "Speed-up", "Gas speed-up", "Reexec", "Root"},
	}
	for _, depth := range []int{1, 2, 4} {
		res, _, err := exec.Sharded{Workers: workers, Shards: 1, Depth: depth}.ExecuteChain(pre.Copy(), chain)
		if err != nil {
			return err
		}
		rootState := "MISMATCH"
		if res.Root == seqRoot {
			rootState = "= sequential"
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", depth),
			fmt.Sprintf("%.2fx", res.Stats.Speedup),
			fmt.Sprintf("%.2fx", res.Stats.GasSpeedup),
			fmt.Sprintf("%d/%d", res.Stats.Retries, res.Stats.Txs),
			rootState,
		})
	}
	if err := bench.RenderTable(os.Stdout, t); err != nil {
		return err
	}

	// The analytical steady-state bound, with the measured mean per-block
	// conflict share as c.
	if len(chain) > 0 {
		meanTxs := seqUnits / len(chain)
		c := conflicted / float64(len(chain))
		predicted, err := core.PipelineSpeedup(meanTxs, c, workers)
		if err == nil {
			fmt.Printf("model: PipelineSpeedup(x=%d, c=%.2f, n=%d) = %.2fx\n\n",
				meanTxs, c, workers, predicted)
		}
	}
	return nil
}
