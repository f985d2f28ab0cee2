package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"txconcur/internal/account"
	"txconcur/internal/chainsim"
	"txconcur/internal/exec"
	"txconcur/internal/wal"
)

// tinySuite is the benchmark's workloads scaled down to run in seconds.
func tinySuite() suite {
	d := ingestDurable
	d.rate, d.floodTxs = 2000, 300
	d.blockTxs, d.hotCap, d.poolTxs = 50, 8, 800
	d.ckptEvery = 2
	r := ingestRPC
	r.rate, r.floodTxs = 1000, 300
	r.blockTxs, r.hotCap, r.poolTxs = 50, 8, 800
	b := replayBounded
	b.users, b.blocks, b.blockTxs, b.budget = 2000, 12, 50, 20
	b.rate = 2000
	return suite{durable: d, rpc: r, replay: b}
}

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code reports %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the code %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	names := benchmarkSuite.names()
	if len(b.Workloads) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(b.Workloads), len(names))
	}
	for i, w := range b.Workloads {
		if w.Name != names[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, w.Name, names[i])
		}
	}
}

// TestEveryMetricEmitted runs each workload at a tiny size, untraced and
// traced, and checks that every named metric is reported with its unit.
func TestEveryMetricEmitted(t *testing.T) {
	su := tinySuite()
	for _, w := range su.names() {
		for _, traced := range []bool{false, true} {
			res, err := measure(su, w, 7, 1, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", w, traced, d.name, m, d.unit)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w, d.name)
				}
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			if !traced {
				continue
			}
			// The layers each workload exists to exercise must show.
			var must []string
			switch w {
			case su.durable.name:
				must = []string{"wal.txs_per_sync", "mempool.block_fill_p50_ms", "wal.append_calls", "fs.fsyncs", "wal.ckpt_written"}
			case su.rpc.name:
				must = []string{"client.rpc_p99_ms", "client.http_requests_per_tx", "mempool.pack_calls", "exec.repairs"}
			case su.replay.name:
				must = []string{"basestore.get_calls", "basestore.get_hits", "basestore.apply_busy_s", "basestore.miss_busy_s", "exec.evicted", "exec.ram_replay_tps"}
			}
			for _, name := range must {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("%s traced: %s = %v, want > 0", w, name, res.Metrics[name].Value)
				}
			}
		}
	}
}

// smallChain is a few blocks of account transfers for the gate tests.
func smallChain(t *testing.T) (*account.StateDB, []*account.Block) {
	t.Helper()
	pre, blocks, err := chainsim.GenerateAccountChain(wideProfile(500, 40), 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return pre, blocks
}

func TestGateRejectsTamperedPreState(t *testing.T) {
	pre, blocks := smallChain(t)
	cr, _, err := exec.Sharded{Workers: workers, Shards: shards, Depth: depth}.ExecuteChain(pre.Copy(), blocks)
	if err != nil {
		t.Fatal(err)
	}
	o, err := replaySequential(pre, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkChain("honest", cr, o); err != nil {
		t.Fatalf("honest run rejected: %v", err)
	}
	tampered := pre.Copy()
	tampered.AddBalance(blocks[0].Txs[0].To, 1)
	bad, err := replaySequential(tampered, blocks)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkChain("tampered pre-state", cr, bad); err == nil {
		t.Fatal("gate accepted a run checked against a tampered pre-state")
	}
}

func TestGateRejectsTamperedReceipt(t *testing.T) {
	pre, blocks := smallChain(t)
	cr, _, err := exec.Sharded{Workers: workers, Shards: shards, Depth: depth}.ExecuteChain(pre.Copy(), blocks)
	if err != nil {
		t.Fatal(err)
	}
	o, err := replaySequential(pre, blocks)
	if err != nil {
		t.Fatal(err)
	}
	r := *cr.Receipts[1][0]
	r.GasUsed++
	cr.Receipts[1][0] = &r
	if err := checkChain("tampered receipt", cr, o); err == nil {
		t.Fatal("gate accepted a tampered receipt")
	}
}

func TestGateRejectsForeignBlocks(t *testing.T) {
	_, blocks := smallChain(t)
	recs := make([]wal.Record, len(blocks))
	for i, b := range blocks {
		recs[i] = wal.Record{Index: uint64(i), Block: b}
	}
	if err := checkLog(recs, blocks); err != nil {
		t.Fatalf("matching log rejected: %v", err)
	}
	if err := checkLog(recs[:len(recs)-1], blocks); err == nil {
		t.Fatal("gate accepted a log missing a block")
	}
	other := *blocks[1]
	other.Txs = other.Txs[1:]
	recs[1].Block = &other
	if err := checkLog(recs, blocks); err == nil {
		t.Fatal("gate accepted a log holding a different block")
	}

	s := &stream{}
	for _, b := range blocks[:2] {
		for _, tx := range b.Txs {
			s.subs = append(s.subs, submission(tx))
		}
	}
	if _, err := s.finish(len(s.subs)); err != nil {
		t.Fatal(err)
	}
	if n, err := countCommitted(s, len(s.subs), blocks[:2]); err != nil || n != len(s.subs) {
		t.Fatalf("countCommitted = %d, %v; want %d", n, err, len(s.subs))
	}
	if _, err := countCommitted(s, len(s.subs), blocks[:3]); err == nil {
		t.Fatal("gate accepted a block of transactions that were never submitted")
	}
}

// TestDecoratorsPassThrough checks that the traced seams change nothing:
// a traced bounded replay commits the same root as an untraced one, and a
// traced durable round's chain re-executes untraced to its live root.
func TestDecoratorsPassThrough(t *testing.T) {
	su := tinySuite()
	plain, err := runReplayWorkload(su.replay, 5, 1, &runEnv{tmp: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	env := &runEnv{tmp: t.TempDir(), rec: newRecorder()}
	traced, err := runReplayWorkload(su.replay, 5, 1, env)
	if err != nil {
		t.Fatal(err)
	}
	if plain.batches[0].cr.Root != traced.batches[0].cr.Root || traced.ram.cr.Root != plain.batches[0].cr.Root {
		t.Fatal("traced bounded replay diverged from the untraced one")
	}
	if len(env.rec.named("basestore.apply")) == 0 {
		t.Fatal("traced replay recorded no Apply spans")
	}

	env = &runEnv{tmp: t.TempDir(), rec: newRecorder()}
	run, err := runIngestWorkload(su.durable, 5, 1, env)
	if err != nil {
		t.Fatal(err)
	}
	if run.replay.Root != run.floods[0].cr.Root {
		t.Fatal("untraced re-execution of a traced round's chain diverged")
	}
	if len(env.rec.named("wal.append")) == 0 || len(env.rec.named("fs.fsync")) == 0 {
		t.Fatal("traced durable run recorded no WAL spans")
	}
}

func TestOpenLoopPacing(t *testing.T) {
	const n, rate = 50, 1000.0
	var sent []time.Time
	due, lag, err := openLoop(t.Context(), n, rate, func(int) error {
		sent = append(sent, time.Now())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range due {
		if want := due[0].Add(time.Duration(float64(i) / rate * float64(time.Second))); !due[i].Equal(want) {
			t.Fatalf("item %d due %v, want %v", i, due[i], want)
		}
		if sent[i].Before(due[i]) || lag[i] < 0 {
			t.Fatalf("item %d sent before it was due", i)
		}
	}
	due, lag, err = openLoop(t.Context(), n, 0, func(int) error { return nil })
	if err != nil || lag != nil || !due[n-1].Equal(due[0]) {
		t.Fatalf("flood: every item should be due at the start, got lag=%v err=%v", lag, err)
	}
}

func TestSelfTime(t *testing.T) {
	parent := []span{{start: 0, end: 100}}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}, {start: 200, end: 300}}
	// Covered: [10,40) and [90,100) = 40ns; self = 60ns.
	if got := selfTime(parent, kids); got != 60e-9 {
		t.Fatalf("selfTime = %v, want 60ns", got)
	}
	// Two overlapping RPCs: each subtracts only its own handler span.
	rpcs := []span{{start: 0, end: 100, id: 1}, {start: 50, end: 150, id: 2}}
	handlers := []span{{start: 60, end: 90, id: 1}, {start: 70, end: 140, id: 2}}
	// Self = (100-30) + (100-70) = 100ns.
	if got := selfTime(rpcs, handlers); got != 100e-9 {
		t.Fatalf("selfTime with ids = %v, want 100ns", got)
	}
}

func TestQuietQuartiles(t *testing.T) {
	rounds := []float64{7, 1, 6, 2, 5, 3, 4, 9}
	if got := quietTime(rounds); got != 2 {
		t.Fatalf("quietTime = %v, want the lower quartile 2", got)
	}
	if got := quietRate(rounds); got != 6 {
		t.Fatalf("quietRate = %v, want the upper quartile 6", got)
	}
}

func TestInterleave(t *testing.T) {
	for _, c := range [][2]int{{14, 7}, {7, 5}, {7, 7}, {3, 0}, {1, 4}} {
		order := interleave(c[0], c[1])
		var a, b int
		for _, isB := range order {
			if isB {
				b++
			} else {
				a++
			}
		}
		if a != c[0] || b != c[1] {
			t.Fatalf("interleave(%d, %d) gives %d and %d rounds", c[0], c[1], a, b)
		}
		if c[0] > 0 && order[0] {
			t.Fatalf("interleave(%d, %d) does not start with the first kind", c[0], c[1])
		}
	}
	// 14 and 7: every third round is of the second kind.
	for i, isB := range interleave(14, 7) {
		if isB != (i%3 == 1) {
			t.Fatalf("interleave(14, 7) round %d: %v", i, isB)
		}
	}
}
