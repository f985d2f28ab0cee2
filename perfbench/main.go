package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// suite is the set of workload definitions a run picks from.
type suite struct {
	durable, rpc ingestSpec
	replay       replaySpec
}

var benchmarkSuite = suite{durable: ingestDurable, rpc: ingestRPC, replay: replayBounded}

func (su suite) names() []string { return []string{su.durable.name, su.rpc.name, su.replay.name} }

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	workload := fl.String("workload", "", "workload to run: ingest-durable, ingest-rpc-erc20 or replay-bounded")
	seed := fl.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	secs := fl.Int("seconds", 10, "how long the run offers load")
	trace := fl.Int("trace", 0, "1: report per-layer metrics from a traced run")
	dir := fl.String("dir", ".bench_build", "scratch directory for WAL and table files and span output")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	res, err := measure(benchmarkSuite, *workload, *seed, float64(*secs), *trace == 1, *dir)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", *workload, *seed, err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure runs one workload and returns its result line: end-to-end
// metrics, or with traced the per-layer metrics and tracing overhead.
func measure(su suite, workload string, seed int64, seconds float64, traced bool, dir string) (*result, error) {
	known := false
	for _, n := range su.names() {
		known = known || n == workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, su.names())
	}
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	plain, _, err := runOnce(su, workload, seed, seconds, &runEnv{tmp: tmp})
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	if !traced {
		res.Attempted, res.Failed = plain.attempted, plain.failed
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{finite(plain.e2e[d.name]), d.unit}
		}
		return res, nil
	}
	env := &runEnv{tmp: tmp, rec: newRecorder()}
	tr, layers, err := runOnce(su, workload, seed, seconds, env)
	if err != nil {
		return nil, fmt.Errorf("traced: %w", err)
	}
	for _, d := range endToEnd {
		layers["overhead."+d.name] = tr.e2e[d.name] - plain.e2e[d.name]
	}
	res.Attempted, res.Failed = tr.attempted, tr.failed
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{finite(layers[d.name]), d.unit}
	}
	traces := filepath.Join(dir, "traces")
	if err := os.MkdirAll(traces, 0o755); err != nil {
		return nil, err
	}
	if err := env.rec.write(filepath.Join(traces, fmt.Sprintf("%s-seed%d.tsv", workload, seed))); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// runOnce runs the workload once; with a recorder in env it also returns
// the per-layer metrics.
func runOnce(su suite, workload string, seed int64, seconds float64, env *runEnv) (*outcome, map[string]float64, error) {
	switch workload {
	case su.replay.name:
		r, err := runReplayWorkload(su.replay, seed, seconds, env)
		if err != nil {
			return nil, nil, err
		}
		var layers map[string]float64
		if env.rec != nil {
			layers = r.layers(env)
		}
		return r.outcome(), layers, nil
	default:
		spec := su.durable
		if workload == su.rpc.name {
			spec = su.rpc
		}
		r, err := runIngestWorkload(spec, seed, seconds, env)
		if err != nil {
			return nil, nil, err
		}
		var layers map[string]float64
		if env.rec != nil {
			layers = r.layers(spec, env)
		}
		return r.outcome(spec), layers, nil
	}
}
