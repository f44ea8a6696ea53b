// Command perfbench is the repository's end-to-end benchmark. It drives the
// real sharded deployment (dfg-serve -backends -replicas 2 over two
// dfg-worker processes with on-disk stores) over HTTP from one closed-loop
// load generator, checks every served report, and prints the end-to-end
// metrics. With -trace 1 it hosts the two workers in its own process, records
// spans around each layer's public entry points, and prints per-layer
// metrics instead. See README.md.
//
// Usage (from the repository root, after building the binaries):
//
//	perfbench -workload cold-mixed -seed 1 -seconds 10 -trace 0 -bin .bench_build/bin
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dfg/internal/pipeline"
)

// workloadSpec is one traffic mix.
type workloadSpec struct {
	name    string
	clients int
	setups  int           // set-ups per timed run; setup_s is their median
	sample  int           // output-check sample size
	block   time.Duration // the window's figures are interquartile means over blocks this long
	build   func(seed int64, seconds int) (*plan, error)
}

// plan is every request a run sends, generated and encoded before the
// deployment starts. The sequences index reqs.
type plan struct {
	reqs    []request
	prefill []int32 // sent during set-up; each must succeed
	warmup  []int32 // sent during set-up; discarded
	timed   []int32 // the timed window draws from here, in order
}

// Load-generator sizing. The timed pools hold more requests than the
// deployment can answer in the window on a 2-core host; a run that
// exhausts its pool ends early and says so.
const (
	mixedPoolPerSecond = 500
	zipfPoolPerSecond  = 10000

	zipfWorkingSet = 1536 // three times one worker's 512-entry report LRU
	zipfS, zipfV   = 1.1, 16
	zipfMinStmts   = 4
	zipfMaxStmts   = 12
	zipfWarmup     = 500 // Zipf draws sent after the prefill, then discarded
)

var workloads = []workloadSpec{
	{name: "cold-mixed", clients: 2, setups: 5, sample: 24, block: 2 * time.Second, build: func(seed int64, seconds int) (*plan, error) {
		ps := newProgramSource(seed)
		reqs, err := ps.mixedSet(40+seconds*mixedPoolPerSecond, 10, 30)
		if err != nil {
			return nil, err
		}
		return &plan{reqs: reqs, warmup: seqRange(0, 40), timed: seqRange(40, len(reqs))}, nil
	}},
	{name: "warm-zipf", clients: 1, setups: 3, sample: 24, block: time.Second, build: func(seed int64, seconds int) (*plan, error) {
		ps := newProgramSource(seed)
		reqs, err := ps.mixedSet(zipfWorkingSet, zipfMinStmts, zipfMaxStmts)
		if err != nil {
			return nil, err
		}
		zd := newZipfDraw(rand.New(rand.NewSource(seed)), zipfWorkingSet, zipfS, zipfV)
		return &plan{reqs: reqs, prefill: seqRange(0, len(reqs)), warmup: zd.seq(zipfWarmup), timed: zd.seq(seconds * zipfPoolPerSecond)}, nil
	}},
}

// seqRange returns the request indices lo..hi-1.
func seqRange(lo, hi int) []int32 {
	out := make([]int32, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, int32(i))
	}
	return out
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: cold-mixed or warm-zipf")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 10, "length of the timed window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
		binDir  = flag.String("bin", ".bench_build/bin", "directory holding dfg-serve and dfg-worker")
		workDir = flag.String("work", ".bench_build/work", "scratch directory for stores and logs")
	)
	flag.Parse()
	spec, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload cold-mixed|warm-zipf, -seconds >= 1, -trace 0|1")
		os.Exit(2)
	}
	if err := run(spec, *seed, *seconds, *trace == 1, *binDir, *workDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run performs one run and prints its result line. A run whose output check
// fails prints its result and returns an error.
func run(spec workloadSpec, seed int64, seconds int, traced bool, binDir, workDir string) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workDir, spec.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{spec: spec, seed: seed, seconds: seconds, binDir: binDir, dir: dir}
	var res result
	if traced {
		res, err = runTraced(ctx, cfg, filepath.Join(workDir, "..", "traces"))
	} else {
		res, err = runTimed(ctx, cfg)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("output check failed")
	}
	return nil
}

type runConfig struct {
	spec    workloadSpec
	seed    int64
	seconds int
	binDir  string
	dir     string
}

// setUp launches a deployment and brings it to the state the timed window
// starts from: the working set prefilled (warm-zipf) and a warm-up sent.
// Its duration is the set-up time.
func setUp(ctx context.Context, cfg runConfig, pl *plan, dir string, launch launchFunc) (*deployment, *loadGen, time.Duration, error) {
	t0 := time.Now()
	d, err := startDeployment(ctx, cfg.binDir, dir, launch)
	if err != nil {
		return nil, nil, 0, err
	}
	// Never more clients (each with one connection) than cores.
	g := newLoadGen(d.base, min(cfg.spec.clients, runtime.NumCPU()), pl.reqs)
	fail := func(err error) (*deployment, *loadGen, time.Duration, error) {
		g.close()
		d.stop()
		return nil, nil, 0, err
	}
	t1 := time.Now()
	if err := prefill(ctx, d.base, pl.reqs, pl.prefill); err != nil {
		return fail(err)
	}
	t2 := time.Now()
	g.run(ctx, pl.warmup, t2, time.Time{}, false)
	if err := ctx.Err(); err != nil {
		return fail(err)
	}
	note("set-up: launch %s, prefill %s, warm-up %s", t1.Sub(t0).Round(time.Millisecond), t2.Sub(t1).Round(time.Millisecond), time.Since(t2).Round(time.Millisecond))
	return d, g, time.Since(t0), nil
}

// prefill sends seq with one client per core, resending failed requests
// for up to five rounds, and closes its connections before it returns.
func prefill(ctx context.Context, base string, reqs []request, seq []int32) error {
	pg := newLoadGen(base, runtime.NumCPU(), reqs)
	defer pg.close()
	for round := 1; len(seq) > 0; round++ {
		if round > 5 {
			return fmt.Errorf("prefill: %d requests still failing after %d rounds", len(seq), round-1)
		}
		p := pg.run(ctx, seq, time.Now(), time.Time{}, false)
		if err := ctx.Err(); err != nil {
			return err
		}
		seq = nil
		for _, o := range p.outs {
			if !o.OK {
				seq = append(seq, o.Req)
			}
		}
		if len(seq) > 0 {
			note("prefill round %d: %d of %d requests failed; resending them", round, len(seq), len(p.outs))
		}
	}
	return nil
}

// note prints one human-readable line ahead of the result line.
func note(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// cpuOf sums the CPU time of pids.
func cpuOf(pids []string) (time.Duration, error) {
	var sum time.Duration
	for _, p := range pids {
		c, err := procCPU(p)
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// sampleCPU reads the summed CPU time of pids at start and at each block
// boundary after it, for seconds' worth of blocks, in the background. The
// returned function waits for the last sample and returns them all.
func sampleCPU(ctx context.Context, pids []string, start time.Time, block time.Duration, seconds int) func() ([]time.Duration, error) {
	n := int(time.Duration(seconds) * time.Second / block)
	out := make([]time.Duration, 0, n+1)
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k <= n && err == nil; k++ {
			select {
			case <-ctx.Done():
				err = ctx.Err()
				return
			case <-time.After(time.Until(start.Add(time.Duration(k) * block))):
			}
			var c time.Duration
			if c, err = cpuOf(pids); err == nil {
				out = append(out, c)
			}
		}
	}()
	return func() ([]time.Duration, error) {
		<-done
		return out, err
	}
}

// runTimed is the untraced run: the end-to-end metrics.
func runTimed(ctx context.Context, cfg runConfig) (result, error) {
	pl, err := cfg.spec.build(cfg.seed, cfg.seconds)
	if err != nil {
		return result{}, fmt.Errorf("generate %s: %w", cfg.spec.name, err)
	}
	var setupTimes []time.Duration
	var d *deployment
	var g *loadGen
	for i := 0; i < cfg.spec.setups; i++ {
		var took time.Duration
		d, g, took, err = setUp(ctx, cfg, pl, filepath.Join(cfg.dir, fmt.Sprintf("setup%d", i+1)), launchProcWorker(cfg.binDir))
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setupTimes = append(setupTimes, took)
		if i < cfg.spec.setups-1 {
			g.close()
			d.stop()
		}
	}
	defer d.stop()
	defer g.close()

	pids := d.pids()
	fs0, err := d.statsz(ctx)
	if err != nil {
		return result{}, err
	}
	start := time.Now()
	samples := sampleCPU(ctx, pids, start, cfg.spec.block, cfg.seconds)
	p := g.run(ctx, pl.timed, start, start.Add(time.Duration(cfg.seconds)*time.Second), true)
	cpu, err := samples()
	if err != nil {
		return result{}, err
	}
	var rss int64
	for _, pid := range pids {
		r, err := procPeakRSS(pid)
		if err != nil {
			return result{}, err
		}
		rss += r
	}
	fs1, err := d.statsz(ctx)
	if err != nil {
		return result{}, err
	}
	g.close()
	d.stop()
	if ctx.Err() != nil {
		return result{}, ctx.Err()
	}

	okN, failed := countOutcomes(p.outs)
	if okN == 0 {
		return result{}, fmt.Errorf("no request succeeded in the timed window (%d failed)", failed)
	}
	if len(p.outs) == len(pl.timed) {
		note("request pool exhausted after %s; the window ended early", p.window.Round(time.Millisecond))
	}
	decoded, correct := reportChecks(ctx, cfg, pl, p)
	reportFailures(cfg.spec.name, p.outs, fs0, fs1)
	reportTiers(p.outs, decoded)

	bs := blockMetrics(p.outs, cfg.spec.block, cpu)
	m := endToEndMetrics(bs, rss, setupTimes)
	note("%s seed=%d: sent=%d succeeded=%d failed=%d window=%s clients=%d nproc=%d",
		cfg.spec.name, cfg.seed, len(p.outs), okN, failed, p.window.Round(time.Millisecond), len(g.clients), runtime.NumCPU())
	note("latency samples=%d (failures rank above every success); set-ups: %s", len(p.outs), durations(setupTimes))
	note("per %s block: throughput %s", cfg.spec.block, floats(bs.perBlock.throughput, 0))
	note("per %s block: p50 ms %s", cfg.spec.block, floats(bs.perBlock.p50, 2))
	note("per %s block: p90 ms %s", cfg.spec.block, floats(bs.perBlock.p90, 2))
	printMetrics(m)
	return result{Correct: correct, Attempted: len(p.outs), Failed: failed, Metrics: m}, nil
}

// endToEndMetrics computes the end-to-end metrics of a timed window from
// its blocks; the deployment peaked at rss bytes.
func endToEndMetrics(bs blockStats, rss int64, setupTimes []time.Duration) map[string]metric {
	return map[string]metric{
		"throughput_rps": {bs.throughput, "1/s"},
		"latency_p50_ms": {bs.p50, "ms"},
		"latency_p90_ms": {bs.p90, "ms"},
		"cpu_ms_per_req": {bs.cpuPerReq, "ms"},
		"peak_rss_mb":    {float64(rss) / (1 << 20), "MB"},
		"setup_s":        {medianDuration(setupTimes).Seconds(), "s"},
	}
}

// reportChecks runs the output checks on a timed phase and prints what
// they found. It returns the decoded replies and whether every check
// passed.
func reportChecks(ctx context.Context, cfg runConfig, pl *plan, p phase) (map[[32]byte]*served, bool) {
	decoded, problems := checkResponses(p.outs, p.bodies, pl.reqs)
	n, mismatches := sampleCheck(ctx, cfg.seed, cfg.spec.sample, p.outs, decoded, pl.reqs)
	problems = append(problems, mismatches...)
	note("output check: %d distinct replies decoded, %d re-analyzed in process, %d problem(s)", len(decoded), n, len(problems))
	for i, pr := range problems {
		if i == 10 {
			note("  ... %d more", len(problems)-i)
			break
		}
		note("  %s", pr)
	}
	return decoded, len(problems) == 0 && n > 0
}

// reportFailures prints the failed share next to the frontier's retry,
// dial and error deltas over the same window.
func reportFailures(name string, outs []outcome, fs0, fs1 frontierCounters) {
	_, failed := countOutcomes(outs)
	byStatus := map[int]int{}
	for _, o := range outs {
		if !o.OK {
			byStatus[o.Status]++
		}
	}
	retried, resent := countRetries(outs)
	d := fs1.minus(fs0)
	note("failures %s: %d of %d (%s); %d request(s) resent after a transient failure (%d extra send(s)); frontier deltas: retries=%d routed_err=%d dials=%d repl_pushed=%d read_repairs=%d",
		name, failed, len(outs), statusCounts(byStatus), retried, resent, d.Retries, d.RoutedErr, d.Dials, d.ReplPushed, d.ReadRepairs)
	if failed > 0 || retried > 0 || d.Retries > 0 {
		note("known cause: internal/wire/server.go:191 sets the handshake deadline with SetDeadline and the frame loop only resets the read deadline, so each worker connection fails its first write 5s after its handshake")
	}
}

// reportTiers prints, for each tier that served the window, its share of
// the successful requests and its latency quantiles.
func reportTiers(outs []outcome, decoded map[[32]byte]*served) {
	byTier := map[string][]outcome{}
	okN := 0
	for _, o := range outs {
		if s := decoded[o.Hash]; o.OK && s != nil {
			byTier[s.Tier] = append(byTier[s.Tier], o)
			okN++
		}
	}
	var parts []string
	for _, t := range []pipeline.ReportTier{pipeline.TierLRU, pipeline.TierStore, pipeline.TierCompute} {
		if to := byTier[string(t)]; len(to) > 0 {
			parts = append(parts, fmt.Sprintf("%s %.1f%% p50=%.3fms p90=%.3fms", t,
				100*float64(len(to))/float64(okN), latencyMS(to, 0.5), latencyMS(to, 0.9)))
		}
	}
	note("tiers: %s", strings.Join(parts, "; "))
}

func statusCounts(m map[int]int) string {
	if len(m) == 0 {
		return "none"
	}
	var parts []string
	for st, n := range m {
		label := fmt.Sprintf("HTTP %d", st)
		if st == 0 {
			label = "transport error"
		}
		parts = append(parts, fmt.Sprintf("%s x%d", label, n))
	}
	sort.Strings(parts)
	return strings.Join(parts, ", ")
}

// countRetries returns how many requests needed more than one send, and
// how many extra sends they took.
func countRetries(outs []outcome) (retried, resent int) {
	for _, o := range outs {
		if o.Attempts > 1 {
			retried++
			resent += o.Attempts - 1
		}
	}
	return retried, resent
}

func countOutcomes(outs []outcome) (ok, failed int) {
	for _, o := range outs {
		if o.OK {
			ok++
		} else {
			failed++
		}
	}
	return ok, failed
}

// latencyMS is the q-quantile latency in ms; a quantile that falls on a
// failed request reads as the request timeout.
func latencyMS(outs []outcome, q float64) float64 {
	lat, failed := percentile(outs, q)
	if failed {
		return ms(requestTimeout)
	}
	return ms(lat)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func floats(vs []float64, prec int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.FormatFloat(v, 'f', prec, 64)
	}
	return strings.Join(parts, " ")
}

func durations(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = d.Round(time.Millisecond).String()
	}
	return strings.Join(parts, " ")
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		note("%-34s %14.4f %s", n, m[n].Value, m[n].Unit)
	}
}
