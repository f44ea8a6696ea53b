package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dfg/internal/backend"
	"dfg/internal/pipeline"
	"dfg/internal/store"
	"dfg/internal/wire"
)

// tracer records a span around every worker-handler call while on.
type tracer struct {
	on    atomic.Bool
	mu    sync.Mutex
	spans []handlerSpan
}

// handlerSpan is one backend.Handler call. It joins its request's root
// span by report key; the stage durations from the engine's StageInfo hang
// under it.
type handlerSpan struct {
	Worker     int
	Key        string
	Kind       pipeline.SourceKind
	Start, End time.Time
	OK         bool
	Tier       string
	Stages     map[string]time.Duration
}

func (s *handlerSpan) dur() time.Duration { return s.End.Sub(s.Start) }

// wrap puts a span around h.
func (t *tracer) wrap(worker int, h wire.Handler) wire.Handler {
	return func(ctx context.Context, item wire.Item) wire.Result {
		if !t.on.Load() {
			return h(ctx, item)
		}
		start := time.Now()
		res := h(ctx, item)
		sp := handlerSpan{Worker: worker, Key: res.Key, Kind: pipeline.SourceKind(item.SourceKind),
			Start: start, End: time.Now(), OK: res.OK, Tier: res.Tier}
		if res.Tier == string(pipeline.TierCompute) {
			sp.Stages = make(map[string]time.Duration, len(res.Meta))
			for st, m := range res.Meta {
				sp.Stages[st] = time.Duration(m.NS)
			}
		}
		t.mu.Lock()
		t.spans = append(t.spans, sp)
		t.mu.Unlock()
		return res
	}
}

// inprocWorker is a dfg-worker assembled in this process from the same
// public packages and defaults as cmd/dfg-worker, with its handler traced.
type inprocWorker struct {
	eng  *pipeline.Engine
	srv  *wire.Server
	host string
	done chan error
}

func (w *inprocWorker) addr() string { return w.host }

func (w *inprocWorker) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.srv.Shutdown(ctx)
	<-w.done
}

func launchInprocWorker(tr *tracer) launchFunc {
	return func(ctx context.Context, i int, dir string) (workerHost, error) {
		st, err := store.Open(filepath.Join(dir, "store"), store.Options{Schema: pipeline.ReportSchemaVersion})
		if err != nil {
			return nil, err
		}
		workers := runtime.GOMAXPROCS(0)
		eng := pipeline.New(pipeline.Config{
			Workers:            workers,
			CacheEntries:       1024,
			ReportCacheEntries: 512,
			DefaultTimeout:     30 * time.Second,
			Store:              st,
		})
		srv := wire.NewServer(tr.wrap(i, backend.Handler(eng)), wire.ServerOptions{
			Schema:   pipeline.ReportSchemaVersion,
			Workers:  workers,
			Name:     "dfg-worker",
			StorePut: backend.StoreHandler(eng),
		})
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		w := &inprocWorker{eng: eng, srv: srv, host: l.Addr().String(), done: make(chan error, 1)}
		go func() { w.done <- srv.Serve(l) }()
		return w, nil
	}
}

// traceBlock is how long span recording stays on or off. Alternating
// blocks through the window give traced and untraced requests the same
// host conditions, so their latency difference is the tracing overhead.
const traceBlock = 250 * time.Millisecond

// runTraced is the per-layer run: same seed and workload, the workers
// hosted in this process behind the real dfg-serve binary.
func runTraced(ctx context.Context, cfg runConfig, traceDir string) (result, error) {
	pl, err := cfg.spec.build(cfg.seed, cfg.seconds)
	if err != nil {
		return result{}, fmt.Errorf("generate %s: %w", cfg.spec.name, err)
	}
	tr := &tracer{}
	d, g, took, err := setUp(ctx, cfg, pl, filepath.Join(cfg.dir, "setup1"), launchInprocWorker(tr))
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	defer d.stop()
	defer g.close()

	servePID := strconv.Itoa(d.serve.Process.Pid)
	before, err := sampleLayers(ctx, d, servePID)
	if err != nil {
		return result{}, err
	}
	stopToggle, toggled := make(chan struct{}), make(chan struct{})
	tr.on.Store(true)
	go func() {
		defer close(toggled)
		tick := time.NewTicker(traceBlock)
		defer tick.Stop()
		for {
			select {
			case <-stopToggle:
				tr.on.Store(false)
				return
			case <-tick.C:
				tr.on.Store(!tr.on.Load())
			}
		}
	}()
	g.traced = tr.on.Load
	start := time.Now()
	p := g.run(ctx, pl.timed, start, start.Add(time.Duration(cfg.seconds)*time.Second), true)
	close(stopToggle)
	<-toggled
	after, err := sampleLayers(ctx, d, servePID)
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
	decoded, correct := reportChecks(ctx, cfg, pl, p)
	reportFailures(cfg.spec.name, p.outs, before.front, after.front)

	joins := joinSpans(p, pl.reqs, tr.spans)
	m := layerMetrics(p, pl.reqs, decoded, joins, before, after)
	note("%s seed=%d traced: sent=%d succeeded=%d failed=%d window=%s set-up=%s spans=%d",
		cfg.spec.name, cfg.seed, len(p.outs), okN, failed, p.window.Round(time.Millisecond), took.Round(time.Millisecond), len(tr.spans))
	if path, err := writeSpans(traceDir, cfg.spec.name, p, pl.reqs, joins); err != nil {
		note("spans not written: %v", err)
	} else {
		note("spans written to %s", path)
	}
	printMetrics(m)
	return result{Correct: correct, Attempted: len(p.outs), Failed: failed, Metrics: m}, nil
}

// layerSample is every counter the traced run reads, at one instant.
type layerSample struct {
	front    frontierCounters
	engines  []pipeline.Snapshot
	serveCPU time.Duration
	selfCPU  time.Duration
}

func sampleLayers(ctx context.Context, d *deployment, servePID string) (layerSample, error) {
	var s layerSample
	var err error
	if s.front, err = d.statsz(ctx); err != nil {
		return s, err
	}
	for _, w := range d.workers {
		s.engines = append(s.engines, w.(*inprocWorker).eng.Snapshot())
	}
	if s.serveCPU, err = procCPU(servePID); err != nil {
		return s, err
	}
	s.selfCPU, err = procCPU("self")
	return s, err
}

// joined is one traced request with the handler spans that served it
// (more than one when the frontier retried on a replica).
type joined struct {
	out   int // index into phase.outs
	spans []*handlerSpan
}

// joinSpans attaches each handler span to the traced request with the same
// report key whose round trip contains it.
func joinSpans(p phase, reqs []request, spans []handlerSpan) []joined {
	type cand struct {
		out        int
		start, end time.Time
	}
	byKey := map[string][]cand{}
	for i, o := range p.outs {
		if o.Traced {
			st := p.start.Add(o.Start)
			byKey[reqs[o.Req].Key] = append(byKey[reqs[o.Req].Key], cand{i, st, st.Add(o.Lat)})
		}
	}
	found := map[int]*joined{}
	for si := range spans {
		sp := &spans[si]
		for _, c := range byKey[sp.Key] {
			if !sp.Start.Before(c.start) && !sp.End.After(c.end) {
				j := found[c.out]
				if j == nil {
					j = &joined{out: c.out}
					found[c.out] = j
				}
				j.spans = append(j.spans, sp)
				break
			}
		}
	}
	out := make([]joined, 0, len(found))
	for _, j := range found {
		out = append(out, *j)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].out < out[b].out })
	return out
}

// stageNames are the pipeline stages the benchmark reports, in order.
var stageNames = []pipeline.Stage{
	pipeline.StageParse, pipeline.StageCFG, pipeline.StageRegions, pipeline.StageCDG, pipeline.StageDFG,
	pipeline.StageSSA, pipeline.StageConstprop, pipeline.StageAnticip, pipeline.StageEPR,
}

// layerMetrics computes every per-layer metric. Span-derived values cover
// the requests sent while recording was on; counter deltas cover the whole
// window. A metric with nothing to measure on a workload reads 0.
func layerMetrics(p phase, reqs []request, decoded map[[32]byte]*served, joins []joined, before, after layerSample) map[string]metric {
	okN, _ := countOutcomes(p.outs)
	perReq := func(v float64) float64 { return v / float64(okN) }
	perKReq := func(v int64) float64 { return float64(v) * 1000 / float64(len(p.outs)) }
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Spans: handler latency by tier, stage time, serve self time.
	var handler, lru, storeT, self []time.Duration
	tiers := map[string]int{}
	stageNS := map[string]time.Duration{}
	var reportNS, bcCFG time.Duration
	var nSpans, nBC int
	for _, j := range joins {
		o := p.outs[j.out]
		var inHandler time.Duration
		for _, sp := range j.spans {
			if !sp.OK {
				continue
			}
			d := sp.dur()
			inHandler += d
			nSpans++
			handler = append(handler, d)
			tiers[sp.Tier]++
			switch sp.Tier {
			case string(pipeline.TierLRU):
				lru = append(lru, d)
			case string(pipeline.TierStore):
				storeT = append(storeT, d)
			}
			var inStages time.Duration
			for st, ns := range sp.Stages {
				stageNS[st] += ns
				inStages += ns
			}
			if sp.Tier == string(pipeline.TierCompute) {
				reportNS += d - inStages
			}
			if sp.Kind == pipeline.KindBytecode {
				nBC++
				bcCFG += sp.Stages[string(pipeline.StageCFG)]
			}
		}
		if o.OK && inHandler > 0 {
			self = append(self, o.Lat-inHandler)
		}
	}
	perSpan := func(d time.Duration) float64 {
		if nSpans == 0 {
			return 0
		}
		return ms(d) / float64(nSpans)
	}
	share := func(n int) float64 {
		if nSpans == 0 {
			return 0
		}
		return float64(n) / float64(nSpans)
	}
	set("serve.self_ms_p50", ms(medianDuration(self)), "ms")
	set("worker.handler_ms_p50", ms(medianDuration(handler)), "ms")
	set("worker.handler_ms_p50.lru", ms(medianDuration(lru)), "ms")
	set("worker.handler_ms_p50.store", ms(medianDuration(storeT)), "ms")
	for _, t := range []pipeline.ReportTier{pipeline.TierLRU, pipeline.TierStore, pipeline.TierCompute} {
		set("pipeline.tier_share."+string(t), share(tiers[string(t)]), "share")
	}
	set("worker.report_ms_per_req", perSpan(reportNS), "ms")
	for _, st := range stageNames {
		set("stage."+string(st)+".ms_per_req", perSpan(stageNS[string(st)]), "ms")
	}
	bc := 0.0
	if nBC > 0 {
		bc = ms(bcCFG) / float64(nBC)
	}
	set("stage.cfg.ms_per_req.bytecode", bc, "ms")

	// Tracing overhead: traced minus untraced blocks.
	var on, off []outcome
	for _, o := range p.outs {
		if o.Traced {
			on = append(on, o)
		} else {
			off = append(off, o)
		}
	}
	set("trace.overhead_ms_p50", latencyMS(on, 0.5)-latencyMS(off, 0.5), "ms")

	// Response sizes and work counts from the served reports.
	var respBytes int
	var edges, ops, exprs int
	for _, o := range p.outs {
		if !o.OK {
			continue
		}
		respBytes += o.Bytes
		if s := decoded[o.Hash]; s != nil && s.Report != nil {
			if s.Report.CFG != nil {
				edges += s.Report.CFG.Edges
			}
			if s.Report.DFG != nil {
				ops += s.Report.DFG.Ops
			}
			if s.Report.EPR != nil {
				exprs += s.Report.EPR.Exprs
			}
		}
	}
	set("serve.resp_kb_per_req", perReq(float64(respBytes)/1024), "KiB")
	set("ir.cfg_edges_per_req", perReq(float64(edges)), "count")
	set("ir.dfg_ops_per_req", perReq(float64(ops)), "count")
	set("ir.epr_exprs_per_req", perReq(float64(exprs)), "count")

	// Frontier counters from /statsz.
	fd := after.front.minus(before.front)
	set("frontier.retries_per_kreq", perKReq(fd.Retries), "1/kreq")
	set("frontier.routed_err_per_kreq", perKReq(fd.RoutedErr), "1/kreq")
	set("frontier.dials_per_kreq", perKReq(fd.Dials), "1/kreq")
	set("frontier.repl_pushed_per_req", perReq(float64(fd.ReplPushed)), "1/req")
	_, resent := countRetries(p.outs)
	set("serve.failed_sends_per_kreq", perKReq(int64(resent)), "1/kreq")

	// CPU from /proc: dfg-serve, and this process (both workers plus the
	// load generator).
	serveCPU, selfCPU := after.serveCPU-before.serveCPU, after.selfCPU-before.selfCPU
	set("serve.cpu_ms_per_req", perReq(ms(serveCPU)), "ms")
	set("worker.cpu_ms_per_req", perReq(ms(selfCPU)), "ms")
	set("worker.cpu_util", (serveCPU+selfCPU).Seconds()/(p.window.Seconds()*float64(runtime.NumCPU())), "share")

	// Engine and store counters, summed over both workers.
	var wrote, read, hits, misses, rebuilds, patches, nonConv, eprRuns, maxWords int64
	alloc := map[pipeline.Stage]int64{}
	for i := range after.engines {
		a, b := after.engines[i], before.engines[i]
		if a.Store != nil && b.Store != nil {
			wrote += a.Store.BytesWritten - b.Store.BytesWritten
			read += a.Store.BytesRead - b.Store.BytesRead
			hits += a.Store.Hits - b.Store.Hits
			misses += a.Store.Misses - b.Store.Misses
		}
		for _, st := range stageNames {
			alloc[st] += a.Stages[st].AllocBytes - b.Stages[st].AllocBytes
		}
		rebuilds += a.EPR.DFGRebuilds - b.EPR.DFGRebuilds
		patches += a.EPR.DFGPatches - b.EPR.DFGPatches
		nonConv += a.EPR.NonConverged - b.EPR.NonConverged
		eprRuns += a.Stages[pipeline.StageEPR].Misses - b.Stages[pipeline.StageEPR].Misses
		if a.EPR.MaxWords > maxWords {
			maxWords = a.EPR.MaxWords
		}
	}
	set("store.write_kb_per_req", perReq(float64(wrote)/1024), "KiB")
	set("store.read_kb_per_req", perReq(float64(read)/1024), "KiB")
	hitRatio := 0.0
	if hits+misses > 0 {
		hitRatio = float64(hits) / float64(hits+misses)
	}
	set("store.hit_ratio", hitRatio, "share")
	for _, st := range stageNames {
		set("stage."+string(st)+".alloc_kb_per_req", perReq(float64(alloc[st])/1024), "KiB")
	}
	set("epr.dfg_rebuilds_per_req", perReq(float64(rebuilds)), "1/req")
	set("epr.dfg_patches_per_req", perReq(float64(patches)), "1/req")
	nc := 0.0
	if eprRuns > 0 {
		nc = float64(nonConv) / float64(eprRuns)
	}
	set("epr.non_converged_share", nc, "share")
	set("epr.max_solver_words", float64(maxWords), "count")
	return m
}

// spanRecord is one line of the span file.
type spanRecord struct {
	Trace   int    `json:"trace"`
	ID      string `json:"id"`
	Parent  string `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartUS int64  `json:"start_us,omitempty"` // from the start of the timed window
	DurUS   int64  `json:"dur_us"`
	Key     string `json:"key,omitempty"`
	Worker  int    `json:"worker,omitempty"`
	Tier    string `json:"tier,omitempty"`
	Status  int    `json:"status,omitempty"`
}

// writeSpans writes the joined traces, one span per line: the client's
// HTTP round trip as the root, the worker-handler spans under it, and the
// stage durations under each handler span.
func writeSpans(dir, name string, p phase, reqs []request, joins []joined) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	us := func(d time.Duration) int64 { return d.Microseconds() }
	for ti, j := range joins {
		o := p.outs[j.out]
		trace := ti + 1
		enc.Encode(spanRecord{Trace: trace, ID: "r", Name: "http.analyze", StartUS: us(o.Start), DurUS: us(o.Lat), Key: reqs[o.Req].Key, Status: o.Status})
		for hi, sp := range j.spans {
			hid := fmt.Sprintf("h%d", hi)
			enc.Encode(spanRecord{Trace: trace, ID: hid, Parent: "r", Name: "worker.handler",
				StartUS: us(sp.Start.Sub(p.start)), DurUS: us(sp.dur()), Worker: sp.Worker + 1, Tier: sp.Tier})
			for _, st := range stageNames {
				if d, ok := sp.Stages[string(st)]; ok {
					enc.Encode(spanRecord{Trace: trace, ID: hid + "." + string(st), Parent: hid, Name: "stage." + string(st), DurUS: us(d)})
				}
			}
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}
