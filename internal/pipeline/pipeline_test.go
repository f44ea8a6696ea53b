package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"dfg/internal/cfg"
	"dfg/internal/dfg"
	"dfg/internal/lang/parser"
	"dfg/internal/regions"
	"dfg/internal/workload"
)

const sampleSrc = `
	read p;
	y := 2;
	if (p > 0) { x := 1; y := 1; } else { x := 2; }
	print x; print y;
`

func mustAnalyze(t *testing.T, e *Engine, req Request) *Result {
	t.Helper()
	res, err := e.Analyze(context.Background(), req)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return res
}

func TestStageExpansion(t *testing.T) {
	got, err := expandStages([]Stage{StageEPR})
	if err != nil {
		t.Fatal(err)
	}
	want := []Stage{StageParse, StageCFG, StageRegions, StageDFG, StageEPR}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("expandStages(epr) = %v, want %v", got, want)
	}
	if _, err := expandStages([]Stage{"bogus"}); err == nil {
		t.Fatal("unknown stage must be rejected")
	}
}

func TestAnalyzeAllStages(t *testing.T) {
	e := New(Config{})
	res := mustAnalyze(t, e, Request{Source: sampleSrc})
	if res.Program == nil || res.CFG == nil || res.Regions == nil || res.CDG == nil ||
		res.DFG == nil || res.SSA == nil || res.Cprop == nil || res.EPR == nil {
		t.Fatalf("missing artifacts: %+v", res)
	}
	if !res.SSA.Equivalent {
		t.Errorf("SSA forms disagree: %s", res.SSA.Mismatch)
	}
	if !res.Cprop.Agree {
		t.Error("constprop CFG and DFG algorithms disagree")
	}
	rep := res.Report()
	if rep.CFG.Nodes == 0 || rep.DFG.Dependences == 0 {
		t.Errorf("implausible report: %+v", rep)
	}
}

func TestCacheHitsSecondRequest(t *testing.T) {
	e := New(Config{})
	mustAnalyze(t, e, Request{Source: sampleSrc})
	res := mustAnalyze(t, e, Request{Source: sampleSrc})
	for st, info := range res.Stages {
		if !info.CacheHit {
			t.Errorf("stage %s missed the cache on the second request", st)
		}
	}
	snap := e.Snapshot()
	for _, st := range AllStages() {
		if snap.Stages[st].Hits != 1 || snap.Stages[st].Misses != 1 {
			t.Errorf("stage %s: hits=%d misses=%d, want 1/1",
				st, snap.Stages[st].Hits, snap.Stages[st].Misses)
		}
	}
	// Different options must not share cache entries.
	res2 := mustAnalyze(t, e, Request{Source: sampleSrc, Options: Options{Predicates: true}})
	if res2.Stages[StageParse].CacheHit {
		t.Error("options change must change the cache key")
	}
}

func TestDisableCache(t *testing.T) {
	e := New(Config{DisableCache: true})
	mustAnalyze(t, e, Request{Source: sampleSrc})
	res := mustAnalyze(t, e, Request{Source: sampleSrc})
	for st, info := range res.Stages {
		if info.CacheHit {
			t.Errorf("stage %s hit a cache that should be disabled", st)
		}
	}
	if !e.Snapshot().Cache.Disabled {
		t.Error("snapshot should report the cache disabled")
	}
}

func TestParseErrorIsStageError(t *testing.T) {
	e := New(Config{})
	_, err := e.Analyze(context.Background(), Request{Source: "x := ;"})
	var se *StageError
	if !errors.As(err, &se) || se.Stage != StageParse || se.Panicked {
		t.Fatalf("want parse StageError, got %v", err)
	}
}

func TestPanicIsolation(t *testing.T) {
	e := New(Config{
		StageHook: func(st Stage, src string) {
			if st == StageDFG && strings.Contains(src, "y := 2") {
				panic("injected fault")
			}
		},
	})
	_, err := e.Analyze(context.Background(), Request{Source: sampleSrc})
	var se *StageError
	if !errors.As(err, &se) || !se.Panicked || se.Stage != StageDFG {
		t.Fatalf("want recovered dfg panic, got %v", err)
	}
	if e.Snapshot().Stages[StageDFG].Panics != 1 {
		t.Error("panic not counted")
	}
	// The engine must keep serving other programs.
	mustAnalyze(t, e, Request{Source: "read a; print a;"})
}

func TestRequestTimeout(t *testing.T) {
	e := New(Config{})
	_, err := e.Analyze(context.Background(), Request{Source: sampleSrc, Timeout: time.Nanosecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline exceeded, got %v", err)
	}
}

func TestBatchCancellation(t *testing.T) {
	e := New(Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := e.AnalyzeBatch(ctx, []Request{{Source: sampleSrc}, {Source: sampleSrc}})
	for _, br := range out {
		if br.Err == nil {
			t.Errorf("slot %d: want cancellation error", br.Index)
		}
	}
}

func TestBatchIsolatesBadRequests(t *testing.T) {
	e := New(Config{Workers: 4})
	reqs := []Request{
		{Source: "read a; print a;"},
		{Source: "if ("}, // parse error
		{Source: sampleSrc},
	}
	out := e.AnalyzeBatch(context.Background(), reqs)
	if out[0].Err != nil || out[2].Err != nil {
		t.Fatalf("good requests failed: %v / %v", out[0].Err, out[2].Err)
	}
	if out[1].Err == nil {
		t.Fatal("malformed request must fail its own slot")
	}
}

func TestLRUEviction(t *testing.T) {
	// Capacity 4 holds less than one program's stages (9), so a second
	// pass recomputes and correctness must not depend on the cache.
	e := New(Config{CacheEntries: 4})
	a := mustAnalyze(t, e, Request{Source: sampleSrc}).Report()
	b := mustAnalyze(t, e, Request{Source: sampleSrc}).Report()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("reports differ under eviction:\n%s\n%s", aj, bj)
	}
	if snap := e.Snapshot(); snap.Cache.Evictions == 0 {
		t.Error("expected evictions with capacity 4")
	}
}

// serialReport runs the underlying analysis packages directly — no engine,
// no cache, no goroutines — and assembles the same Report the engine
// produces. It is the reference the parallel-safety tests compare against.
func serialReport(t *testing.T, src string) Report {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := cfg.Build(prog)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	info, err := regions.Analyze(g)
	if err != nil {
		t.Fatalf("regions: %v", err)
	}
	d, err := dfg.BuildWithInfo(g, info)
	if err != nil {
		t.Fatalf("dfg: %v", err)
	}
	res := &Result{Program: prog, CFG: g, Regions: info, DFG: d}
	res.install(StageCDG, mustCompute(t, StageCDG, res))
	res.install(StageSSA, mustCompute(t, StageSSA, res))
	res.install(StageConstprop, mustCompute(t, StageConstprop, res))
	res.install(StageAnticip, mustCompute(t, StageAnticip, res))
	res.install(StageEPR, mustCompute(t, StageEPR, res))
	return res.Report()
}

func mustCompute(t *testing.T, st Stage, res *Result) any {
	t.Helper()
	v, err := compute(st, Options{}, res)
	if err != nil {
		t.Fatalf("stage %s: %v", st, err)
	}
	return v
}

// mixedSources returns the shared corpus of the parallel-safety tests:
// 100 deterministic workload.Mixed programs.
func mixedSources(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = workload.Mixed(15, int64(i+1)).String()
	}
	return out
}

// serialOnce memoizes the serial reference reports: both parallel-safety
// tests compare against the same corpus, and the serial pipeline (EPR in
// particular) is the expensive part of these tests.
var serialOnce struct {
	sync.Once
	reports map[string]string
}

func serialReference(t *testing.T, srcs []string) map[string]string {
	t.Helper()
	serialOnce.Do(func() {
		serialOnce.reports = make(map[string]string, len(srcs))
		for _, src := range srcs {
			serialOnce.reports[src] = reportJSON(t, serialReport(t, src))
		}
	})
	return serialOnce.reports
}

func reportJSON(t *testing.T, rep Report) string {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestParallelSubtestsShareEngine is the parallel-safety regression of the
// issue: 100 t.Parallel subtests hammer one shared Engine (so under -race
// every cache and metrics path is exercised concurrently) and each asserts
// its result equals the serial pipeline's.
func TestParallelSubtestsShareEngine(t *testing.T) {
	srcs := mixedSources(100)
	want := serialReference(t, srcs)
	shared := New(Config{})
	for i, src := range srcs {
		i, src := i, src
		t.Run(fmt.Sprintf("prog%02d", i), func(t *testing.T) {
			t.Parallel()
			res := mustAnalyze(t, shared, Request{Source: src})
			if got := reportJSON(t, res.Report()); got != want[src] {
				t.Errorf("engine disagrees with serial pipeline\n got: %s\nwant: %s", got, want[src])
			}
		})
	}
}

// TestBatchMatchesSerial drives the same corpus through AnalyzeBatch twice
// (cold then warm cache) and asserts every slot equals the serial result.
func TestBatchMatchesSerial(t *testing.T) {
	srcs := mixedSources(100)
	wantAll := serialReference(t, srcs)
	reqs := make([]Request, len(srcs))
	for i, src := range srcs {
		reqs[i] = Request{Source: src}
	}
	e := New(Config{})
	for pass := 0; pass < 2; pass++ {
		out := e.AnalyzeBatch(context.Background(), reqs)
		for _, br := range out {
			if br.Err != nil {
				t.Fatalf("pass %d slot %d: %v", pass, br.Index, br.Err)
			}
			want := wantAll[srcs[br.Index]]
			if got := reportJSON(t, br.Result.Report()); got != want {
				t.Errorf("pass %d slot %d: batch disagrees with serial\n got: %s\nwant: %s",
					pass, br.Index, got, want)
			}
		}
	}
	snap := e.Snapshot()
	if snap.Batches != 2 {
		t.Errorf("batches=%d, want 2", snap.Batches)
	}
	if snap.Stages[StageDFG].Hits == 0 {
		t.Error("second pass should have hit the cache")
	}
}
