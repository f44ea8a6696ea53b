package pipeline

import (
	"context"
	"testing"

	"dfg/internal/workload"
)

// TestBatchWarmPriority pins the two-lane scheduler: with one worker, every
// request classified cache-warm must be delivered before any cold one, no
// matter how they interleave in the input, so a burst of cold analyses can
// never starve warm-cache traffic.
func TestBatchWarmPriority(t *testing.T) {
	e := New(Config{Workers: 1})
	srcs := []string{
		workload.Mixed(15, 101).String(), // cold
		workload.Mixed(15, 102).String(), // warm
		workload.Mixed(15, 103).String(), // cold
		workload.Mixed(15, 104).String(), // warm
		workload.Mixed(15, 105).String(), // cold
		workload.Mixed(15, 106).String(), // warm
	}
	warm := map[int]bool{1: true, 3: true, 5: true}
	for i := range srcs {
		if warm[i] {
			mustAnalyze(t, e, Request{Source: srcs[i]})
		}
	}
	reqs := make([]Request, len(srcs))
	for i, src := range srcs {
		reqs[i] = Request{Source: src}
	}
	var order []int
	e.AnalyzeBatchStream(context.Background(), reqs, func(br BatchResult) {
		if br.Err != nil {
			t.Errorf("slot %d: %v", br.Index, br.Err)
		}
		order = append(order, br.Index)
	})
	if len(order) != len(srcs) {
		t.Fatalf("delivered %d results, want %d", len(order), len(srcs))
	}
	seenCold := false
	for _, i := range order {
		if !warm[i] {
			seenCold = true
		} else if seenCold {
			t.Fatalf("warm request %d delivered after a cold one: order %v", i, order)
		}
	}
	snap := e.Snapshot()
	if snap.BatchWarm != 3 || snap.BatchCold != 3 {
		t.Errorf("warm/cold counters = %d/%d, want 3/3", snap.BatchWarm, snap.BatchCold)
	}
}

// TestAnalyzeBatchStreamMatchesBatch checks the streaming variant delivers
// exactly the results AnalyzeBatch returns, once per request.
func TestAnalyzeBatchStreamMatchesBatch(t *testing.T) {
	e := New(Config{Workers: 4, DisableCache: true})
	var reqs []Request
	for seed := int64(1); seed <= 12; seed++ {
		reqs = append(reqs, Request{Source: workload.Mixed(15, seed).String()})
	}
	want := e.AnalyzeBatch(context.Background(), reqs)
	got := make(map[int]string, len(reqs))
	e.AnalyzeBatchStream(context.Background(), reqs, func(br BatchResult) {
		if _, dup := got[br.Index]; dup {
			t.Errorf("slot %d delivered twice", br.Index)
		}
		if br.Err != nil {
			t.Errorf("slot %d: %v", br.Index, br.Err)
			got[br.Index] = ""
			return
		}
		got[br.Index] = reportJSON(t, br.Result.Report())
	})
	if len(got) != len(reqs) {
		t.Fatalf("delivered %d results, want %d", len(got), len(reqs))
	}
	for i, br := range want {
		if br.Err != nil {
			t.Fatalf("batch slot %d: %v", i, br.Err)
		}
		if got[i] != reportJSON(t, br.Result.Report()) {
			t.Errorf("slot %d: streamed report differs from batch report", i)
		}
	}
}

// TestProbablyWarmNilCache: an engine without a cache classifies everything
// cold rather than panicking.
func TestProbablyWarmNilCache(t *testing.T) {
	e := New(Config{DisableCache: true})
	if e.probablyWarm(Request{Source: "read a; print a;"}) {
		t.Fatal("cache-less engine classified a request warm")
	}
	out := e.AnalyzeBatch(context.Background(), []Request{{Source: "read a; print a;"}})
	if out[0].Err != nil {
		t.Fatal(out[0].Err)
	}
	if snap := e.Snapshot(); snap.BatchCold != 1 || snap.BatchWarm != 0 {
		t.Errorf("warm/cold counters = %d/%d, want 0/1", snap.BatchWarm, snap.BatchCold)
	}
}
