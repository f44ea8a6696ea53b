package pipeline

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// BatchResult pairs one request of a batch with its outcome. Exactly one of
// Result/Err is non-nil.
type BatchResult struct {
	Index  int
	Result *Result
	Err    error
}

// AnalyzeBatch fans reqs across the engine's worker pool and returns one
// BatchResult per request, index-aligned with reqs. Each request gets its
// own timeout (Request.Timeout or the engine default) and its own panic
// isolation: a malformed program fails its own slot and never the batch or
// the process. Cancelling ctx abandons requests that have not started and
// interrupts running ones at their next stage boundary.
//
// Scheduling is warm-first: requests whose final stage artifact is already
// cached are dispatched before cache-cold ones, so a burst of expensive
// cold analyses mixed into warm-cache traffic cannot push the warm
// requests' latency from sub-millisecond to the cold tail. Within a lane,
// requests run in index order. Callers that should not retain all N
// results at once should use AnalyzeBatchStream instead.
func (e *Engine) AnalyzeBatch(ctx context.Context, reqs []Request) []BatchResult {
	out := make([]BatchResult, len(reqs))
	e.analyzeBatchCore(ctx, reqs, func(br BatchResult) { out[br.Index] = br })
	return out
}

// AnalyzeBatchStream is AnalyzeBatch without the retained result slice:
// each BatchResult is handed to deliver as soon as its slot finishes, and
// nothing is kept afterwards, so a caller that reduces results (count,
// aggregate, write-to-disk) holds at most the in-flight ones. deliver is
// called exactly once per request, serially (never concurrently), but in
// completion order — use BatchResult.Index to realign. AnalyzeBatchStream
// returns once every request has been delivered.
func (e *Engine) AnalyzeBatchStream(ctx context.Context, reqs []Request, deliver func(BatchResult)) {
	e.analyzeBatchCore(ctx, reqs, deliver)
}

// analyzeBatchCore is the shared scheduler behind AnalyzeBatch and
// AnalyzeBatchStream: classify every request warm or cold up front, then
// let the worker pool drain the warm lane before touching the cold one.
// Classification is a heuristic (the cache may evict or fill between the
// peek and the run); a misclassified request is merely scheduled in the
// wrong lane, never computed wrongly.
func (e *Engine) analyzeBatchCore(ctx context.Context, reqs []Request, deliver func(BatchResult)) {
	e.metrics.batches.Add(1)
	if len(reqs) == 0 {
		return
	}
	workers := e.cfg.Workers
	if workers > len(reqs) {
		workers = len(reqs)
	}

	var warm, cold []int
	for i := range reqs {
		if e.probablyWarm(reqs[i]) {
			warm = append(warm, i)
		} else {
			cold = append(cold, i)
		}
	}
	e.metrics.batchWarm.Add(int64(len(warm)))
	e.metrics.batchCold.Add(int64(len(cold)))

	// Two atomic lane cursors; every worker drains the warm lane before
	// taking cold work, so a cold burst can never starve warm requests.
	var warmCur, coldCur atomic.Int64
	next := func() (int, bool) {
		if n := warmCur.Add(1) - 1; n < int64(len(warm)) {
			return warm[n], true
		}
		if n := coldCur.Add(1) - 1; n < int64(len(cold)) {
			return cold[n], true
		}
		return 0, false
	}

	var mu sync.Mutex
	emit := func(br BatchResult) {
		mu.Lock()
		defer mu.Unlock()
		deliver(br)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, ok := next()
				if !ok {
					return
				}
				if err := ctx.Err(); err != nil {
					emit(BatchResult{Index: i, Err: err})
					continue
				}
				emit(e.analyzeSlot(ctx, i, reqs[i]))
			}
		}()
	}
	wg.Wait()
}

// probablyWarm reports whether req's final planned stage artifact is already
// cached, via a non-promoting peek (the classification pass must not reorder
// the LRU eviction queue). If the final stage is cached, every dependency
// was cached when it was computed, so the whole request is at worst a chain
// of cache hits plus whatever has since been evicted.
func (e *Engine) probablyWarm(req Request) bool {
	if e.cache == nil {
		return false
	}
	stages := req.Stages
	if len(stages) == 0 {
		stages = AllStages()
	}
	plan, err := expandStages(stages)
	if err != nil || len(plan) == 0 {
		return false
	}
	last := plan[len(plan)-1]
	return e.cache.contains(stageKey(key(req.Source, req.Options), last, req.Options))
}

// analyzeSlot runs one batch slot with a recover backstop. Analyze already
// isolates stage panics; this guards the slot against panics anywhere else
// so one poisoned request can never take down the pool.
func (e *Engine) analyzeSlot(ctx context.Context, i int, req Request) (br BatchResult) {
	br.Index = i
	defer func() {
		if r := recover(); r != nil {
			br.Result = nil
			br.Err = fmt.Errorf("request %d panicked: %v", i, r)
		}
	}()
	br.Result, br.Err = e.Analyze(ctx, req)
	return br
}
