package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"testing"
	"time"
)

func okOut(ms int) outcome {
	return outcome{OK: true, Status: 200, Lat: time.Duration(ms) * time.Millisecond}
}

func TestPercentileRanksFailuresAboveSuccesses(t *testing.T) {
	var outs []outcome
	// A failure that came back fast must still rank above every success.
	outs = append(outs, outcome{Status: 502, Lat: time.Microsecond})
	for ms := 1; ms <= 9; ms++ {
		outs = append(outs, okOut(ms))
	}
	if lat, failed := percentile(outs, 0.5); failed || lat != 5*time.Millisecond {
		t.Errorf("p50 = %v failed=%v, want 5ms", lat, failed)
	}
	if lat, failed := percentile(outs, 0.9); failed || lat != 9*time.Millisecond {
		t.Errorf("p90 = %v failed=%v, want 9ms (the failure is rank 10)", lat, failed)
	}
	if _, failed := percentile(outs, 1); !failed {
		t.Error("p100 should land on the failure")
	}

	outs = append(outs[1:], outcome{Status: 0}, outcome{Status: 502})
	if _, failed := percentile(outs, 0.9); !failed {
		t.Error("with 2 failures in 11, p90 (rank 10) should land on a failure")
	}
	if got := latencyMS(outs, 0.9); got != ms(requestTimeout) {
		t.Errorf("latencyMS on a failure = %v, want the request timeout %v", got, ms(requestTimeout))
	}
	if _, failed := percentile(nil, 0.5); !failed {
		t.Error("percentile of no outcomes should report failure")
	}
}

func TestFailureAccounting(t *testing.T) {
	outs := []outcome{okOut(1), {Status: 502}, {Status: 0}, okOut(2), {Status: 502}}
	ok, failed := countOutcomes(outs)
	if ok != 2 || failed != 3 {
		t.Errorf("countOutcomes = %d ok, %d failed; want 2, 3", ok, failed)
	}
	if got := statusCounts(map[int]int{502: 2, 0: 1}); got != "HTTP 502 x2, transport error x1" {
		t.Errorf("statusCounts = %q", got)
	}
	a := frontierCounters{Retries: 7, RoutedErr: 2, Dials: 9, ReplPushed: 40, ReadRepairs: 3}
	b := frontierCounters{Retries: 3, RoutedErr: 1, Dials: 4, ReplPushed: 10, ReadRepairs: 3}
	if d := a.minus(b); d != (frontierCounters{Retries: 4, RoutedErr: 1, Dials: 5, ReplPushed: 30}) {
		t.Errorf("minus = %+v", d)
	}
}

func TestMedianDuration(t *testing.T) {
	cases := []struct {
		in   []time.Duration
		want time.Duration
	}{
		{nil, 0},
		{[]time.Duration{3, 1, 2}, 2},
		{[]time.Duration{4, 1, 3, 2}, 2}, // (2+3)/2 in integer nanoseconds
	}
	for _, c := range cases {
		if got := medianDuration(c.in); got != c.want {
			t.Errorf("medianDuration(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name may contain spaces and parentheses.
	stat := []byte("4242 (dfg (w) 1) S 1 4242 4242 0 -1 4194560 1200 0 0 0 250 75 0 0 20 0 9 0 100 0 0\n")
	got, err := parseStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3250 * time.Millisecond; got != want { // (250+75) ticks at 100 Hz
		t.Errorf("parseStatCPU = %v, want %v", got, want)
	}
	for _, bad := range []string{"4242 dfg S 1", "4242 (dfg) S 1 2 3", "4242 (dfg) S 1 4242 4242 0 -1 0 0 0 0 0 x 75 0"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded, want an error", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := []byte("Name:\tdfg-worker\nVmPeak:\t 1300000 kB\nVmHWM:\t   81920 kB\nVmRSS:\t   60000 kB\n")
	got, err := parseVmHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(81920) << 10; got != want {
		t.Errorf("parseVmHWM = %d, want %d", got, want)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded, want an error", bad)
		}
	}
}

func TestProcReadsThisProcess(t *testing.T) {
	if _, err := procCPU("self"); err != nil {
		t.Fatal(err)
	}
	if rss, err := procPeakRSS("self"); err != nil || rss <= 0 {
		t.Fatalf("procPeakRSS(self) = %d, %v", rss, err)
	}
}

// requestStream flattens everything a plan sends, in order.
func requestStream(pl *plan) []byte {
	var b bytes.Buffer
	for _, seq := range [][]int32{pl.prefill, pl.warmup, pl.timed} {
		for _, i := range seq {
			b.Write(pl.reqs[i].Body)
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestSeedGivesIdenticalRequests(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.build(7, 1)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.build(7, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(requestStream(a), requestStream(b)) {
				t.Fatal("same seed produced different request bytes")
			}
			c, err := w.build(8, 1)
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Equal(requestStream(a), requestStream(c)) {
				t.Fatal("different seeds produced the same request bytes")
			}
		})
	}
}

func TestColdMixedNeverRepeatsARequest(t *testing.T) {
	w, _ := findWorkload("cold-mixed")
	pl, err := w.build(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	bc := 0
	for _, seq := range [][]int32{pl.warmup, pl.timed} {
		for _, i := range seq {
			r := pl.reqs[i]
			if seen[r.Key] {
				t.Fatalf("request %d repeats key %s", i, r.Key)
			}
			seen[r.Key] = true
			if r.Kind == "bytecode" {
				bc++
			}
		}
	}
	if bc*4 != len(pl.reqs) {
		t.Errorf("%d of %d requests are bytecode, want one in four", bc, len(pl.reqs))
	}
}

func TestJoinSpans(t *testing.T) {
	epoch := time.Now()
	reqs := []request{{Key: "k1"}, {Key: "k2"}}
	p := phase{start: epoch, outs: []outcome{
		{Req: 0, Start: 0, Lat: 10 * time.Millisecond, OK: true, Traced: true},
		{Req: 1, Start: 0, Lat: 10 * time.Millisecond, OK: true, Traced: false},
		{Req: 0, Start: 20 * time.Millisecond, Lat: 10 * time.Millisecond, OK: true, Traced: true},
	}}
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	spans := []handlerSpan{
		{Key: "k1", Start: at(2), End: at(8), OK: true},   // first k1 request
		{Key: "k1", Start: at(22), End: at(25), OK: true}, // second k1 request
		{Key: "k2", Start: at(2), End: at(8), OK: true},   // untraced request: no join
		{Key: "k1", Start: at(9), End: at(12), OK: true},  // spans no request
	}
	joins := joinSpans(p, reqs, spans)
	if len(joins) != 2 || joins[0].out != 0 || joins[1].out != 2 {
		t.Fatalf("joins = %+v, want outcomes 0 and 2", joins)
	}
	if len(joins[0].spans) != 1 || joins[0].spans[0] != &spans[0] || joins[1].spans[0] != &spans[1] {
		t.Errorf("wrong spans joined: %+v", joins)
	}
}

// TestMetricsMatchBenchmarkJSON checks that each mode prints exactly the
// metrics, with the units, that BENCHMARK.json declares for it.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	p := phase{outs: []outcome{okOut(3)}, window: time.Second}
	e2e := endToEndMetrics(blockMetrics(p.outs, time.Second, []time.Duration{0, time.Millisecond}), 1<<20, []time.Duration{time.Second})
	layers := layerMetrics(p, []request{{}}, map[[32]byte]*served{}, nil, layerSample{}, layerSample{})
	for _, c := range []struct {
		mode string
		want []struct{ Name, Unit string }
		got  map[string]metric
	}{{"end_to_end", spec.EndToEnd, e2e}, {"per_layer", spec.PerLayer, layers}} {
		if len(c.want) != len(c.got) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness prints %d", c.mode, len(c.want), len(c.got))
		}
		for _, w := range c.want {
			if m, ok := c.got[w.Name]; !ok {
				t.Errorf("%s: %s is declared but not printed", c.mode, w.Name)
			} else if m.Unit != w.Unit {
				t.Errorf("%s: %s unit %q, declared %q", c.mode, w.Name, m.Unit, w.Unit)
			}
		}
	}
}

// TestSendRetriesTransientFailures checks that a 502 is resent, that the
// latency covers every send, and that a client error is not resent.
func TestSendRetriesTransientFailures(t *testing.T) {
	var calls atomic.Int32
	fail := map[string]int{"/flaky": 2, "/down": maxAttempts + 1}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(calls.Add(1))
		switch {
		case r.URL.Path == "/bad":
			w.WriteHeader(http.StatusBadRequest)
		case n <= fail[r.URL.Path]:
			w.WriteHeader(http.StatusBadGateway)
		default:
			w.Write([]byte(`{"ok":true}`))
		}
	}))
	defer srv.Close()
	for _, c := range []struct {
		path     string
		ok       bool
		attempts int
		status   int
	}{
		{"/flaky", true, 3, 200},
		{"/down", false, maxAttempts, 502},
		{"/bad", false, 1, 400},
	} {
		calls.Store(0)
		g := &loadGen{url: srv.URL + c.path, clients: []*http.Client{srv.Client()}, reqs: []request{{Body: []byte("{}")}}}
		var buf bytes.Buffer
		o := g.send(context.Background(), g.clients[0], 0, time.Now(), &buf)
		if o.OK != c.ok || o.Attempts != c.attempts || o.Status != c.status {
			t.Errorf("%s: ok=%v attempts=%d status=%d, want %v %d %d", c.path, o.OK, o.Attempts, o.Status, c.ok, c.attempts, c.status)
		}
		if int(calls.Load()) != c.attempts {
			t.Errorf("%s: server saw %d sends, want %d", c.path, calls.Load(), c.attempts)
		}
	}
	retried, resent := countRetries([]outcome{{Attempts: 1}, {Attempts: 3}, {Attempts: 2}})
	if retried != 2 || resent != 3 {
		t.Errorf("countRetries = %d, %d; want 2, 3", retried, resent)
	}
}

// TestBlockMetrics checks that each figure is the interquartile mean over
// blocks, that a request counts in the block it completed in, and that
// requests still in flight at the end of the window are left out.
func TestBlockMetrics(t *testing.T) {
	at := func(startMS, latMS int, ok bool) outcome {
		return outcome{OK: ok, Start: time.Duration(startMS) * time.Millisecond, Lat: time.Duration(latMS) * time.Millisecond}
	}
	outs := []outcome{
		// Block 0: four successes, 10 to 40 ms.
		at(0, 10, true), at(100, 20, true), at(200, 30, true), at(300, 40, true),
		// Block 1: sent in block 0, completes in block 1; and one failure.
		at(900, 200, true), at(1200, 5, false),
		// Block 2: two successes.
		at(2000, 50, true), at(2100, 60, true),
		// Block 3: nothing succeeds.
		at(3000, 5, false),
		// Completes after the window: left out.
		at(3900, 500, true),
	}
	cpu := []time.Duration{0, 40 * time.Millisecond, 60 * time.Millisecond, 80 * time.Millisecond, 90 * time.Millisecond}
	bs := blockMetrics(outs, time.Second, cpu)
	if got, want := fmt.Sprint(bs.perBlock.throughput), "[4 1 2 0]"; got != want {
		t.Errorf("throughput per block = %v, want %v", got, want)
	}
	if bs.throughput != 1.5 {
		t.Errorf("throughput = %v, want the mean of the middle blocks 1 and 2, 1.5", bs.throughput)
	}
	// Block 3 has no success, so the latency and CPU figures have three
	// blocks, none of them dropped. p50 per block: 20, 200, 50. p90 per
	// block: 40, a failure (the request timeout), 60. CPU per success:
	// 10, 20, 10.
	if bs.p50 != 90 || bs.p90 != (40+ms(requestTimeout)+60)/3 || bs.cpuPerReq != 40.0/3 {
		t.Errorf("p50=%v p90=%v cpu=%v, want 90, %v, %v", bs.p50, bs.p90, bs.cpuPerReq, (40+ms(requestTimeout)+60)/3, 40.0/3)
	}
	if got := blockMetrics(outs, time.Second, cpu[:1]); got.throughput != 0 || got.perBlock.throughput != nil {
		t.Errorf("no whole block: %+v, want zero", got)
	}
}

func TestInterquartileMean(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{100, 1, 2, 3, 4, 5, 6, -50}, 3.5}, // drops -50, 1 and 6, 100
	} {
		if got := interquartileMean(c.in); got != c.want {
			t.Errorf("interquartileMean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
