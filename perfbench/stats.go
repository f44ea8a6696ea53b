package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"time"
)

// outcome is one timed request as the load generator saw it.
type outcome struct {
	Req      int32         // index into the plan's request table
	Start    time.Duration // send time, from the start of the timed window
	Lat      time.Duration // until the whole body was read
	OK       bool          // HTTP 200 with a body read in full
	Status   int           // HTTP status of the last attempt; 0 on a transport error
	Attempts int           // sends, counting retries of transient failures
	Bytes    int
	Hash     [32]byte // sha256 of the body
	Traced   bool     // sent while span recording was on (traced runs)
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of the
// latencies, ranking every failed request above every success. failed is
// true when the rank falls on a failure, which then has no latency.
func percentile(outs []outcome, q float64) (lat time.Duration, failed bool) {
	lats := make([]time.Duration, 0, len(outs))
	for _, o := range outs {
		if o.OK {
			lats = append(lats, o.Lat)
		}
	}
	if len(outs) == 0 {
		return 0, true
	}
	rank := int(math.Ceil(q * float64(len(outs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(lats) {
		return 0, true
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[rank-1], false
}

// medianDuration returns the median of ds (mean of the middle pair when
// the count is even), or 0 for none.
func medianDuration(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// clockTicks is USER_HZ, the unit of the CPU times in /proc/<pid>/stat. It
// is 100 on every Linux architecture Go supports.
const clockTicks = 100

// parseStatCPU returns utime+stime from the contents of /proc/<pid>/stat.
// The command name (field 2) may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	// After ')' come fields 3 (state) onwards; utime and stime are fields
	// 14 and 15.
	f := bytes.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command, want at least 13", len(f))
	}
	var ticks uint64
	for _, field := range f[11:13] {
		v, err := strconv.ParseUint(string(field), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("stat: %w", err)
		}
		ticks += v
	}
	return time.Duration(ticks) * time.Second / clockTicks, nil
}

// parseVmHWM returns the peak resident set size, in bytes, from the
// contents of /proc/<pid>/status.
func parseVmHWM(status []byte) (int64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte("VmHWM:"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
		}
		kb, err := strconv.ParseInt(string(f[0]), 10, 64)
		if err != nil {
			return 0, fmt.Errorf("status: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// procCPU reads the CPU time pid has used so far ("self" for this process).
func procCPU(pid string) (time.Duration, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// procPeakRSS reads pid's peak resident set size in bytes.
func procPeakRSS(pid string) (int64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

// blockStats are the end-to-end figures of a timed window taken block by
// block: the window is cut into equal blocks, each figure is computed per
// block, and the interquartile mean over the blocks is reported, so that a
// short stall of the host moves a figure only as far as it moves the
// middle half of the blocks.
type blockStats struct {
	throughput float64 // successes completed per second
	p50, p90   float64 // ms; latency of the requests completed in the block
	cpuPerReq  float64 // ms of CPU per success completed in the block
	// The per-block values behind the figures, for the run's notes.
	perBlock struct{ throughput, p50, p90 []float64 }
}

// blockMetrics cuts the window into len(cpu)-1 blocks of length block,
// starting at the window's first send. cpu holds the deployment's
// cumulative CPU time at each block boundary. Requests completing after the
// last boundary (those still in flight when the window closed) are left
// out. A block in which nothing succeeded counts as zero throughput and is
// skipped for the other figures.
func blockMetrics(outs []outcome, block time.Duration, cpu []time.Duration) blockStats {
	n := len(cpu) - 1
	if n < 1 {
		return blockStats{}
	}
	byBlock := make([][]outcome, n)
	for _, o := range outs {
		if b := int((o.Start + o.Lat) / block); b < n {
			byBlock[b] = append(byBlock[b], o)
		}
	}
	var thr, p50, p90, cpr []float64
	for b, bo := range byBlock {
		okN, _ := countOutcomes(bo)
		thr = append(thr, float64(okN)/block.Seconds())
		if okN == 0 {
			continue
		}
		p50 = append(p50, latencyMS(bo, 0.5))
		p90 = append(p90, latencyMS(bo, 0.9))
		cpr = append(cpr, ms(cpu[b+1]-cpu[b])/float64(okN))
	}
	bs := blockStats{
		throughput: interquartileMean(thr),
		p50:        interquartileMean(p50),
		p90:        interquartileMean(p90),
		cpuPerReq:  interquartileMean(cpr),
	}
	bs.perBlock.throughput, bs.perBlock.p50, bs.perBlock.p90 = thr, p50, p90
	return bs
}

// interquartileMean returns the mean of the middle half of vs: a quarter
// of the values (rounded down) is dropped from each end. It is 0 for none.
func interquartileMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	cut := len(s) / 4
	s = s[cut : len(s)-cut]
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
