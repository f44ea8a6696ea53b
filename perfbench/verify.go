package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"

	"dfg/internal/pipeline"
)

// served is the part of a POST /analyze reply the benchmark checks.
type served struct {
	OK     bool             `json:"ok"`
	Key    string           `json:"key"`
	Tier   string           `json:"tier"`
	Report *pipeline.Report `json:"report"`
	Error  string           `json:"error"`
}

// checkResponses decodes every distinct successful body once and checks
// each successful outcome against the request it answered: the reply is
// ok, names the request's report key, carries a report, and the paper's
// two cross-checks (Cytron vs DFG-derived SSA, CFG vs DFG constant
// propagation) agree wherever the report has them. It returns the decoded
// replies by body hash and one line per problem found.
func checkResponses(outs []outcome, bodies map[[32]byte][]byte, reqs []request) (map[[32]byte]*served, []string) {
	decoded := map[[32]byte]*served{}
	var problems []string
	for h, b := range bodies {
		var s served
		if err := json.Unmarshal(b, &s); err != nil {
			problems = append(problems, fmt.Sprintf("undecodable reply: %v", err))
			continue
		}
		decoded[h] = &s
	}
	for _, o := range outs {
		if !o.OK {
			continue
		}
		s := decoded[o.Hash]
		if s == nil {
			problems = append(problems, fmt.Sprintf("request %d: reply body missing", o.Req))
			continue
		}
		if p := checkServed(s, reqs[o.Req]); p != "" {
			problems = append(problems, fmt.Sprintf("request %d: %s", o.Req, p))
		}
	}
	return decoded, problems
}

func checkServed(s *served, r request) string {
	switch {
	case !s.OK:
		return "ok=false: " + s.Error
	case s.Key != r.Key:
		return fmt.Sprintf("key %q, want %q", s.Key, r.Key)
	case s.Report == nil:
		return "no report"
	case s.Report.SSA != nil && !s.Report.SSA.Equivalent:
		return "ssa.equivalent=false: " + s.Report.SSA.Mismatch
	case s.Report.Constprop != nil && !s.Report.Constprop.Agree:
		return "constprop.agree=false"
	case s.Tier != string(pipeline.TierCompute) && s.Tier != string(pipeline.TierLRU) && s.Tier != string(pipeline.TierStore):
		return fmt.Sprintf("unknown tier %q", s.Tier)
	}
	return ""
}

// sampleCheck re-analyzes a seeded sample of the answered requests with an
// in-process engine and checks that each served report equals the
// engine's canonical report byte for byte. A quarter of the sample is
// drawn from bytecode requests when there are any. It returns the number
// checked and one line per mismatch.
func sampleCheck(ctx context.Context, seed int64, n int, outs []outcome, decoded map[[32]byte]*served, reqs []request) (int, []string) {
	var src, bc []outcome
	taken := map[int32]bool{}
	for _, o := range outs {
		if !o.OK || decoded[o.Hash] == nil || taken[o.Req] {
			continue
		}
		taken[o.Req] = true
		if reqs[o.Req].Kind == pipeline.KindBytecode {
			bc = append(bc, o)
		} else {
			src = append(src, o)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	pick := func(from []outcome, k int) []outcome {
		rng.Shuffle(len(from), func(i, j int) { from[i], from[j] = from[j], from[i] })
		if k > len(from) {
			k = len(from)
		}
		return from[:k]
	}
	nbc := 0
	if len(bc) > 0 {
		nbc = (n + 3) / 4
	}
	sample := append(pick(bc, nbc), pick(src, n-nbc)...)

	eng := pipeline.New(pipeline.Config{})
	var problems []string
	for _, o := range sample {
		r := reqs[o.Req]
		rr, err := eng.AnalyzeReport(ctx, pipeline.Request{Source: r.Program, Options: pipeline.Options{SourceKind: r.Kind}})
		if err != nil {
			problems = append(problems, fmt.Sprintf("request %d: in-process analysis failed: %v", o.Req, err))
			continue
		}
		got, err := json.Marshal(decoded[o.Hash].Report)
		if err != nil {
			problems = append(problems, fmt.Sprintf("request %d: re-encode served report: %v", o.Req, err))
			continue
		}
		if !bytes.Equal(got, rr.Raw) || rr.Key != r.Key {
			problems = append(problems, fmt.Sprintf("request %d (%s): served report differs from in-process AnalyzeReport", o.Req, kindName(r.Kind)))
		}
	}
	return len(sample), problems
}

func kindName(k pipeline.SourceKind) string {
	if k == pipeline.KindBytecode {
		return "bytecode"
	}
	return "source"
}
