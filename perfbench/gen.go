package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"dfg/internal/bccompile"
	"dfg/internal/bytecode"
	"dfg/internal/pipeline"
	"dfg/internal/workload"
)

// request is one pre-encoded POST /analyze call.
type request struct {
	Program string
	Kind    pipeline.SourceKind // "" (source) or "bytecode"
	Key     string              // pipeline.ReportKey: what the response's "key" must be
	Body    []byte              // the encoded HTTP body
}

// analyzeBody is the POST /analyze body. Stages are omitted on purpose, so
// the benchmark follows the engine's default stage set.
type analyzeBody struct {
	Program    string `json:"program"`
	SourceKind string `json:"source_kind,omitempty"`
}

func newRequest(program string, kind pipeline.SourceKind) (request, error) {
	key, err := pipeline.ReportKey(program, pipeline.Options{SourceKind: kind}, nil)
	if err != nil {
		return request{}, err
	}
	body, err := json.Marshal(analyzeBody{Program: program, SourceKind: string(kind)})
	if err != nil {
		return request{}, err
	}
	return request{Program: program, Kind: kind, Key: key, Body: body}, nil
}

// programSource draws distinct programs from one seeded stream. Every
// program it returns has a report key no earlier call returned, so a
// workload built from one source never repeats a request by accident.
type programSource struct {
	rng  *rand.Rand
	seen map[string]bool
}

func newProgramSource(seed int64) *programSource {
	return &programSource{rng: rand.New(rand.NewSource(seed)), seen: map[string]bool{}}
}

// mixed returns a workload.Mixed program of lo to hi statements. When
// bytecodeKind is set, the program is compiled with bccompile and sent as
// disassembled bytecode instead of source.
func (ps *programSource) mixed(lo, hi int, bytecodeKind bool) (request, error) {
	for {
		size := lo + ps.rng.Intn(hi-lo+1)
		prog := workload.Mixed(size, ps.rng.Int63())
		text, kind := prog.String(), pipeline.KindSource
		if bytecodeKind {
			bc, err := bccompile.Compile(prog)
			if err != nil {
				return request{}, fmt.Errorf("compile bytecode: %w", err)
			}
			if text, err = bytecode.Disassemble(bc); err != nil {
				return request{}, fmt.Errorf("disassemble bytecode: %w", err)
			}
			kind = pipeline.KindBytecode
		}
		if r, ok, err := ps.fresh(text, kind); ok || err != nil {
			return r, err
		}
	}
}

func (ps *programSource) fresh(text string, kind pipeline.SourceKind) (request, bool, error) {
	r, err := newRequest(text, kind)
	if err != nil || ps.seen[r.Key] {
		return r, false, err
	}
	ps.seen[r.Key] = true
	return r, true, nil
}

// mixedSet returns n distinct Mixed requests of lo to hi statements;
// every fourth is bytecode.
func (ps *programSource) mixedSet(n, lo, hi int) ([]request, error) {
	out := make([]request, n)
	for i := range out {
		var err error
		if out[i], err = ps.mixed(lo, hi, i%4 == 3); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// zipfDraw samples indices into a working set of size w from a Zipf law
// P(rank k) ∝ (v+k)^-s. Ranks map to working-set slots through one seeded
// permutation, so popular programs land on both workers.
type zipfDraw struct {
	z    *rand.Zipf
	perm []int
}

func newZipfDraw(rng *rand.Rand, w int, s, v float64) *zipfDraw {
	return &zipfDraw{z: rand.NewZipf(rng, s, v, uint64(w-1)), perm: rng.Perm(w)}
}

// seq returns the next n draws.
func (zd *zipfDraw) seq(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(zd.perm[zd.z.Uint64()])
	}
	return out
}
