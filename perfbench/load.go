package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// loadGen is a closed-loop load generator: each client sends its next
// request only after the previous response has been read in full, over its
// own single keep-alive connection.
type loadGen struct {
	url     string
	clients []*http.Client
	reqs    []request
	// traced, when set, is read at each send to mark the outcome as
	// belonging to a span-recording block (traced runs only).
	traced func() bool
}

func newLoadGen(base string, clients int, reqs []request) *loadGen {
	g := &loadGen{url: base + "/analyze", reqs: reqs}
	for i := 0; i < clients; i++ {
		g.clients = append(g.clients, &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return g
}

// requestTimeout bounds one request; a p90 that lands on a failure is
// reported as this long.
const requestTimeout = 60 * time.Second

// close drops the clients' idle connections.
func (g *loadGen) close() {
	for _, c := range g.clients {
		c.CloseIdleConnections()
	}
}

// phase is what one run of the load generator saw.
type phase struct {
	outs   []outcome
	bodies map[[32]byte][]byte // distinct successful bodies by hash (when kept)
	start  time.Time           // first send; outcome.Start counts from here
	window time.Duration       // first send to last response
}

// run sends seq in order, spread over the clients, until seq is used up
// or until passes (a zero until means no time limit). Send times are
// measured from start, which the caller takes just before. Response bodies
// are only hashed while it runs; with keep, one copy of each distinct body
// is returned for decoding afterwards.
func (g *loadGen) run(ctx context.Context, seq []int32, start, until time.Time, keep bool) phase {
	var next atomic.Int64
	perClient := make([][]outcome, len(g.clients))
	bodies := make([]map[[32]byte][]byte, len(g.clients))
	var wg sync.WaitGroup
	for ci := range g.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			var buf bytes.Buffer
			seen := map[[32]byte][]byte{}
			for ctx.Err() == nil {
				i := next.Add(1) - 1
				if i >= int64(len(seq)) || (!until.IsZero() && !time.Now().Before(until)) {
					break
				}
				o := g.send(ctx, g.clients[ci], seq[i], start, &buf)
				if keep && o.OK {
					if _, ok := seen[o.Hash]; !ok {
						seen[o.Hash] = append([]byte(nil), buf.Bytes()...)
					}
				}
				perClient[ci] = append(perClient[ci], o)
			}
			bodies[ci] = seen
		}(ci)
	}
	wg.Wait()
	p := phase{bodies: map[[32]byte][]byte{}, start: start, window: time.Since(start)}
	for ci := range g.clients {
		p.outs = append(p.outs, perClient[ci]...)
		for h, b := range bodies[ci] {
			p.bodies[h] = b
		}
	}
	return p
}

// maxAttempts bounds how often one request is sent. A reply of 502, 503 or
// 504, or a transport error, is retried at once, as an HTTP client does for
// an idempotent call through a gateway; the request's latency runs from
// its first send to the end of the reply that settled it.
const maxAttempts = 4

// retryable reports whether a reply of status is a transient gateway
// failure worth resending (0 is a transport error).
func retryable(status int) bool {
	return status == 0 || status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable || status == http.StatusGatewayTimeout
}

// send posts one request, resending it on transient failures, and reads
// the settling response into buf.
func (g *loadGen) send(ctx context.Context, c *http.Client, ri int32, epoch time.Time, buf *bytes.Buffer) (o outcome) {
	o.Req = ri
	if g.traced != nil {
		o.Traced = g.traced()
	}
	t0 := time.Now()
	o.Start = t0.Sub(epoch)
	for o.Attempts < maxAttempts && ctx.Err() == nil {
		o.Attempts++
		g.attempt(ctx, c, ri, buf, &o)
		if o.OK || !retryable(o.Status) {
			break
		}
	}
	o.Lat = time.Since(t0)
	return o
}

// attempt sends ri once and records the reply in o.
func (g *loadGen) attempt(ctx context.Context, c *http.Client, ri int32, buf *bytes.Buffer, o *outcome) {
	o.OK, o.Status, o.Bytes = false, 0, 0
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, g.url, bytes.NewReader(g.reqs[ri].Body))
	if err != nil {
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(hreq)
	if err != nil {
		return
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	o.Status = resp.StatusCode
	o.Bytes = buf.Len()
	o.Hash = sha256.Sum256(buf.Bytes())
	o.OK = err == nil && resp.StatusCode == http.StatusOK
	if !o.OK && o.Status == http.StatusOK {
		o.Status = 0 // body cut short: a transport error
	}
}
