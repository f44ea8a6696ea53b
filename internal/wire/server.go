package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Handler computes one item of a batch. It must be safe for concurrent use;
// the server fans a batch's items across ServerOptions.Workers goroutines.
type Handler func(ctx context.Context, item Item) Result

// ServerOptions configure a Server.
type ServerOptions struct {
	// Schema is the artifact schema version this backend produces. A client
	// whose Hello names any other schema is refused.
	Schema int
	// Workers bounds per-batch item concurrency. Zero means 4.
	Workers int
	// Name identifies the server in HelloAck (e.g. "dfg-worker").
	Name string
	// IdleTimeout reaps connections with no frame activity between batches.
	// Zero means 5 minutes.
	IdleTimeout time.Duration
	// HandshakeTimeout bounds the hello exchange. Zero means 5s.
	HandshakeTimeout time.Duration
	// StorePut accepts a replicated artifact pushed by the frontier
	// (proto >= 2). nil means pushes are acked with OK=false — the backend
	// has no store, which costs replication coverage, never correctness.
	StorePut func(key string, payload []byte) error
}

func (o *ServerOptions) defaults() {
	if o.Workers <= 0 {
		o.Workers = 4
	}
	if o.Name == "" {
		o.Name = "dfg-backend"
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 5 * time.Minute
	}
	if o.HandshakeTimeout <= 0 {
		o.HandshakeTimeout = 5 * time.Second
	}
}

// Server speaks the backend side of the protocol. Create with NewServer,
// run with Serve, stop with Shutdown (which drains in-flight batches).
type Server struct {
	handler Handler
	opts    ServerOptions

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]bool
	closed   bool

	inflight sync.WaitGroup // open batches
	connWG   sync.WaitGroup // connection goroutines
}

// NewServer returns a Server that answers batches with h.
func NewServer(h Handler, opts ServerOptions) *Server {
	opts.defaults()
	if opts.Schema < 1 {
		panic("wire: ServerOptions.Schema must be >= 1")
	}
	return &Server{handler: h, opts: opts, conns: make(map[net.Conn]bool)}
}

// Serve accepts connections on l until Shutdown (or a fatal listener
// error). It returns ErrServerClosed after Shutdown.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	s.listener = l
	s.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				continue
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		s.conns[conn] = true
		s.connWG.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.connWG.Done()
			defer func() {
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
				conn.Close()
			}()
			s.serveConn(conn)
		}()
	}
}

// ErrServerClosed is returned by Serve after Shutdown.
var ErrServerClosed = errors.New("wire: server closed")

// Shutdown stops accepting, waits for in-flight batches to drain (bounded
// by ctx), then closes every connection. Idle connections are closed
// immediately after the drain; a batch in progress finishes streaming its
// results first, which is the "no client-visible error on graceful restart"
// property the frontier's retry logic builds on.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}

	drained := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
	}

	s.mu.Lock()
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	s.connWG.Wait()
	return err
}

// Close force-closes everything without draining.
func (s *Server) Close() error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: skip the drain wait
	s.Shutdown(ctx)
	return nil
}

// serveConn runs the handshake then the frame loop for one connection.
// Protocol violations terminate the connection; the client's next dial gets
// a fresh one.
func (s *Server) serveConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	var writeMu sync.Mutex // serializes result frames from item workers

	send := func(kind byte, v any) error {
		writeMu.Lock()
		defer writeMu.Unlock()
		// Per-frame write deadline: without it the handshake's SetDeadline
		// would still bound every later write, failing any frame sent more
		// than HandshakeTimeout after the connection opened.
		conn.SetWriteDeadline(time.Now().Add(s.opts.IdleTimeout))
		if err := writeFrame(bw, kind, v); err != nil {
			return err
		}
		return bw.Flush()
	}

	// Handshake.
	conn.SetDeadline(time.Now().Add(s.opts.HandshakeTimeout))
	kind, payload, err := readFrame(br)
	if err != nil || kind != frameHello {
		return
	}
	hello, err := decodeAs[Hello](payload)
	if err != nil || hello.Magic != helloMagic {
		send(frameError, &WireError{Code: "proto", Message: "malformed hello"})
		return
	}
	if hello.ProtoMin > ProtoVersion || hello.ProtoMax < 1 {
		send(frameError, &WireError{Code: "version",
			Message: fmt.Sprintf("no shared protocol version: client %d..%d, server 1..%d",
				hello.ProtoMin, hello.ProtoMax, ProtoVersion)})
		return
	}
	proto := hello.ProtoMax
	if proto > ProtoVersion {
		proto = ProtoVersion
	}
	if hello.Schema != s.opts.Schema {
		send(frameError, &WireError{Code: "schema",
			Message: fmt.Sprintf("schema mismatch: client %d, server %d", hello.Schema, s.opts.Schema)})
		return
	}
	if err := send(frameHelloAck, HelloAck{Proto: proto, Schema: s.opts.Schema, Server: s.opts.Name}); err != nil {
		return
	}

	// Frame loop.
	for {
		conn.SetReadDeadline(time.Now().Add(s.opts.IdleTimeout))
		kind, payload, err := readFrame(br)
		if err != nil {
			return
		}
		switch kind {
		case framePing:
			if err := send(framePong, struct{}{}); err != nil {
				return
			}
		case frameBatch:
			batch, err := decodeAs[Batch](payload)
			if err != nil {
				send(frameError, &WireError{Code: "proto", Message: "malformed batch"})
				return
			}
			if !s.beginBatch() {
				send(frameError, &WireError{Code: "overload", Message: "server shutting down"})
				return
			}
			err = s.runBatch(conn, batch, send)
			s.inflight.Done()
			if err != nil {
				return
			}
		case frameStorePut:
			if proto < 2 {
				send(frameError, &WireError{Code: "proto", Message: "store-put needs protocol >= 2"})
				return
			}
			put, err := decodeAs[StorePut](payload)
			if err != nil {
				send(frameError, &WireError{Code: "proto", Message: "malformed store-put"})
				return
			}
			ack := StoreAck{OK: true}
			if s.opts.StorePut == nil {
				ack = StoreAck{OK: false, Error: "backend has no artifact store"}
			} else if err := s.opts.StorePut(put.Key, put.Payload); err != nil {
				// Storage trouble fails the push, not the connection: the
				// artifact still exists wherever it was computed.
				ack = StoreAck{OK: false, Error: err.Error()}
			}
			if err := send(frameStoreAck, ack); err != nil {
				return
			}
		default:
			send(frameError, &WireError{Code: "proto", Message: fmt.Sprintf("unexpected frame kind %d", kind)})
			return
		}
	}
}

// beginBatch registers an in-flight batch unless the server is draining.
func (s *Server) beginBatch() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.inflight.Add(1)
	return true
}

// runBatch fans the batch's items across the worker budget and streams each
// Result as it completes. Result frames are written (and flushed) under the
// send mutex, so a graceful shutdown that waits for the batch observes
// fully-written frames.
func (s *Server) runBatch(conn net.Conn, batch Batch, send func(byte, any) error) error {
	// While items are computing, the per-frame read deadline no longer
	// applies; the write path's progress is the liveness signal.
	conn.SetReadDeadline(time.Time{})

	ctx := context.Background()
	sem := make(chan struct{}, s.opts.Workers)
	var wg sync.WaitGroup
	var sendErr error
	var sendErrOnce sync.Once
	for i, item := range batch.Items {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, item Item) {
			defer wg.Done()
			defer func() { <-sem }()
			res := s.safeHandle(ctx, item)
			res.ID = batch.ID
			res.Index = i
			if err := send(frameResult, res); err != nil {
				sendErrOnce.Do(func() { sendErr = err })
			}
		}(i, item)
	}
	wg.Wait()
	if sendErr != nil {
		return sendErr
	}
	return send(frameBatchDone, BatchDone{ID: batch.ID, Results: len(batch.Items)})
}

// safeHandle guards the handler: a panic fails the one item, not the
// connection or the process.
func (s *Server) safeHandle(ctx context.Context, item Item) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{OK: false, Error: fmt.Sprintf("handler panicked: %v", r), Unprocessable: true}
		}
	}()
	return s.handler(ctx, item)
}
