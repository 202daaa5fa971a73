package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/obs"
)

// ServerVersion is the software version string sent in Welcome.
const ServerVersion = "vnlserver/1"

// Config configures a Server.
type Config struct {
	// Addr is the TCP listen address; ":0" selects an ephemeral port
	// (tests read the bound address back from Server.Addr).
	Addr string
	// Store is the 2VNL/nVNL store the server fronts. It is shorthand for
	// Backend: when Backend is nil and Store is set, the server fronts the
	// store through NewCoreBackend.
	Store *core.Store
	// Backend is the engine the server fronts — a single store or the
	// hash-sharded router (NewShardBackend). Takes precedence over Store.
	Backend Backend
	// MaxConns bounds concurrently open connections; further dials are
	// answered with MsgErr{CodeTooBusy} and closed (deterministic
	// backpressure, rather than an opaque SYN-queue stall). 0 means 256.
	MaxConns int
	// IdleTimeout closes a connection that sends no request for this
	// long. 0 disables the idle timer.
	IdleTimeout time.Duration
	// RequestTimeout force-closes a connection whose in-flight request
	// exceeds it (the engine cannot interrupt a running query, so the
	// socket is severed to free the client side). 0 disables the watchdog.
	RequestTimeout time.Duration
	// WriteTimeout bounds each response write and flush, so a client that
	// stops reading cannot wedge a writer goroutine on a full socket
	// buffer. 0 disables it.
	WriteTimeout time.Duration
	// DrainTimeout bounds Shutdown when its context has no deadline.
	// 0 means 10s.
	DrainTimeout time.Duration
	// Metrics receives the server's instrumentation; nil selects
	// obs.Default().
	Metrics *obs.Registry
	// Logf, when non-nil, receives connection-lifecycle log lines.
	Logf func(format string, args ...any)
	// ReplFeed, when non-nil, makes this server a replication primary:
	// MsgReplPoll requests are served WAL segments from it. Nil servers
	// answer polls with CodeNotPrimary.
	ReplFeed ReplFeed
	// Replica, when non-nil, marks this server a read-only replication
	// follower: ApplyBatch is refused with CodeReadOnly, Welcome/Session
	// responses carry the follower's freshness bound, and /readyz also
	// requires Replica.CaughtUp().
	Replica ReplicaInfo
}

// serverMetrics is the server's observability surface.
type serverMetrics struct {
	connsAccepted *obs.Counter
	connsRejected *obs.Counter
	connsActive   *obs.Gauge
	requests      *obs.Counter
	requestErrs   *obs.Counter
	requestNS     *obs.Histogram
	queries       *obs.Counter
	batches       *obs.Counter
	wireSessions  *obs.Gauge
	drains        *obs.Counter
	reqTimeouts   *obs.Counter
	replPolls     *obs.Counter
	replBytes     *obs.Counter
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	c := reg.Counter
	return &serverMetrics{
		connsAccepted: c("server_conns_accepted_total", "TCP connections accepted"),
		connsRejected: c("server_conns_rejected_total", "TCP connections rejected (max-conns backpressure or draining)"),
		connsActive:   reg.Gauge("server_conns_active", "currently open TCP connections"),
		requests:      c("server_requests_total", "protocol requests handled"),
		requestErrs:   c("server_request_errors_total", "protocol requests answered with MsgErr"),
		requestNS:     reg.Histogram("server_request_ns", "request handling latency", obs.DurationBuckets),
		queries:       c("server_queries_total", "SELECTs executed over the wire (Query + ExecStmt)"),
		batches:       c("server_batches_total", "maintenance delta batches applied over the wire"),
		wireSessions:  reg.Gauge("server_sessions_open", "reader sessions currently open over the wire"),
		drains:        c("server_drains_total", "graceful drains initiated"),
		reqTimeouts:   c("server_request_timeouts_total", "connections severed by the in-flight request watchdog"),
		replPolls:     c("server_repl_polls_total", "replication polls served (segments and heartbeats)"),
		replBytes:     c("server_repl_bytes_total", "WAL bytes shipped to replication followers"),
	}
}

// Server is the TCP front end. One Server owns one listener, an accept
// loop, and the per-connection goroutine pairs; queries run on the store's
// lock-free reader path, and maintenance batches serialize on a server-side
// mutex in front of core's single-writer rule.
type Server struct {
	cfg     Config
	backend Backend
	metrics *serverMetrics
	reg     *obs.Registry

	ln net.Listener

	mu    sync.Mutex
	conns map[*conn]struct{}

	// wg tracks every goroutine the server spawns: the accept loop, the
	// watchdog, reject writers, and the per-connection reader/writer
	// pairs. Shutdown and Close wait on it, so "drained" provably means
	// "no server goroutine is still running".
	wg sync.WaitGroup
	// watchStop stops the request-timeout watchdog. It is closed once,
	// through watchStopOnce, and never reassigned, so the watchdog may
	// select on the field without s.mu.
	watchStop     chan struct{}
	watchStopOnce sync.Once

	started    atomic.Bool
	draining   atomic.Bool
	closed     atomic.Bool
	drainUntil atomic.Int64 // UnixNano drain deadline, set by Shutdown

	// maintMu serializes wire maintenance batches: core allows one
	// maintenance transaction at a time, so concurrent MsgApplyBatch
	// requests queue here instead of erroring.
	maintMu sync.Mutex

	// stmts is the server-global prepared-statement table, keyed on
	// normalized SQL; ids are dense and valid on every connection. It only
	// interns: the backend's statement (for a store, a handle on a plan-
	// cache entry) owns the plan. At most maxStatements entries.
	stmts struct {
		sync.RWMutex
		ids  map[string]uint32
		list []BackendStmt
	}
}

// New builds a Server; call Start to listen.
func New(cfg Config) *Server {
	if cfg.MaxConns == 0 {
		cfg.MaxConns = 256
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	backend := cfg.Backend
	if backend == nil && cfg.Store != nil {
		backend = NewCoreBackend(cfg.Store)
	}
	s := &Server{
		cfg:       cfg,
		backend:   backend,
		reg:       reg,
		metrics:   newServerMetrics(reg),
		conns:     make(map[*conn]struct{}),
		watchStop: make(chan struct{}),
	}
	s.stmts.ids = make(map[string]uint32)
	return s
}

// Start binds the listener and launches the accept loop.
func (s *Server) Start() error {
	if !s.started.CompareAndSwap(false, true) {
		return fmt.Errorf("server: already started")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.logf("listening on %s", ln.Addr())
	s.wg.Add(1)
	go s.acceptLoop()
	if s.cfg.RequestTimeout > 0 {
		s.wg.Add(1)
		go s.watchdog()
	}
	return nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Ready reports whether the server is accepting new connections — the
// /readyz condition. A replica is additionally not ready until it has
// caught up to its primary within the configured lag bound, so a load
// balancer never routes reads to a follower still backfilling.
func (s *Server) Ready() bool {
	if !s.started.Load() || s.draining.Load() || s.closed.Load() {
		return false
	}
	if ri := s.cfg.Replica; ri != nil && !ri.CaughtUp() {
		return false
	}
	return true
}

// Metrics returns the registry the server's instrumentation writes to.
func (s *Server) Metrics() *obs.Registry { return s.reg }

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf("vnlserver: "+format, args...)
	}
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			// Listener closed by Shutdown/Close, or a transient accept
			// failure; either way, if we are stopping, exit quietly.
			if s.draining.Load() || s.closed.Load() {
				return
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			s.logf("accept: %v", err)
			return
		}
		if s.draining.Load() {
			s.reject(nc, CodeDraining, errDraining)
			continue
		}
		s.mu.Lock()
		over := len(s.conns) >= s.cfg.MaxConns
		s.mu.Unlock()
		if over {
			s.reject(nc, CodeTooBusy, fmt.Errorf("connection limit %d reached", s.cfg.MaxConns))
			continue
		}
		s.startConn(nc)
	}
}

// errDraining is the backpressure error every drained-away dial sees.
var errDraining = errors.New("server is draining")

// reject answers a connection the server will not serve with a single
// MsgErr frame, then closes it. The client's handshake frame is consumed
// first: closing a socket with unread inbound data raises RST on common
// stacks, which would destroy the queued error frame before the client
// reads it. The writer joins s.wg so Shutdown/Close also wait for
// rejections in flight (each is bounded by its one-second deadline).
func (s *Server) reject(nc net.Conn, code ErrCode, err error) {
	s.metrics.connsRejected.Inc()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		_ = nc.SetDeadline(time.Now().Add(time.Second))
		_, _, _ = ReadFrame(bufio.NewReader(nc))
		_ = WriteFrame(nc, MsgErr, wireErr(code, err))
		_ = nc.Close()
	}()
}

func (s *Server) startConn(nc net.Conn) {
	c := &conn{
		srv:      s,
		nc:       nc,
		out:      make(chan outFrame, 16),
		encs:     make(chan *rowsEncoder, 2),
		sessions: make(map[uint32]BackendSession),
	}
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	s.metrics.connsAccepted.Inc()
	s.metrics.connsActive.Add(1)
	s.wg.Add(2)
	go c.readLoop()
	go c.writeLoop()
}

func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	_, present := s.conns[c]
	delete(s.conns, c)
	s.mu.Unlock()
	if present {
		s.metrics.connsActive.Add(-1)
	}
}

// watchdog severs connections whose in-flight request has exceeded
// RequestTimeout. The engine cannot interrupt a running query, but closing
// the socket unblocks the client and lets the drain account for the
// connection.
func (s *Server) watchdog() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.RequestTimeout / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.watchStop:
			return
		case <-tick.C:
		}
		cutoff := time.Now().Add(-s.cfg.RequestTimeout).UnixNano()
		s.mu.Lock()
		var stuck []*conn
		for c := range s.conns {
			if since := c.inflightSince.Load(); since != 0 && since < cutoff {
				stuck = append(stuck, c)
			}
		}
		s.mu.Unlock()
		for _, c := range stuck {
			s.metrics.reqTimeouts.Inc()
			s.logf("request exceeded %v on %s; severing", s.cfg.RequestTimeout, c.nc.RemoteAddr())
			c.forceClose()
		}
	}
}

// Shutdown drains the server: the listener closes, new connections and new
// sessions are refused, and existing connections are given until the
// deadline (the context's, or DrainTimeout) to finish in-flight requests
// and close their sessions. A connection closes as soon as it is idle with
// no open sessions. Shutdown returns nil when every connection drained in
// time; if the deadline passes, the stragglers are force-closed and an
// error reports how many.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		s.metrics.drains.Inc()
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		deadline = time.Now().Add(s.cfg.DrainTimeout)
	}
	s.drainUntil.Store(deadline.UnixNano())
	if s.ln != nil {
		_ = s.ln.Close()
	}
	s.stopWatchdog()
	// Nudge every blocked reader: it wakes with a timeout error, sees the
	// drain flag, and either exits (no open sessions) or extends its
	// deadline to the drain deadline and keeps serving.
	s.mu.Lock()
	for c := range s.conns {
		_ = c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	select {
	case <-done:
		s.logf("drain complete")
		return nil
	case <-timer.C:
	case <-ctx.Done():
	}
	s.mu.Lock()
	n := len(s.conns)
	for c := range s.conns {
		c.forceClose()
	}
	s.mu.Unlock()
	<-done
	if n == 0 {
		return nil
	}
	return fmt.Errorf("server: drain deadline exceeded; %d connections force-closed", n)
}

// stopWatchdog closes watchStop; Shutdown and Close may each call it, in any
// order and more than once.
func (s *Server) stopWatchdog() {
	s.watchStopOnce.Do(func() { close(s.watchStop) })
}

// Close hard-stops the server: listener and every connection close
// immediately, without drain.
func (s *Server) Close() error {
	s.closed.Store(true)
	s.draining.Store(true)
	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	s.stopWatchdog()
	s.mu.Lock()
	for c := range s.conns {
		c.forceClose()
	}
	s.mu.Unlock()
	s.wg.Wait()
	if errors.Is(err, net.ErrClosed) {
		err = nil
	}
	return err
}

// maxStatements caps the statement table. Ids are never retired, so a client
// that inlines literals instead of binding parameters would otherwise grow
// server memory — each statement pins a compiled plan — without limit.
const maxStatements = 1024

var errStatementsFull = fmt.Errorf("statement table full (%d distinct statements): bind parameters instead of inlining literals", maxStatements)

// prepare returns the server-global statement id for the SQL text,
// preparing and caching it on first sight. The cache key is the canonical
// printed form, so formatting variants of one query share an entry. Past
// maxStatements distinct statements it returns errStatementsFull; ids
// already granted stay valid.
func (s *Server) prepare(text string) (uint32, error) {
	p, err := s.backend.Prepare(text)
	if err != nil {
		return 0, err
	}
	key := p.SQL()
	s.stmts.RLock()
	id, ok := s.stmts.ids[key]
	s.stmts.RUnlock()
	if ok {
		return id, nil
	}
	s.stmts.Lock()
	defer s.stmts.Unlock()
	if id, ok = s.stmts.ids[key]; ok {
		return id, nil
	}
	if len(s.stmts.list) >= maxStatements {
		return 0, errStatementsFull
	}
	s.stmts.list = append(s.stmts.list, p)
	id = uint32(len(s.stmts.list)) // ids start at 1; 0 is never granted
	s.stmts.ids[key] = id
	return id, nil
}

// stmt resolves a prepared-statement id.
func (s *Server) stmt(id uint32) BackendStmt {
	s.stmts.RLock()
	defer s.stmts.RUnlock()
	if id == 0 || int(id) > len(s.stmts.list) {
		return nil
	}
	return s.stmts.list[id-1]
}

// applyBatch runs one maintenance transaction over the wire deltas:
// begin, ApplyBatch, commit; any failure rolls back and reports.
func (s *Server) applyBatch(deltas []Delta) (BatchDone, error) {
	cd := make([]core.Delta, len(deltas))
	for i, d := range deltas {
		var op core.DeltaOp
		switch d.Op {
		case DeltaInsert:
			op = core.DeltaInsert
		case DeltaUpdate:
			op = core.DeltaUpdate
		case DeltaDelete:
			op = core.DeltaDelete
		default:
			return BatchDone{}, fmt.Errorf("unknown delta op 0x%02x", d.Op)
		}
		cd[i] = core.Delta{Table: d.Table, Op: op, Row: d.Row, Key: d.Key}
	}
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	vn, stats, err := s.backend.ApplyBatch(cd)
	if err != nil {
		return BatchDone{}, err
	}
	s.metrics.batches.Inc()
	return BatchDone{
		VN:      uint64(vn),
		Applied: uint32(stats.Applied),
		Missing: uint32(stats.Missing),
	}, nil
}

// outFrame is one response queued to a connection's writer goroutine: an
// encoded body, or a query result already encoded as a frame.
type outFrame struct {
	t    MsgType
	body []byte
	// enc, when non-nil, holds the MsgRows frame; written, it is released.
	enc *rowsEncoder
}

// encoder takes an encoder off the free list, or makes one, and resets it.
func (c *conn) encoder() (e *rowsEncoder) {
	select {
	case e = <-c.encs:
	default:
		e = &rowsEncoder{}
	}
	e.buf, e.rows = StartFrame(e.buf), 0
	return e
}

// release returns e to the free list unless it is full or e is too large.
func (c *conn) release(e *rowsEncoder) {
	if cap(e.buf) <= MaxRetainedFrame {
		select {
		case c.encs <- e:
		default:
		}
	}
}

// conn is one client connection: a reader goroutine that decodes and
// handles requests in order, and a writer goroutine that owns the buffered
// socket writer. Sessions live in the reader goroutine's map; the atomic
// counter mirrors the count for Shutdown's cross-goroutine inspection.
type conn struct {
	srv *Server
	nc  net.Conn
	out chan outFrame

	// sessions maps wire session ids to live reader sessions. Owned by
	// the reader goroutine; no lock needed.
	sessions map[uint32]BackendSession
	nextSID  uint32

	// rbuf and params belong to the reader goroutine: the buffer each
	// request frame is read into and the map its parameters decode into.
	// Both are reused request after request, so a request's body and
	// parameters are valid only until the next request is read. wbuf is the
	// writer goroutine's encode buffer, reused response after response.
	// Either buffer is dropped after a frame grew it past MaxRetainedFrame.
	// encs is the free list of result encoders (runQuery, writeLoop).
	rbuf   []byte
	params paramBuf
	wbuf   []byte
	encs   chan *rowsEncoder

	// nSessions mirrors len(sessions) for Shutdown and the drain check.
	nSessions atomic.Int64
	// inflightSince is the UnixNano start of the request being handled,
	// 0 when idle; the request watchdog reads it.
	inflightSince atomic.Int64

	closeOnce sync.Once
}

// forceClose severs the socket; both goroutines unwind on the resulting
// I/O errors.
func (c *conn) forceClose() {
	c.closeOnce.Do(func() { _ = c.nc.Close() })
}

func (c *conn) draining() bool { return c.srv.draining.Load() }

func (c *conn) readLoop() {
	defer c.srv.wg.Done()
	defer func() {
		// Close any sessions the client left open; their registry entries
		// would otherwise pin the GC floor forever.
		for _, sess := range c.sessions {
			sess.Close()
		}
		c.srv.metrics.wireSessions.Add(-c.nSessions.Load())
		c.nSessions.Store(0)
		c.srv.removeConn(c)
		close(c.out) // writer flushes queued responses, then closes the socket
	}()
	br := bufio.NewReader(c.nc)
	for {
		if d := c.srv.cfg.IdleTimeout; d > 0 && !c.draining() {
			_ = c.nc.SetReadDeadline(time.Now().Add(d))
		}
		t, body, buf, err := ReadFrameInto(br, c.rbuf)
		c.rbuf = RetainFrame(buf)
		if err != nil {
			if c.handleReadErr(err) {
				continue
			}
			return
		}
		c.inflightSince.Store(time.Now().UnixNano())
		resp := c.handle(t, body)
		c.inflightSince.Store(0)
		c.out <- resp
		if c.draining() && c.nSessions.Load() == 0 {
			// Drained: the in-flight request was answered (the writer
			// flushes the queue before closing) and no sessions remain.
			return
		}
	}
}

// handleReadErr classifies a read failure. It returns true when the reader
// should continue (a drain nudge woke a connection that still has open
// sessions), false to close the connection — after sending a BadFrame
// error for protocol-level garbage.
func (c *conn) handleReadErr(err error) bool {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		if !c.draining() {
			c.srv.logf("idle timeout on %s", c.nc.RemoteAddr())
			return false
		}
		if c.nSessions.Load() > 0 {
			// Woken by Shutdown's nudge mid-drain with sessions still
			// open: keep serving until the drain deadline.
			_ = c.nc.SetReadDeadline(time.Unix(0, c.srv.drainUntil.Load()))
			return true
		}
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, net.ErrClosed) {
		return false
	}
	// Frame-level garbage (bad length prefix, foreign version): tell the
	// client why before closing.
	c.out <- outFrame{t: MsgErr, body: wireErr(CodeBadFrame, err)}
	return false
}

func (c *conn) writeLoop() {
	defer c.srv.wg.Done()
	bw := bufio.NewWriter(c.nc)
	dead := false
	for f := range c.out {
		if dead {
			continue // drain the queue so the reader never blocks on send
		}
		if d := c.srv.cfg.WriteTimeout; d > 0 {
			_ = c.nc.SetWriteDeadline(time.Now().Add(d))
		}
		var err error
		if f.enc != nil {
			err = WriteFrameBuf(bw, f.t, f.enc.frame())
			c.release(f.enc)
		} else {
			frame := append(StartFrame(c.wbuf), f.body...)
			err = WriteFrameBuf(bw, f.t, frame)
			c.wbuf = RetainFrame(frame)
		}
		if err != nil {
			dead = true
			c.forceClose()
			continue
		}
		if len(c.out) == 0 {
			if err := bw.Flush(); err != nil {
				dead = true
				c.forceClose()
			}
		}
	}
	if !dead {
		if err := bw.Flush(); err != nil {
			c.srv.logf("final flush on %s: %v", c.nc.RemoteAddr(), err)
		}
	}
	c.forceClose()
}

// wireErr renders the MsgErr body for an error: the one place an internal
// error becomes wire bytes. The code is the stable contract clients
// dispatch on; the message is advisory detail. CodeInternal redacts the
// message — unexpected server-side failures carry paths and invariant
// names that belong in logs, not on a socket.
//
//vnlvet:errmap
func wireErr(code ErrCode, err error) []byte {
	msg := err.Error()
	if code == CodeInternal {
		msg = "internal server error"
	}
	return ErrMsg{Code: code, Msg: msg}.Encode()
}

// wireCode maps an execution error to its stable wire code. The sql
// package wraps every parse/lex error with "sql:", which is how a parse
// failure surfacing through Session.Query (it parses too) is told apart
// from an execution failure.
//
//vnlvet:errmap
func wireCode(err error) ErrCode {
	switch {
	case errors.Is(err, core.ErrSessionExpired):
		return CodeSessionExpired
	case errors.Is(err, core.ErrSessionClosed):
		return CodeSessionClosed
	}
	if strings.HasPrefix(err.Error(), "sql:") {
		return CodeParse
	}
	return CodeExec
}

// errResp builds a MsgErr response through the error-code mapping and
// counts it.
func (c *conn) errResp(code ErrCode, err error) outFrame {
	c.srv.metrics.requestErrs.Inc()
	return outFrame{t: MsgErr, body: wireErr(code, err)}
}

// errRespf is errResp for failures born on the serving path itself (an
// unknown session id, a wrong-direction message) — there is no internal
// error to leak, just a message to compose.
func (c *conn) errRespf(code ErrCode, format string, args ...any) outFrame {
	return c.errResp(code, fmt.Errorf(format, args...))
}

// handle dispatches one request and returns its response frame. It runs on
// the reader goroutine, so per-connection state needs no locking; queries
// execute on the store's lock-free reader path. body aliases the reader's
// frame buffer: handle copies out whatever the response keeps.
func (c *conn) handle(t MsgType, body []byte) outFrame {
	s := c.srv
	s.metrics.requests.Inc()
	start := time.Now()
	defer s.metrics.requestNS.ObserveSince(start)

	switch t {
	case MsgHello:
		h, err := DecodeHello(body)
		if err != nil {
			return c.errResp(CodeBadFrame, err)
		}
		s.logf("hello from %s (%q)", c.nc.RemoteAddr(), h.ClientName)
		vn := uint64(s.backend.CurrentVN())
		return outFrame{t: MsgWelcome, body: Welcome{
			Server:    ServerVersion,
			N:         uint32(s.backend.N()),
			VN:        vn,
			Replica:   s.cfg.Replica != nil,
			PrimaryVN: s.replVN(vn),
			Shards:    uint32(s.backend.Shards()),
		}.Encode()}

	case MsgPing:
		return outFrame{t: MsgOK}

	case MsgBeginSession:
		if c.draining() {
			return c.errRespf(CodeDraining, "server is draining; no new sessions")
		}
		sess, err := s.backend.BeginSession()
		if err != nil {
			return c.errResp(CodeInternal, err)
		}
		c.nextSID++
		sid := c.nextSID
		c.sessions[sid] = sess
		c.nSessions.Add(1)
		s.metrics.wireSessions.Add(1)
		vn := uint64(sess.VN())
		return outFrame{t: MsgSession, body: Session{SID: sid, VN: vn, PrimaryVN: s.replVN(vn)}.Encode()}

	case MsgEndSession:
		m, err := DecodeEndSession(body)
		if err != nil {
			return c.errResp(CodeBadFrame, err)
		}
		sess, ok := c.sessions[m.SID]
		if !ok {
			return c.errRespf(CodeNoSession, "no session %d on this connection", m.SID)
		}
		sess.Close()
		delete(c.sessions, m.SID)
		c.nSessions.Add(-1)
		s.metrics.wireSessions.Add(-1)
		return outFrame{t: MsgOK}

	case MsgQuery:
		q, err := decodeQuery(body, &c.params)
		if err != nil {
			return c.errResp(CodeBadFrame, err)
		}
		return c.runQuery(q.SID, func(sess BackendSession, sink exec.Sink) error {
			rows, err := sess.Query(q.SQL, q.Params)
			return exec.Feed(sink, rows, err)
		})

	case MsgPrepare:
		p, err := DecodePrepare(body)
		if err != nil {
			return c.errResp(CodeBadFrame, err)
		}
		id, err := s.prepare(p.SQL)
		if errors.Is(err, errStatementsFull) {
			return c.errResp(CodeTooBusy, err)
		}
		if err != nil {
			return c.errResp(CodeParse, err)
		}
		return outFrame{t: MsgPrepared, body: Prepared{StmtID: id}.Encode()}

	case MsgExecStmt:
		e, err := decodeExecStmt(body, &c.params)
		if err != nil {
			return c.errResp(CodeBadFrame, err)
		}
		p := s.stmt(e.StmtID)
		if p == nil {
			return c.errRespf(CodeNoStatement, "no prepared statement %d", e.StmtID)
		}
		return c.runQuery(e.SID, func(sess BackendSession, sink exec.Sink) error {
			if in, ok := sess.(intoSession); ok {
				return in.QueryPreparedInto(p, e.Params, sink)
			}
			rows, err := sess.QueryPrepared(p, e.Params)
			return exec.Feed(sink, rows, err)
		})

	case MsgApplyBatch:
		if s.cfg.Replica != nil {
			return c.errRespf(CodeReadOnly, "replica is read-only; apply maintenance batches to the primary")
		}
		b, err := DecodeApplyBatch(body)
		if err != nil {
			return c.errResp(CodeBadFrame, err)
		}
		done, err := s.applyBatch(b.Deltas)
		if err != nil {
			return c.errResp(CodeBatch, err)
		}
		return outFrame{t: MsgBatchDone, body: done.Encode()}

	case MsgReplPoll:
		m, err := DecodeReplPoll(body)
		if err != nil {
			return c.errResp(CodeBadFrame, err)
		}
		feed := s.cfg.ReplFeed
		if feed == nil {
			return c.errRespf(CodeNotPrimary, "this server serves no replication feed")
		}
		// A held poll is an in-flight request: clamp the hold below the
		// watchdog's cutoff (PollFeed clamps to replMaxWait regardless).
		if rt := s.cfg.RequestTimeout; rt > 0 {
			if lim := uint64(rt.Milliseconds() / 2); uint64(m.WaitMs) > lim {
				m.WaitMs = uint32(lim)
			}
		}
		seg, code, err := PollFeed(feed, func() uint64 { return uint64(s.backend.CurrentVN()) }, m)
		if err != nil {
			return c.errResp(code, err)
		}
		s.metrics.replPolls.Inc()
		s.metrics.replBytes.Add(int64(len(seg.Payload)))
		return outFrame{t: MsgReplSegment, body: seg.Encode()}

	case MsgWelcome, MsgOK, MsgRows, MsgSession, MsgPrepared, MsgBatchDone, MsgReplSegment, MsgErr:
		// Response types arriving at a server are a peer speaking the wrong
		// direction; answer them like any other malformed request.
		return c.errRespf(CodeBadFrame, "unexpected message type %v", t)

	default:
		return c.errRespf(CodeBadFrame, "unexpected message type %v", t)
	}
}

// runQuery resolves the session (0 = one-shot) and executes fn in it, into
// an encoder. The paper's reader guarantee carries through unchanged: the
// session's version pins the snapshot, and neither path takes the §3 latch.
// A failed query answers MsgErr alone; its encoder goes back to the list.
func (c *conn) runQuery(sid uint32, fn func(BackendSession, exec.Sink) error) outFrame {
	var sess BackendSession
	if sid == 0 {
		var err error
		if sess, err = c.srv.backend.BeginSession(); err != nil {
			return c.errResp(CodeInternal, err)
		}
		defer sess.Close()
	} else {
		var ok bool
		if sess, ok = c.sessions[sid]; !ok {
			return c.errRespf(CodeNoSession, "no session %d on this connection", sid)
		}
	}
	c.srv.metrics.queries.Inc()
	enc := c.encoder()
	if err := fn(sess, enc); err != nil {
		c.release(enc)
		return c.errResp(wireCode(err), err)
	}
	return outFrame{t: MsgRows, enc: enc}
}
