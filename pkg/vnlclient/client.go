// Package vnlclient is the Go client for vnlserver's binary protocol (see
// PROTOCOL.md): connection pooling with retry on transient dial failures,
// one-shot and session-pinned queries, server-side prepared statements, and
// maintenance delta batches.
//
// The client is safe for concurrent use. One-shot calls (Query, Prepare,
// Stmt.Query, Ping) borrow a pooled connection per call; Begin pins a
// connection to the returned Session until Close, because server-side
// reader sessions are connection-scoped. Prepared-statement ids are
// server-global, so a Stmt works on every connection and inside every
// Session of its Client.
package vnlclient

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/server"
)

// Wire types shared with the server package: the protocol structs are the
// client's vocabulary too.
type (
	// Rows is a query result: column names and tuples. The Columns of a
	// result of a Stmt may be shared with the statement's other results,
	// so treat them as read-only.
	Rows = server.Rows
	// Delta is one logical maintenance operation of a batch.
	Delta = server.Delta
	// BatchResult reports a committed maintenance batch.
	BatchResult = server.BatchDone
	// Error is a server-reported failure, carrying its wire error code.
	Error = server.WireError
	// Code classifies an Error.
	Code = server.ErrCode
)

// Params carries named query parameters.
type Params = map[string]catalog.Value

// Delta op codes.
const (
	DeltaInsert = server.DeltaInsert
	DeltaUpdate = server.DeltaUpdate
	DeltaDelete = server.DeltaDelete
)

// Error codes a caller is likely to branch on.
const (
	CodeSessionExpired = server.CodeSessionExpired
	CodeDraining       = server.CodeDraining
	CodeTooBusy        = server.CodeTooBusy
	CodeParse          = server.CodeParse
	CodeExec           = server.CodeExec
	CodeNotPrimary     = server.CodeNotPrimary
	CodeReadOnly       = server.CodeReadOnly
	CodeReplRange      = server.CodeReplRange
)

// ErrClosed is returned by operations on a closed Client or Session.
var ErrClosed = errors.New("vnlclient: closed")

// ErrTooStale is returned by Begin when the server is a replica lagging
// beyond Options.MaxStalenessVNs.
var ErrTooStale = errors.New("vnlclient: replica session exceeds the staleness bound")

// ErrorCode extracts the wire code from a server-reported error.
func ErrorCode(err error) (Code, bool) {
	var we *Error
	if errors.As(err, &we) {
		return we.Code, true
	}
	return 0, false
}

// Options tunes a Client. The zero value selects the defaults.
type Options struct {
	// DialTimeout bounds each TCP dial attempt. Default 5s.
	DialTimeout time.Duration
	// DialAttempts is the number of dial attempts before giving up; dial
	// failures (including a server answering too-busy or draining during
	// the handshake) are retried with backoff. Default 3.
	DialAttempts int
	// RetryBackoff is the initial inter-attempt backoff, doubling per
	// attempt. Default 50ms.
	RetryBackoff time.Duration
	// MaxIdle bounds pooled idle connections. Default 2.
	MaxIdle int
	// OpTimeout bounds each request/response round trip on a connection
	// (armed as the conn deadline before every exchange). Default 30s; a
	// negative value disables the deadline for callers that genuinely
	// want to wait forever.
	OpTimeout time.Duration
	// ClientName is sent in the handshake and appears in server logs.
	ClientName string
	// MaxStalenessVNs bounds how far behind its primary a replica may be
	// when Begin pins a session: if the server reports
	// PrimaryVN − VN > MaxStalenessVNs, the session is ended server-side
	// and Begin returns ErrTooStale. 0 disables the guard (any lag is
	// accepted); the guard never fires against a non-replica server, whose
	// PrimaryVN equals its VN.
	MaxStalenessVNs uint64
}

func (o Options) withDefaults() Options {
	if o.DialTimeout == 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.DialAttempts == 0 {
		o.DialAttempts = 3
	}
	if o.RetryBackoff == 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	if o.MaxIdle == 0 {
		o.MaxIdle = 2
	}
	switch {
	case o.OpTimeout == 0:
		o.OpTimeout = 30 * time.Second
	case o.OpTimeout < 0:
		o.OpTimeout = 0
	}
	if o.ClientName == "" {
		o.ClientName = "vnlclient"
	}
	return o
}

// Client is a pooled connection to one vnlserver.
type Client struct {
	addr string
	opts Options

	// welcome is the handshake of the first established connection; the
	// server's identity (name, N, replica-ness) is stable across the pool.
	welcome server.Welcome

	mu     sync.Mutex
	idle   []*wireConn
	closed bool
}

// Dial connects to a vnlserver, validating the handshake before returning.
func Dial(addr string, opts Options) (*Client, error) {
	c := &Client{addr: addr, opts: opts.withDefaults()}
	wc, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.welcome = wc.welcome
	c.put(wc)
	return c, nil
}

// IsReplica reports whether the server identified itself as a read-only
// replication follower in the handshake.
func (c *Client) IsReplica() bool { return c.welcome.Replica }

// Shards is the server's partition width from the handshake: 1 for a
// single store (or a server predating sharding), N for a hash-sharded
// server. Purely informational — routing, fan-out, and the cross-shard
// epoch are all server-side, so a client speaks to any width identically.
func (c *Client) Shards() int {
	if c.welcome.Shards == 0 {
		return 1
	}
	return int(c.welcome.Shards)
}

// Close closes the client and its pooled connections. Sessions begun from
// this client hold their own connections and must be closed separately.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = nil
	c.closed = true
	c.mu.Unlock()
	for _, wc := range idle {
		wc.close()
	}
	return nil
}

// dial opens and handshakes one connection, retrying transient failures
// (refused/timeout dials, and busy/draining handshake rejections) with
// exponential backoff.
func (c *Client) dial() (*wireConn, error) {
	var lastErr error
	backoff := c.opts.RetryBackoff
	for attempt := 0; attempt < c.opts.DialAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(backoff)
			backoff *= 2
		}
		nc, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		wc := newWireConn(nc, c.opts.OpTimeout)
		w, err := wc.handshake(c.opts.ClientName)
		if err != nil {
			wc.close()
			lastErr = err
			// Busy/draining rejections and raw I/O failures are worth
			// another attempt; a protocol-level rejection of any other
			// kind will not improve with retries.
			if code, ok := ErrorCode(err); ok && code != CodeTooBusy && code != CodeDraining {
				return nil, err
			}
			continue
		}
		wc.welcome = w
		return wc, nil
	}
	return nil, fmt.Errorf("vnlclient: dialing %s: %w", c.addr, lastErr)
}

// get returns a pooled connection when one is idle, dialing otherwise.
// reused reports whether the connection served earlier traffic (a stale
// pooled connection may have been closed server-side, so its first failure
// is retried on a fresh one).
func (c *Client) get() (wc *wireConn, reused bool, err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, false, ErrClosed
	}
	if n := len(c.idle); n > 0 {
		wc = c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		return wc, true, nil
	}
	c.mu.Unlock()
	wc, err = c.dial()
	return wc, false, err
}

// put returns a healthy connection to the pool.
func (c *Client) put(wc *wireConn) {
	if wc.broken {
		wc.close()
		return
	}
	c.mu.Lock()
	if c.closed || len(c.idle) >= c.opts.MaxIdle {
		c.mu.Unlock()
		wc.close()
		return
	}
	c.idle = append(c.idle, wc)
	c.mu.Unlock()
}

// do runs one request/response exchange on a pooled connection: enc
// appends the request body (nil for none), and dec decodes the answer
// before the connection goes back to the pool, whose next borrower reuses
// its read buffer. A MsgErr answer is returned as an *Error instead. When
// retryReused is true and the exchange fails on its first I/O against a
// pooled (previously used) connection, the request is replayed once on a
// fresh connection — the standard cure for pool members the server closed
// while idle (e.g. across a drain).
func (c *Client) do(t server.MsgType, enc func([]byte) []byte, retryReused bool, dec func(server.MsgType, []byte) error) error {
	wc, reused, err := c.get()
	if err != nil {
		return err
	}
	rt, rbody, err := wc.roundTrip(t, enc)
	if err != nil {
		wc.close()
		if !(reused && retryReused) {
			return err
		}
		if wc, err = c.dial(); err != nil {
			return err
		}
		if rt, rbody, err = wc.roundTrip(t, enc); err != nil {
			wc.close()
			return err
		}
	}
	err = answer(rt, rbody, dec)
	c.put(wc)
	return err
}

// Ping round-trips a liveness probe.
func (c *Client) Ping() error {
	return c.do(server.MsgPing, nil, true, func(rt server.MsgType, _ []byte) error {
		if rt != server.MsgOK {
			return fmt.Errorf("vnlclient: ping answered with %v", rt)
		}
		return nil
	})
}

// Query runs one SELECT in a one-shot server-side session.
func (c *Client) Query(sqlText string, params Params) (rows *Rows, err error) {
	err = c.do(server.MsgQuery, server.Query{SQL: sqlText, Params: params}.Append, true,
		func(rt server.MsgType, body []byte) (err error) {
			rows, err = decodeRows(rt, body, nil)
			return err
		})
	return rows, err
}

// Prepare parses a SELECT into the server's shared statement cache and
// returns a handle valid on every connection of this client.
func (c *Client) Prepare(sqlText string) (*Stmt, error) {
	var p server.Prepared
	err := c.do(server.MsgPrepare, server.Prepare{SQL: sqlText}.Append, true,
		func(rt server.MsgType, body []byte) (err error) {
			if rt != server.MsgPrepared {
				return fmt.Errorf("vnlclient: prepare answered with %v", rt)
			}
			p, err = server.DecodePrepared(body)
			return err
		})
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, id: p.StmtID, sql: sqlText}, nil
}

// ApplyBatch submits one maintenance transaction. It is not retried on
// connection failure — the server may have committed before the link died;
// the caller decides how to reconcile.
func (c *Client) ApplyBatch(deltas []Delta) (res BatchResult, err error) {
	err = c.do(server.MsgApplyBatch, server.ApplyBatch{Deltas: deltas}.Append, false,
		func(rt server.MsgType, body []byte) (err error) {
			if rt != server.MsgBatchDone {
				return fmt.Errorf("vnlclient: batch answered with %v", rt)
			}
			res, err = server.DecodeBatchDone(body)
			return err
		})
	return res, err
}

// PollRepl runs one replication poll: it asks the primary for log bytes
// from fromLSN, waiting up to wait for new durable bytes when already at
// the durable end (the server clamps the hold to its own bound). epoch 0
// learns the primary's epoch from the reply; maxBytes 0 accepts the
// server's default segment size. pinned advertises the follower's GC pin —
// the slowest version its reader sessions still need, 0 for none — which a
// pin-tracking primary uses to clamp its GC floor. Retrying on a reused
// pooled connection is safe — a poll is a pure read.
func (c *Client) PollRepl(epoch, fromLSN, pinned uint64, maxBytes uint32, wait time.Duration) (seg server.ReplSegment, err error) {
	m := server.ReplPoll{Epoch: epoch, FromLSN: fromLSN, MaxBytes: maxBytes, PinnedVN: pinned}
	if wait > 0 {
		if ot := c.opts.OpTimeout; ot > 0 && wait > ot/2 {
			// The hold must end well inside the op deadline or every quiet
			// poll reads as a dead server.
			wait = ot / 2
		}
		m.WaitMs = uint32(wait.Milliseconds())
	}
	err = c.do(server.MsgReplPoll, m.Append, true, func(rt server.MsgType, body []byte) (err error) {
		if rt != server.MsgReplSegment {
			return fmt.Errorf("vnlclient: repl poll answered with %v", rt)
		}
		seg, err = server.DecodeReplSegment(body)
		return err
	})
	return seg, err
}

// Stmt is a server-side prepared SELECT.
type Stmt struct {
	c   *Client
	id  uint32
	sql string
	// cols holds the column names of the statement's latest result. A
	// result carrying the same names shares them instead of decoding them
	// again.
	cols atomic.Pointer[[]string]
}

// SQL returns the statement's original text.
func (st *Stmt) SQL() string { return st.sql }

// Query executes the statement in a one-shot session.
func (st *Stmt) Query(params Params) (rows *Rows, err error) {
	err = st.c.do(server.MsgExecStmt, server.ExecStmt{StmtID: st.id, Params: params}.Append, true,
		func(rt server.MsgType, body []byte) (err error) {
			rows, err = st.decodeRows(rt, body)
			return err
		})
	return rows, err
}

// decodeRows decodes one of the statement's results, sharing the column
// names of the previous one when they are the same.
func (st *Stmt) decodeRows(rt server.MsgType, body []byte) (*Rows, error) {
	var prev []string
	if p := st.cols.Load(); p != nil {
		prev = *p
	}
	rows, err := decodeRows(rt, body, prev)
	if err != nil {
		return nil, err
	}
	if cols := rows.Columns; len(cols) > 0 && (len(prev) == 0 || &cols[0] != &prev[0]) {
		st.cols.Store(&cols)
	}
	return rows, nil
}

// Session is a reader session pinned to one connection: every query it runs
// observes the database version captured at Begin, per the paper's session
// consistency guarantee, until Close or expiry (ErrorCode ==
// CodeSessionExpired).
type Session struct {
	c  *Client
	mu sync.Mutex
	wc *wireConn
	// sid is the connection-scoped session id; vn the pinned version;
	// primaryVN the primary's version the server reported at Begin (equal
	// to vn on a non-replica server).
	sid       uint32
	vn        uint64
	primaryVN uint64
	closed    bool
}

// Begin opens a reader session at the server's current version.
func (c *Client) Begin() (*Session, error) {
	wc, reused, err := c.get()
	if err != nil {
		return nil, err
	}
	rt, rbody, err := wc.roundTrip(server.MsgBeginSession, nil)
	if err != nil {
		wc.close()
		if !reused {
			return nil, err
		}
		// The pooled connection was stale; one fresh attempt.
		if wc, err = c.dial(); err != nil {
			return nil, err
		}
		if rt, rbody, err = wc.roundTrip(server.MsgBeginSession, nil); err != nil {
			wc.close()
			return nil, err
		}
	}
	if rt == server.MsgErr {
		err := answer(rt, rbody, nil)
		c.put(wc)
		return nil, err
	}
	if rt != server.MsgSession {
		wc.close()
		return nil, fmt.Errorf("vnlclient: begin answered with %v", rt)
	}
	sm, err := server.DecodeSession(rbody)
	if err != nil {
		wc.close()
		return nil, err
	}
	if lim := c.opts.MaxStalenessVNs; lim > 0 && sm.PrimaryVN > sm.VN && sm.PrimaryVN-sm.VN > lim {
		// End the just-opened server-side session before refusing it, so
		// the replica's GC floor does not stay pinned by a session nobody
		// will read from.
		if _, _, err := wc.roundTrip(server.MsgEndSession, server.EndSession{SID: sm.SID}.Append); err != nil {
			wc.close()
		} else {
			c.put(wc)
		}
		return nil, fmt.Errorf("%w: session VN %d, primary VN %d, bound %d",
			ErrTooStale, sm.VN, sm.PrimaryVN, lim)
	}
	return &Session{c: c, wc: wc, sid: sm.SID, vn: sm.VN, primaryVN: sm.PrimaryVN}, nil
}

// VN returns the database version the session reads.
func (s *Session) VN() uint64 { return s.vn }

// PrimaryVN returns the primary's version the server reported at Begin;
// on a non-replica server it equals VN.
func (s *Session) PrimaryVN() uint64 { return s.primaryVN }

// Lag returns how many versions behind its primary this session began
// (always 0 against a non-replica server).
func (s *Session) Lag() uint64 {
	if s.primaryVN > s.vn {
		return s.primaryVN - s.vn
	}
	return 0
}

// do runs one exchange on the session's pinned connection, decoding the
// answer with dec while it still holds the session, since the answer
// aliases the connection's read buffer.
func (s *Session) do(t server.MsgType, enc func([]byte) []byte, dec func(server.MsgType, []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	rt, rbody, err := s.wc.roundTrip(t, enc)
	if err != nil {
		// The pinned connection is gone and the server-side session with
		// it; there is nothing to retry onto.
		s.closed = true
		s.wc.close()
		return err
	}
	return answer(rt, rbody, dec)
}

// Query runs a SELECT at the session's version.
func (s *Session) Query(sqlText string, params Params) (rows *Rows, err error) {
	err = s.do(server.MsgQuery, server.Query{SID: s.sid, SQL: sqlText, Params: params}.Append,
		func(rt server.MsgType, body []byte) (err error) {
			rows, err = decodeRows(rt, body, nil)
			return err
		})
	return rows, err
}

// QueryStmt runs a prepared SELECT at the session's version.
func (s *Session) QueryStmt(st *Stmt, params Params) (rows *Rows, err error) {
	if st.c != s.c {
		return nil, fmt.Errorf("vnlclient: statement prepared on a different client")
	}
	err = s.do(server.MsgExecStmt, server.ExecStmt{SID: s.sid, StmtID: st.id, Params: params}.Append,
		func(rt server.MsgType, body []byte) (err error) {
			rows, err = st.decodeRows(rt, body)
			return err
		})
	return rows, err
}

// Close ends the session and returns its connection to the pool. Closing a
// closed session is a no-op.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	rt, rbody, err := s.wc.roundTrip(server.MsgEndSession, server.EndSession{SID: s.sid}.Append)
	if err != nil {
		s.wc.close()
		return err
	}
	err = answer(rt, rbody, nil)
	s.c.put(s.wc)
	return err
}

// decodeRows decodes a MsgRows answer; cols, when not nil, are the column
// names the caller expects (server.DecodeRowsCols).
func decodeRows(rt server.MsgType, body []byte, cols []string) (*Rows, error) {
	if rt != server.MsgRows {
		return nil, fmt.Errorf("vnlclient: query answered with %v", rt)
	}
	r, err := server.DecodeRowsCols(body, cols)
	if err != nil {
		return nil, err
	}
	return &r, nil
}
