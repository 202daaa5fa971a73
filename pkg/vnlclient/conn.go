package vnlclient

import (
	"bufio"
	"fmt"
	"net"
	"time"

	"repro/internal/server"
)

// wireConn is one framed TCP connection. It is not safe for concurrent
// use; the Client pool and the Session mutex serialize access.
type wireConn struct {
	nc      net.Conn
	br      *bufio.Reader
	welcome server.Welcome
	// rbuf is the buffer responses are read into and wbuf the one requests
	// are encoded into, each reused by every round trip. A response body
	// aliases rbuf, so whoever holds the connection decodes it before
	// letting go: under Session.mu, or before the pool checkout ends
	// (Client.do). Either buffer is dropped after a frame grew it past
	// server.MaxRetainedFrame.
	rbuf, wbuf []byte
	// opTimeout bounds each round trip (Options.OpTimeout, resolved).
	opTimeout time.Duration
	// broken marks a connection that failed mid-exchange; the pool drops
	// it instead of recycling.
	broken bool
}

func newWireConn(nc net.Conn, opTimeout time.Duration) *wireConn {
	return &wireConn{
		nc:        nc,
		br:        bufio.NewReader(nc),
		opTimeout: opTimeout,
	}
}

// roundTrip writes one request frame, its body appended by enc (nil for an
// empty body), and reads the matched response. The protocol is strictly
// request/response per connection, so the next frame is always the answer.
// Each round trip arms the connection deadline first, so a stalled or
// vanished server surfaces as a timeout error instead of wedging the caller
// (and its pool slot) forever. The response body is valid until the
// connection's next round trip.
func (w *wireConn) roundTrip(t server.MsgType, enc func([]byte) []byte) (server.MsgType, []byte, error) {
	if w.opTimeout > 0 {
		_ = w.nc.SetDeadline(time.Now().Add(w.opTimeout))
	}
	frame := server.StartFrame(w.wbuf)
	if enc != nil {
		frame = enc(frame)
	}
	err := server.WriteFrameBuf(w.nc, t, frame)
	w.wbuf = server.RetainFrame(frame)
	if err != nil {
		w.broken = true
		return 0, nil, err
	}
	rt, rbody, buf, err := server.ReadFrameInto(w.br, w.rbuf)
	w.rbuf = server.RetainFrame(buf)
	if err != nil {
		w.broken = true
		return 0, nil, err
	}
	return rt, rbody, nil
}

// handshake sends Hello and validates the Welcome. A server that answers
// with MsgErr (draining, too busy) surfaces that error so the dialer can
// decide whether to retry.
func (w *wireConn) handshake(clientName string) (server.Welcome, error) {
	rt, body, err := w.roundTrip(server.MsgHello, server.Hello{ClientName: clientName}.Append)
	if err != nil {
		return server.Welcome{}, err
	}
	switch rt {
	case server.MsgWelcome:
		return server.DecodeWelcome(body)
	case server.MsgErr:
		return server.Welcome{}, answer(rt, body, nil)
	case server.MsgHello, server.MsgPing, server.MsgQuery, server.MsgBeginSession,
		server.MsgEndSession, server.MsgPrepare, server.MsgExecStmt, server.MsgApplyBatch,
		server.MsgReplPoll, server.MsgOK, server.MsgRows, server.MsgSession,
		server.MsgPrepared, server.MsgBatchDone, server.MsgReplSegment:
		// Known types that are never a legal handshake answer: same failure
		// as an unknown future type, listed so msgexhaustive proves every
		// kind was considered.
		return server.Welcome{}, fmt.Errorf("vnlclient: handshake answered with %v", rt)
	default:
		return server.Welcome{}, fmt.Errorf("vnlclient: handshake answered with %v", rt)
	}
}

// answer hands a response to dec (nil when there is nothing to decode),
// or returns the server's error for a MsgErr.
func answer(rt server.MsgType, body []byte, dec func(server.MsgType, []byte) error) error {
	if rt == server.MsgErr {
		e, err := server.DecodeErrMsg(body)
		if err != nil {
			return err
		}
		return &Error{Code: e.Code, Msg: e.Msg}
	}
	if dec == nil {
		return nil
	}
	return dec(rt, body)
}

func (w *wireConn) close() {
	w.broken = true
	_ = w.nc.Close()
}
