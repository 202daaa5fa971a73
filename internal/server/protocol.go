// Package server is the network front end for the 2VNL/nVNL store: a
// concurrent TCP server speaking a length-prefixed binary protocol (see
// PROTOCOL.md for the normative spec), with every connection's reader
// sessions mapped onto the store's lock-free snapshot path so the paper's
// non-blocking-readers property survives the network hop, plus an HTTP
// sidecar exporting /metrics, /healthz, and /readyz.
//
// This file is the wire format: framing, message types, error codes, and
// the encoders/decoders both the server and pkg/vnlclient use. Decoders are
// total — any byte sequence either decodes or returns an error; they never
// panic — a property pinned by FuzzFrameDecode.
//
// Every message has Encode, which renders its body into a fresh slice, and
// Append, which appends the body to a caller's buffer. A connection end
// encodes into one buffer it reuses frame after frame (StartFrame,
// WriteFrameBuf) and reads into another (ReadFrameInto).
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"repro/internal/catalog"
)

// ProtocolVersion is the version byte carried by every frame. A peer that
// receives a frame with a different version must reject it with
// CodeBadVersion (or close); incompatible wire changes bump this byte, which
// is placed before the message type so future versions can redefine
// everything after it.
const ProtocolVersion byte = 1

// MaxFrame bounds a frame's payload (version byte + type byte + body). A
// length prefix larger than this is rejected before any allocation, so a
// malformed or hostile prefix cannot balloon memory.
const MaxFrame = 16 << 20

// MaxRetainedFrame caps the buffer either end of a connection keeps between
// frames. A read or encode buffer that one large frame grew past it is
// dropped once that frame is done (RetainFrame), so what a connection holds
// while idle has a ceiling, whatever its largest result was.
const MaxRetainedFrame = 64 << 10

// frameHeader is the part of a frame before its body: the length prefix, the
// version byte and the type byte.
const frameHeader = 6

// MsgType identifies a message. Requests (client → server) occupy 0x01..0x7f;
// responses (server → client) occupy 0x80..0xff. The wire-enum directive
// makes vnlvet's msgexhaustive analyzer require every switch over MsgType to
// name all declared constants — adding a message kind without touching every
// dispatch point is a lint error, not a runtime surprise.
//
//vnlvet:wire-enum
type MsgType byte

const (
	// Requests.
	MsgHello        MsgType = 0x01 // open a connection: client name
	MsgPing         MsgType = 0x02 // liveness probe → MsgOK
	MsgQuery        MsgType = 0x03 // one SELECT, by SQL text → MsgRows
	MsgBeginSession MsgType = 0x04 // open a reader session → MsgSession
	MsgEndSession   MsgType = 0x05 // close a reader session → MsgOK
	MsgPrepare      MsgType = 0x06 // parse + cache a SELECT → MsgPrepared
	MsgExecStmt     MsgType = 0x07 // execute a prepared SELECT → MsgRows
	MsgApplyBatch   MsgType = 0x08 // one maintenance delta batch → MsgBatchDone
	MsgReplPoll     MsgType = 0x09 // replication long-poll for WAL bytes → MsgReplSegment

	// Responses.
	MsgWelcome     MsgType = 0x81 // answer to MsgHello
	MsgOK          MsgType = 0x82 // empty success
	MsgRows        MsgType = 0x83 // query result
	MsgSession     MsgType = 0x84 // answer to MsgBeginSession
	MsgPrepared    MsgType = 0x85 // answer to MsgPrepare
	MsgBatchDone   MsgType = 0x86 // answer to MsgApplyBatch
	MsgReplSegment MsgType = 0x87 // answer to MsgReplPoll
	MsgErr         MsgType = 0xff // any request can fail with this
)

// String names the message type for errors and logs.
func (t MsgType) String() string {
	switch t {
	case MsgHello:
		return "Hello"
	case MsgPing:
		return "Ping"
	case MsgQuery:
		return "Query"
	case MsgBeginSession:
		return "BeginSession"
	case MsgEndSession:
		return "EndSession"
	case MsgPrepare:
		return "Prepare"
	case MsgExecStmt:
		return "ExecStmt"
	case MsgApplyBatch:
		return "ApplyBatch"
	case MsgReplPoll:
		return "ReplPoll"
	case MsgWelcome:
		return "Welcome"
	case MsgOK:
		return "OK"
	case MsgRows:
		return "Rows"
	case MsgSession:
		return "Session"
	case MsgPrepared:
		return "Prepared"
	case MsgBatchDone:
		return "BatchDone"
	case MsgReplSegment:
		return "ReplSegment"
	case MsgErr:
		return "Err"
	default:
		return fmt.Sprintf("MsgType(0x%02x)", byte(t))
	}
}

// ErrCode classifies a MsgErr. Codes are stable wire values; add new codes
// at the end. Like MsgType, the wire-enum directive holds every switch over
// ErrCode to full coverage.
//
//vnlvet:wire-enum
type ErrCode uint16

const (
	CodeBadFrame       ErrCode = 1  // malformed frame or message body
	CodeBadVersion     ErrCode = 2  // protocol version mismatch
	CodeParse          ErrCode = 3  // SQL failed to parse
	CodeExec           ErrCode = 4  // query execution failed
	CodeNoSession      ErrCode = 5  // unknown session id
	CodeSessionExpired ErrCode = 6  // reader session expired (§3.2/§5)
	CodeSessionClosed  ErrCode = 7  // session already closed
	CodeNoStatement    ErrCode = 8  // unknown prepared-statement id
	CodeBatch          ErrCode = 9  // maintenance batch failed and was rolled back
	CodeDraining       ErrCode = 10 // server is draining; retry elsewhere
	CodeTooBusy        ErrCode = 11 // connection limit reached
	CodeInternal       ErrCode = 12 // unexpected server-side failure
	CodeNotPrimary     ErrCode = 13 // no replication feed on this server
	CodeReadOnly       ErrCode = 14 // replica refuses writes; apply to the primary
	CodeReplRange      ErrCode = 15 // replication epoch or LSN out of range (follower diverged)
)

// String names the error code.
func (c ErrCode) String() string {
	switch c {
	case CodeBadFrame:
		return "bad_frame"
	case CodeBadVersion:
		return "bad_version"
	case CodeParse:
		return "parse"
	case CodeExec:
		return "exec"
	case CodeNoSession:
		return "no_session"
	case CodeSessionExpired:
		return "session_expired"
	case CodeSessionClosed:
		return "session_closed"
	case CodeNoStatement:
		return "no_statement"
	case CodeBatch:
		return "batch"
	case CodeDraining:
		return "draining"
	case CodeTooBusy:
		return "too_busy"
	case CodeInternal:
		return "internal"
	case CodeNotPrimary:
		return "not_primary"
	case CodeReadOnly:
		return "read_only"
	case CodeReplRange:
		return "repl_range"
	default:
		return fmt.Sprintf("ErrCode(%d)", uint16(c))
	}
}

// WireError is a MsgErr surfaced as a Go error (pkg/vnlclient returns these
// to callers verbatim).
type WireError struct {
	Code ErrCode
	Msg  string
}

func (e *WireError) Error() string {
	return fmt.Sprintf("vnlserver: %s: %s", e.Code, e.Msg)
}

// WriteFrame writes one frame: a 4-byte big-endian length prefix covering
// the rest of the frame, the protocol version byte, the message type, and
// the body.
func WriteFrame(w io.Writer, t MsgType, body []byte) error {
	if len(body)+2 > MaxFrame {
		return fmt.Errorf("server: frame body of %d bytes exceeds MaxFrame", len(body))
	}
	hdr := [frameHeader]byte{}
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+2))
	hdr[4] = ProtocolVersion
	hdr[5] = byte(t)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// StartFrame empties buf, the caller's encode buffer, and reserves room for a
// frame header at its front. Append a message body to the result and send it
// with WriteFrameBuf.
func StartFrame(buf []byte) []byte {
	return append(buf[:0], 0, 0, 0, 0, 0, 0)
}

// WriteFrameBuf writes a frame built on StartFrame: it fills in the header
// StartFrame reserved and writes the frame in one call, so the header needs
// no buffer of its own. Like WriteFrame, it refuses a body over MaxFrame.
func WriteFrameBuf(w io.Writer, t MsgType, frame []byte) error {
	if len(frame) < frameHeader {
		return fmt.Errorf("server: %d-byte frame has no room for its header", len(frame))
	}
	body := len(frame) - frameHeader
	if body+2 > MaxFrame {
		return fmt.Errorf("server: frame body of %d bytes exceeds MaxFrame", body)
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(body+2))
	frame[4] = ProtocolVersion
	frame[5] = byte(t)
	_, err := w.Write(frame)
	return err
}

// RetainFrame returns buf for a connection end to keep for its next frame,
// or nil when a large frame grew it past MaxRetainedFrame.
func RetainFrame(buf []byte) []byte {
	if cap(buf) > MaxRetainedFrame {
		return nil
	}
	return buf
}

// ReadFrame reads one frame, enforcing MaxFrame before allocating. A short
// read, an undersized or oversized length prefix, or a foreign protocol
// version is an error; ReadFrame never panics on any input.
func ReadFrame(r io.Reader) (MsgType, []byte, error) {
	t, body, _, err := readFrame(r, nil)
	return t, body, err
}

// ReadFrameInto is ReadFrame reading into buf, the caller's read buffer. The
// header goes through buf too, and buf grows only when the frame does not
// fit, after the MaxFrame check; the buffer to keep for the next frame is
// returned in every case. The body aliases that buffer, so it is valid until
// the next frame is read into it: decode it first (the Decode functions copy
// out whatever they keep).
func ReadFrameInto(r io.Reader, buf []byte) (MsgType, []byte, []byte, error) {
	return readFrame(r, buf)
}

// readFrame is the body ReadFrame and ReadFrameInto share. It is unexported
// so that neither calls the other: deadlinebound holds every caller of a
// ReadFrame* function to arming a deadline, and these two only take an
// io.Reader.
func readFrame(r io.Reader, buf []byte) (MsgType, []byte, []byte, error) {
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, buf, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n < 2 {
		return 0, nil, buf, fmt.Errorf("server: frame length %d below minimum of 2", n)
	}
	if n > MaxFrame {
		return 0, nil, buf, fmt.Errorf("server: frame length %d exceeds MaxFrame %d", n, MaxFrame)
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, fmt.Errorf("server: truncated frame: %w", err)
	}
	if payload[0] != ProtocolVersion {
		return 0, nil, buf, fmt.Errorf("server: protocol version %d, want %d", payload[0], ProtocolVersion)
	}
	return MsgType(payload[1]), payload[2:], buf, nil
}

// Value wire kinds (same shape as the WAL's value encoding; duplicated here
// because the wire format must be able to evolve independently of the log).
const (
	wireNull byte = iota
	wireInt
	wireFloat
	wireString
	wireBool
	wireDate
)

// appendValue encodes one catalog value.
func appendValue(buf []byte, v catalog.Value) []byte {
	switch v.Kind() {
	case catalog.TypeNull:
		return append(buf, wireNull)
	case catalog.TypeInt:
		buf = append(buf, wireInt)
		return binary.AppendVarint(buf, v.Int())
	case catalog.TypeFloat:
		buf = append(buf, wireFloat)
		return binary.BigEndian.AppendUint64(buf, math.Float64bits(v.Float()))
	case catalog.TypeString:
		buf = append(buf, wireString)
		return appendString(buf, v.Str())
	case catalog.TypeBool:
		b := byte(0)
		if v.Bool() {
			b = 1
		}
		return append(buf, wireBool, b)
	case catalog.TypeDate:
		buf = append(buf, wireDate)
		return binary.AppendVarint(buf, v.Days())
	default:
		// Unreachable for catalog-constructed values; encode as NULL rather
		// than panicking a connection goroutine.
		return append(buf, wireNull)
	}
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendTuple(buf []byte, t catalog.Tuple) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(t)))
	for _, v := range t {
		buf = appendValue(buf, v)
	}
	return buf
}

// wireReader decodes a message body with bounds checking on every read.
type wireReader struct {
	b []byte
}

func (r *wireReader) remaining() int { return len(r.b) }

func (r *wireReader) byte() (byte, error) {
	if len(r.b) == 0 {
		return 0, fmt.Errorf("server: truncated message")
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v, nil
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("server: bad uvarint")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *wireReader) varint() (int64, error) {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		return 0, fmt.Errorf("server: bad varint")
	}
	r.b = r.b[n:]
	return v, nil
}

func (r *wireReader) uint64() (uint64, error) {
	if len(r.b) < 8 {
		return 0, fmt.Errorf("server: truncated uint64")
	}
	v := binary.BigEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v, nil
}

// raw reads a uvarint-length-prefixed byte run without copying it: the
// result aliases the body. The length is bounds-checked against the
// remaining body, so a forged length cannot reach past the frame.
func (r *wireReader) raw() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(r.b)) {
		return nil, fmt.Errorf("server: length %d exceeds remaining %d bytes", n, len(r.b))
	}
	p := r.b[:n]
	r.b = r.b[n:]
	return p, nil
}

func (r *wireReader) str() (string, error) {
	p, err := r.raw()
	return string(p), err
}

// bytes reads a uvarint-length-prefixed byte slice into a copy of its own.
func (r *wireReader) bytes() ([]byte, error) {
	p, err := r.raw()
	if err != nil {
		return nil, err
	}
	return append(make([]byte, 0, len(p)), p...), nil
}

func (r *wireReader) value() (catalog.Value, error) {
	kind, err := r.byte()
	if err != nil {
		return catalog.Null, err
	}
	switch kind {
	case wireNull:
		return catalog.Null, nil
	case wireInt:
		v, err := r.varint()
		if err != nil {
			return catalog.Null, err
		}
		return catalog.NewInt(v), nil
	case wireFloat:
		bits, err := r.uint64()
		if err != nil {
			return catalog.Null, err
		}
		return catalog.NewFloat(math.Float64frombits(bits)), nil
	case wireString:
		s, err := r.str()
		if err != nil {
			return catalog.Null, err
		}
		return catalog.NewString(s), nil
	case wireBool:
		b, err := r.byte()
		if err != nil {
			return catalog.Null, err
		}
		return catalog.NewBool(b != 0), nil
	case wireDate:
		v, err := r.varint()
		if err != nil {
			return catalog.Null, err
		}
		return catalog.NewDate(v), nil
	default:
		return catalog.Null, fmt.Errorf("server: unknown value kind 0x%02x", kind)
	}
}

// count reads an element count and sanity-bounds it: every element costs at
// least one encoded byte, so a count larger than the remaining body is
// malformed — rejecting it here keeps a forged count from driving a huge
// allocation.
func (r *wireReader) count() (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.remaining()) {
		return 0, fmt.Errorf("server: element count %d exceeds remaining %d bytes", n, r.remaining())
	}
	return int(n), nil
}

func (r *wireReader) tuple() (catalog.Tuple, error) {
	t, _, err := r.tupleFrom(nil)
	return t, err
}

// tupleFrom reads a tuple into the front of arena when it fits there, cut as
// a capped slice so an append to it never reaches the next tuple, and
// returns the rest of the arena. A tuple that does not fit gets its own
// allocation.
func (r *wireReader) tupleFrom(arena []catalog.Value) (catalog.Tuple, []catalog.Value, error) {
	n, err := r.count()
	if err != nil {
		return nil, arena, err
	}
	if n == 0 {
		return nil, arena, nil
	}
	var t catalog.Tuple
	if n <= len(arena) {
		t, arena = arena[:n:n], arena[n:]
	} else {
		t = make(catalog.Tuple, n)
	}
	for i := range t {
		if t[i], err = r.value(); err != nil {
			return nil, arena, err
		}
	}
	return t, arena, nil
}

// names reads a list of column names. When the list is exactly prev, prev
// itself is returned and no name is copied.
func (r *wireReader) names(prev []string) ([]string, error) {
	n, err := r.count()
	if err != nil || n == 0 {
		return nil, err
	}
	if n == len(prev) {
		rest, same := r.b, true
		for _, want := range prev {
			p, err := r.raw()
			if err != nil {
				return nil, err
			}
			if string(p) != want {
				same = false
				break
			}
		}
		if same {
			return prev, nil
		}
		r.b = rest
	}
	names := make([]string, n)
	for i := range names {
		if names[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	return names, nil
}

// done verifies the body was consumed exactly.
func (r *wireReader) done() error {
	if len(r.b) != 0 {
		return fmt.Errorf("server: %d trailing bytes after message", len(r.b))
	}
	return nil
}

// Hello opens a connection. The protocol version rides in the frame header;
// the client name is free-form and appears only in server logs.
type Hello struct {
	ClientName string
}

// Encode renders the message body.
func (m Hello) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m Hello) Append(buf []byte) []byte { return appendString(buf, m.ClientName) }

// DecodeHello parses a MsgHello body.
func DecodeHello(b []byte) (Hello, error) {
	r := wireReader{b}
	name, err := r.str()
	if err != nil {
		return Hello{}, err
	}
	return Hello{ClientName: name}, r.done()
}

// Welcome answers Hello: the server's software version string, the store's
// version count n (2 = 2VNL), currentVN at connect time, whether the server
// is a read-only replication follower, and the freshness reference — the
// primary VN the follower last heard (equal to VN on a primary, so
// PrimaryVN−VN is the staleness bound either way).
type Welcome struct {
	Server    string
	N         uint32
	VN        uint64
	Replica   bool
	PrimaryVN uint64
	// Shards is the serving topology's partition width: 1 when the server
	// fronts a single store, the shard count when it fronts the hash-sharded
	// router (VN is then the cross-shard epoch). Appended after PrimaryVN;
	// a decoder reading an older server's Welcome (no trailing bytes)
	// defaults it to 1.
	Shards uint32
}

// Encode renders the message body.
func (m Welcome) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m Welcome) Append(buf []byte) []byte {
	buf = appendString(buf, m.Server)
	buf = binary.AppendUvarint(buf, uint64(m.N))
	buf = binary.AppendUvarint(buf, m.VN)
	rep := byte(0)
	if m.Replica {
		rep = 1
	}
	buf = append(buf, rep)
	buf = binary.AppendUvarint(buf, m.PrimaryVN)
	shards := m.Shards
	if shards == 0 {
		shards = 1
	}
	return binary.AppendUvarint(buf, uint64(shards))
}

// DecodeWelcome parses a MsgWelcome body.
func DecodeWelcome(b []byte) (Welcome, error) {
	r := wireReader{b}
	var m Welcome
	var err error
	if m.Server, err = r.str(); err != nil {
		return m, err
	}
	n, err := r.uvarint()
	if err != nil {
		return m, err
	}
	m.N = uint32(n)
	if m.VN, err = r.uvarint(); err != nil {
		return m, err
	}
	rep, err := r.byte()
	if err != nil {
		return m, err
	}
	m.Replica = rep != 0
	if m.PrimaryVN, err = r.uvarint(); err != nil {
		return m, err
	}
	// Trailing field: absent when the peer predates sharding.
	m.Shards = 1
	if r.remaining() > 0 {
		sh, err := r.uvarint()
		if err != nil {
			return m, err
		}
		m.Shards = uint32(sh)
	}
	return m, r.done()
}

// Query executes one SELECT. SID 0 runs the query in a fresh one-shot
// session (begin, query, close); a nonzero SID targets a session previously
// granted by MsgBeginSession on this connection.
type Query struct {
	SID    uint32
	SQL    string
	Params map[string]catalog.Value
}

// Encode renders the message body.
func (m Query) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m Query) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.SID))
	buf = appendString(buf, m.SQL)
	return appendParams(buf, m.Params)
}

// DecodeQuery parses a MsgQuery body.
func DecodeQuery(b []byte) (Query, error) { return decodeQuery(b, nil) }

// decodeQuery is DecodeQuery decoding the parameters into pb (see paramBuf).
func decodeQuery(b []byte, pb *paramBuf) (Query, error) {
	r := wireReader{b}
	var m Query
	sid, err := r.uvarint()
	if err != nil {
		return m, err
	}
	m.SID = uint32(sid)
	if m.SQL, err = r.str(); err != nil {
		return m, err
	}
	if m.Params, err = readParams(&r, pb); err != nil {
		return m, err
	}
	return m, r.done()
}

func appendParams(buf []byte, params map[string]catalog.Value) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(params)))
	// Deterministic order is not required by the wire format; iterate as-is.
	for k, v := range params {
		buf = appendString(buf, k)
		buf = appendValue(buf, v)
	}
	return buf
}

// paramBuf is one connection's reusable parameter map. Each request's
// parameters replace the previous request's in the same map, and a name an
// earlier request carried reuses that request's string, so a connection
// repeating one statement decodes its parameters without allocating. The
// map is valid until the connection decodes its next request. What it
// retains is bounded: a request with more than maxReusedParams parameters
// gets a map of its own, and only names up to maxReusedName bytes are kept.
type paramBuf struct {
	m     map[string]catalog.Value
	names []string
}

const (
	maxReusedParams = 16
	maxReusedName   = 64
)

// name returns k as a string, reusing a kept copy when there is one. A nil
// paramBuf always copies.
func (pb *paramBuf) name(k []byte) string {
	if pb == nil {
		return string(k)
	}
	for _, s := range pb.names {
		if s == string(k) {
			return s
		}
	}
	s := string(k)
	if len(pb.names) < maxReusedParams && len(s) <= maxReusedName {
		pb.names = append(pb.names, s)
	}
	return s
}

// readParams decodes a parameter list into pb's map, or into a fresh map
// when pb is nil or the list is too long to reuse one.
func readParams(r *wireReader, pb *paramBuf) (map[string]catalog.Value, error) {
	n, err := r.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	var params map[string]catalog.Value
	if pb != nil && n <= maxReusedParams {
		if pb.m == nil {
			pb.m = make(map[string]catalog.Value, n)
		}
		clear(pb.m)
		params = pb.m
	} else {
		params = make(map[string]catalog.Value, n)
	}
	for i := 0; i < n; i++ {
		k, err := r.raw()
		if err != nil {
			return nil, err
		}
		v, err := r.value()
		if err != nil {
			return nil, err
		}
		params[pb.name(k)] = v
	}
	return params, nil
}

// Rows is a query result.
type Rows struct {
	Columns []string
	Tuples  []catalog.Tuple
}

// Encode renders the message body.
func (m Rows) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m Rows) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m.Columns)))
	for _, c := range m.Columns {
		buf = appendString(buf, c)
	}
	buf = binary.AppendUvarint(buf, uint64(len(m.Tuples)))
	for _, t := range m.Tuples {
		buf = appendTuple(buf, t)
	}
	return buf
}

// rowsEncoder is the exec.Sink a query runs into: it appends Rows.Append's
// bytes to a frame as rows come. Begin leaves room for the row count's longest
// varint; frame moves the header and names up against the count.
type rowsEncoder struct {
	buf  []byte // the frame: header, names, count room, rows
	rows int
	at   int // where the count room ends and the rows begin
}

func (e *rowsEncoder) Begin(columns []string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(columns)))
	for _, c := range columns {
		e.buf = appendString(e.buf, c)
	}
	e.buf = append(e.buf, make([]byte, binary.MaxVarintLen64)...)
	e.at = len(e.buf)
}

func (e *rowsEncoder) Add(row catalog.Tuple) {
	e.buf = appendTuple(e.buf, row)
	e.rows++
}

// frame writes the row count and returns the frame for WriteFrameBuf.
func (e *rowsEncoder) frame() []byte {
	var n [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(n[:], uint64(e.rows))
	gap := len(n) - k
	copy(e.buf[gap:], e.buf[:e.at-len(n)])
	copy(e.buf[e.at-k:], n[:k])
	return e.buf[gap:]
}

// DecodeRows parses a MsgRows body.
func DecodeRows(b []byte) (Rows, error) { return DecodeRowsCols(b, nil) }

// rowsArena returns one value arena for nrows tuples as wide as the first,
// about to be read: a result's rows share a width, so one allocation holds
// them all. Every value takes at least one byte of the body, so an arena
// larger than the bytes that remain cannot be filled and none is made.
func (r *wireReader) rowsArena(nrows int) []catalog.Value {
	peek := *r
	width, err := peek.count()
	if err != nil || nrows*width > r.remaining() {
		return nil
	}
	return make([]catalog.Value, nrows*width)
}

// DecodeRowsCols is DecodeRows for a caller that expects the column names
// cols: when the body carries exactly those names, the result's Columns is
// cols itself rather than a decoded copy. The rows' values share one
// allocation; each tuple is capped to its own length, so appending to one
// never overwrites the next.
func DecodeRowsCols(b []byte, cols []string) (Rows, error) {
	r := wireReader{b}
	var m Rows
	var err error
	if m.Columns, err = r.names(cols); err != nil {
		return m, err
	}
	nrows, err := r.count()
	if err != nil {
		return m, err
	}
	if nrows > 0 {
		m.Tuples = make([]catalog.Tuple, nrows)
		arena := r.rowsArena(nrows)
		for i := range m.Tuples {
			if m.Tuples[i], arena, err = r.tupleFrom(arena); err != nil {
				return m, err
			}
		}
	}
	return m, r.done()
}

// Session answers MsgBeginSession: the connection-scoped session id, the
// database version the session reads, and the freshness reference — on a
// replica, the primary VN last heard at session begin (PrimaryVN−VN bounds
// the session's staleness); on a primary, PrimaryVN equals VN.
type Session struct {
	SID       uint32
	VN        uint64
	PrimaryVN uint64
}

// Encode renders the message body.
func (m Session) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m Session) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.SID))
	buf = binary.AppendUvarint(buf, m.VN)
	return binary.AppendUvarint(buf, m.PrimaryVN)
}

// DecodeSession parses a MsgSession body.
func DecodeSession(b []byte) (Session, error) {
	r := wireReader{b}
	var m Session
	sid, err := r.uvarint()
	if err != nil {
		return m, err
	}
	m.SID = uint32(sid)
	if m.VN, err = r.uvarint(); err != nil {
		return m, err
	}
	if m.PrimaryVN, err = r.uvarint(); err != nil {
		return m, err
	}
	return m, r.done()
}

// EndSession closes a session previously granted on this connection.
type EndSession struct {
	SID uint32
}

// Encode renders the message body.
func (m EndSession) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m EndSession) Append(buf []byte) []byte {
	return binary.AppendUvarint(buf, uint64(m.SID))
}

// DecodeEndSession parses a MsgEndSession body.
func DecodeEndSession(b []byte) (EndSession, error) {
	r := wireReader{b}
	sid, err := r.uvarint()
	if err != nil {
		return EndSession{}, err
	}
	return EndSession{SID: uint32(sid)}, r.done()
}

// Prepare parses a SELECT into the server's shared statement cache.
type Prepare struct {
	SQL string
}

// Encode renders the message body.
func (m Prepare) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m Prepare) Append(buf []byte) []byte { return appendString(buf, m.SQL) }

// DecodePrepare parses a MsgPrepare body.
func DecodePrepare(b []byte) (Prepare, error) {
	r := wireReader{b}
	s, err := r.str()
	if err != nil {
		return Prepare{}, err
	}
	return Prepare{SQL: s}, r.done()
}

// Prepared answers MsgPrepare. Statement ids are server-global (the cache is
// shared across connections, keyed on normalized SQL), so an id granted on
// one connection is valid on every other for the server's lifetime.
type Prepared struct {
	StmtID uint32
}

// Encode renders the message body.
func (m Prepared) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m Prepared) Append(buf []byte) []byte {
	return binary.AppendUvarint(buf, uint64(m.StmtID))
}

// DecodePrepared parses a MsgPrepared body.
func DecodePrepared(b []byte) (Prepared, error) {
	r := wireReader{b}
	id, err := r.uvarint()
	if err != nil {
		return Prepared{}, err
	}
	return Prepared{StmtID: uint32(id)}, r.done()
}

// ExecStmt executes a prepared SELECT; SID semantics match Query.
type ExecStmt struct {
	SID    uint32
	StmtID uint32
	Params map[string]catalog.Value
}

// Encode renders the message body.
func (m ExecStmt) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m ExecStmt) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.SID))
	buf = binary.AppendUvarint(buf, uint64(m.StmtID))
	return appendParams(buf, m.Params)
}

// DecodeExecStmt parses a MsgExecStmt body.
func DecodeExecStmt(b []byte) (ExecStmt, error) { return decodeExecStmt(b, nil) }

// decodeExecStmt is DecodeExecStmt decoding the parameters into pb (see
// paramBuf).
func decodeExecStmt(b []byte, pb *paramBuf) (ExecStmt, error) {
	r := wireReader{b}
	var m ExecStmt
	sid, err := r.uvarint()
	if err != nil {
		return m, err
	}
	m.SID = uint32(sid)
	id, err := r.uvarint()
	if err != nil {
		return m, err
	}
	m.StmtID = uint32(id)
	if m.Params, err = readParams(&r, pb); err != nil {
		return m, err
	}
	return m, r.done()
}

// Delta op bytes (wire values of core.DeltaOp).
const (
	DeltaInsert byte = 0
	DeltaUpdate byte = 1
	DeltaDelete byte = 2
)

// Delta is one logical maintenance operation in wire form, mirroring
// core.Delta.
type Delta struct {
	Table string
	Op    byte
	Row   catalog.Tuple
	Key   catalog.Tuple
}

// ApplyBatch submits one maintenance transaction: the deltas are applied
// through core's ApplyBatch and committed atomically; on any
// failure the whole transaction rolls back and MsgErr{CodeBatch} reports it.
type ApplyBatch struct {
	Deltas []Delta
}

// Encode renders the message body.
func (m ApplyBatch) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m ApplyBatch) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(m.Deltas)))
	for _, d := range m.Deltas {
		buf = appendString(buf, d.Table)
		buf = append(buf, d.Op)
		buf = appendTuple(buf, d.Row)
		buf = appendTuple(buf, d.Key)
	}
	return buf
}

// DecodeApplyBatch parses a MsgApplyBatch body.
func DecodeApplyBatch(b []byte) (ApplyBatch, error) {
	r := wireReader{b}
	var m ApplyBatch
	n, err := r.count()
	if err != nil {
		return m, err
	}
	if n > 0 {
		m.Deltas = make([]Delta, n)
		for i := range m.Deltas {
			d := &m.Deltas[i]
			if d.Table, err = r.str(); err != nil {
				return m, err
			}
			if d.Op, err = r.byte(); err != nil {
				return m, err
			}
			if d.Op > DeltaDelete {
				return m, fmt.Errorf("server: unknown delta op 0x%02x", d.Op)
			}
			if d.Row, err = r.tuple(); err != nil {
				return m, err
			}
			if d.Key, err = r.tuple(); err != nil {
				return m, err
			}
		}
	}
	return m, r.done()
}

// BatchDone answers MsgApplyBatch: the committed version and the apply
// counts (Missing counts updates/deletes whose key had no live tuple — a
// legal skip, mirroring core.BatchStats).
type BatchDone struct {
	VN      uint64
	Applied uint32
	Missing uint32
}

// Encode renders the message body.
func (m BatchDone) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m BatchDone) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, m.VN)
	buf = binary.AppendUvarint(buf, uint64(m.Applied))
	return binary.AppendUvarint(buf, uint64(m.Missing))
}

// DecodeBatchDone parses a MsgBatchDone body.
func DecodeBatchDone(b []byte) (BatchDone, error) {
	r := wireReader{b}
	var m BatchDone
	var err error
	if m.VN, err = r.uvarint(); err != nil {
		return m, err
	}
	a, err := r.uvarint()
	if err != nil {
		return m, err
	}
	m.Applied = uint32(a)
	miss, err := r.uvarint()
	if err != nil {
		return m, err
	}
	m.Missing = uint32(miss)
	return m, r.done()
}

// ReplPoll is a replication follower's long-poll for WAL bytes. FromLSN is
// the byte offset into the primary's WAL the follower wants next (its local
// durable copy ends there). Epoch identifies the WAL incarnation the
// follower is tailing — 0 on the very first poll (learn the primary's
// epoch from the response), the learned value after; a mismatch means the
// primary's log was recreated and the follower must rebuild, reported as
// CodeReplRange. MaxBytes caps the segment (0 = server default); WaitMs is
// how long the server may hold the poll open waiting for new durable bytes
// (clamped server-side below the request watchdog).
//
// PinnedVN is the slowest version the follower still reads: the floor of
// its active reader sessions (its replayed VN when idle), or 0 to advertise
// nothing. A primary whose feed tracks pins clamps its GC floor to the
// slowest recent advertisement, so a replayed GC delete can never reclaim a
// pre-image a lagging replica session still needs. The field is appended
// after WaitMs; a decoder reading an older follower's poll (no trailing
// bytes) defaults it to 0.
type ReplPoll struct {
	Epoch    uint64
	FromLSN  uint64
	MaxBytes uint32
	WaitMs   uint32
	PinnedVN uint64
}

// Encode renders the message body.
func (m ReplPoll) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m ReplPoll) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, m.Epoch)
	buf = binary.AppendUvarint(buf, m.FromLSN)
	buf = binary.AppendUvarint(buf, uint64(m.MaxBytes))
	buf = binary.AppendUvarint(buf, uint64(m.WaitMs))
	return binary.AppendUvarint(buf, m.PinnedVN)
}

// DecodeReplPoll parses a MsgReplPoll body.
func DecodeReplPoll(b []byte) (ReplPoll, error) {
	r := wireReader{b}
	var m ReplPoll
	var err error
	if m.Epoch, err = r.uvarint(); err != nil {
		return m, err
	}
	if m.FromLSN, err = r.uvarint(); err != nil {
		return m, err
	}
	mb, err := r.uvarint()
	if err != nil {
		return m, err
	}
	m.MaxBytes = uint32(mb)
	w, err := r.uvarint()
	if err != nil {
		return m, err
	}
	m.WaitMs = uint32(w)
	if r.remaining() > 0 {
		if m.PinnedVN, err = r.uvarint(); err != nil {
			return m, err
		}
	}
	return m, r.done()
}

// ReplSegment answers MsgReplPoll: Payload holds the primary's WAL bytes
// [FromLSN, FromLSN+len(Payload)) — always fsync-covered bytes, never the
// page-cache tail. An empty payload is a heartbeat: it still carries
// DurableLSN and PrimaryVN, so an idle follower's freshness bound keeps
// updating. Segments are arbitrary byte ranges; a WAL record may span
// segments, and the follower's stream decoder reassembles it.
type ReplSegment struct {
	Epoch      uint64
	FromLSN    uint64
	DurableLSN uint64
	PrimaryVN  uint64
	Payload    []byte
}

// Encode renders the message body.
func (m ReplSegment) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m ReplSegment) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, m.Epoch)
	buf = binary.AppendUvarint(buf, m.FromLSN)
	buf = binary.AppendUvarint(buf, m.DurableLSN)
	buf = binary.AppendUvarint(buf, m.PrimaryVN)
	buf = binary.AppendUvarint(buf, uint64(len(m.Payload)))
	return append(buf, m.Payload...)
}

// DecodeReplSegment parses a MsgReplSegment body.
func DecodeReplSegment(b []byte) (ReplSegment, error) {
	r := wireReader{b}
	var m ReplSegment
	var err error
	if m.Epoch, err = r.uvarint(); err != nil {
		return m, err
	}
	if m.FromLSN, err = r.uvarint(); err != nil {
		return m, err
	}
	if m.DurableLSN, err = r.uvarint(); err != nil {
		return m, err
	}
	if m.PrimaryVN, err = r.uvarint(); err != nil {
		return m, err
	}
	if m.Payload, err = r.bytes(); err != nil {
		return m, err
	}
	if len(m.Payload) == 0 {
		m.Payload = nil
	}
	return m, r.done()
}

// ErrMsg is the body of MsgErr.
type ErrMsg struct {
	Code ErrCode
	Msg  string
}

// Encode renders the message body.
func (m ErrMsg) Encode() []byte { return m.Append(nil) }

// Append appends the message body to buf.
func (m ErrMsg) Append(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.Code))
	return appendString(buf, m.Msg)
}

// DecodeErrMsg parses a MsgErr body.
func DecodeErrMsg(b []byte) (ErrMsg, error) {
	r := wireReader{b}
	code, err := r.uvarint()
	if err != nil {
		return ErrMsg{}, err
	}
	s, err := r.str()
	if err != nil {
		return ErrMsg{}, err
	}
	return ErrMsg{Code: ErrCode(code), Msg: s}, r.done()
}

// DecodeAny decodes a frame body by its message type, returning the decoded
// message as an any. Unknown types are an error. This is the single entry
// point the fuzzer drives: every decoder must be total.
func DecodeAny(t MsgType, body []byte) (any, error) {
	switch t {
	case MsgHello:
		return DecodeHello(body)
	case MsgPing, MsgBeginSession, MsgOK:
		if len(body) != 0 {
			return nil, fmt.Errorf("server: %v carries no body, got %d bytes", t, len(body))
		}
		return struct{}{}, nil
	case MsgQuery:
		return DecodeQuery(body)
	case MsgEndSession:
		return DecodeEndSession(body)
	case MsgPrepare:
		return DecodePrepare(body)
	case MsgExecStmt:
		return DecodeExecStmt(body)
	case MsgApplyBatch:
		return DecodeApplyBatch(body)
	case MsgReplPoll:
		return DecodeReplPoll(body)
	case MsgWelcome:
		return DecodeWelcome(body)
	case MsgRows:
		return DecodeRows(body)
	case MsgSession:
		return DecodeSession(body)
	case MsgPrepared:
		return DecodePrepared(body)
	case MsgBatchDone:
		return DecodeBatchDone(body)
	case MsgReplSegment:
		return DecodeReplSegment(body)
	case MsgErr:
		return DecodeErrMsg(body)
	default:
		return nil, fmt.Errorf("server: unknown message type %v", t)
	}
}
