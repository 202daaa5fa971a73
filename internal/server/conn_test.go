package server

import (
	"bufio"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
)

// After a request of about 1 MiB and a result of about 1 MiB, a server
// connection keeps neither its read buffer, nor its encode buffer, nor a
// result encoder above MaxRetainedFrame, and it still answers small frames
// and small results.
func TestConnBuffersHaveACeiling(t *testing.T) {
	s, store := testServer(t)
	if _, err := store.CreateTableSQL(`CREATE TABLE doc (k INT(8), body VARCHAR(64) UPDATABLE, UNIQUE KEY(k))`); err != nil {
		t.Fatal(err)
	}
	m, err := store.BeginMaintenance()
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Repeat("x", 4096)
	for k := int64(0); k < 256; k++ {
		if err := m.Insert("doc", catalog.Tuple{catalog.NewInt(k), catalog.NewString(body)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	exchange := func(mt MsgType, req []byte, want MsgType) []byte {
		t.Helper()
		if err := WriteFrame(nc, mt, req); err != nil {
			t.Fatal(err)
		}
		rt, resp, err := ReadFrame(br)
		if err != nil {
			t.Fatal(err)
		}
		if rt != want {
			t.Fatalf("%v answered with %v, want %v", mt, rt, want)
		}
		return resp
	}
	exchange(MsgHello, Hello{ClientName: "ceiling"}.Encode(), MsgWelcome)
	// A 1 MiB request: SQL text that fails to parse, so nothing keeps it.
	exchange(MsgQuery, Query{SQL: "SELEC k FROM doc" + strings.Repeat(" ", 1<<20)}.Encode(), MsgErr)
	resp := exchange(MsgQuery, Query{SQL: "SELECT k, body FROM doc"}.Encode(), MsgRows)
	if len(resp) < 1<<20 {
		t.Fatalf("result of %d bytes, want about 1 MiB", len(resp))
	}
	exchange(MsgPing, nil, MsgOK)
	exchange(MsgQuery, Query{SQL: "SELECT k FROM doc WHERE k = 1"}.Encode(), MsgRows)

	s.mu.Lock()
	var c *conn
	for cc := range s.conns {
		c = cc
	}
	s.mu.Unlock()
	if c == nil {
		t.Fatal("no live connection")
	}
	// Close waits for the connection's goroutines, so its buffers can be
	// read without a race.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if r, w := cap(c.rbuf), cap(c.wbuf); r > MaxRetainedFrame || w > MaxRetainedFrame {
		t.Fatalf("connection keeps a %d-byte read and a %d-byte encode buffer; the cap is %d", r, w, MaxRetainedFrame)
	}
	if cap(c.wbuf) == 0 {
		t.Fatal("the encode buffer was not reused after the large result")
	}
	if len(c.encs) == 0 {
		t.Fatal("no result encoder was returned to the free list after the small result")
	}
	for len(c.encs) > 0 {
		if e := <-c.encs; cap(e.buf) > MaxRetainedFrame {
			t.Fatalf("the free list keeps a %d-byte result encoder; the cap is %d", cap(e.buf), MaxRetainedFrame)
		}
	}
}

// A frame built on StartFrame is byte-identical to WriteFrame's, and
// ReadFrameInto reads it back through a reused buffer, growing it only for a
// frame that does not fit.
func TestFrameBufMatchesWriteFrame(t *testing.T) {
	msg := ExecStmt{SID: 3, StmtID: 9, Params: map[string]catalog.Value{"k": catalog.NewInt(42)}}
	var want, got strings.Builder
	if err := WriteFrame(&want, MsgExecStmt, msg.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := WriteFrameBuf(&got, MsgExecStmt, msg.Append(StartFrame(make([]byte, 0, 64)))); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("WriteFrameBuf wrote %q, WriteFrame %q", got.String(), want.String())
	}
	buf := make([]byte, 0, 128)
	rt, body, out, err := ReadFrameInto(strings.NewReader(got.String()), buf)
	if err != nil || rt != MsgExecStmt {
		t.Fatalf("ReadFrameInto: %v %v", rt, err)
	}
	if &out[:1][0] != &buf[:1][0] {
		t.Fatal("a frame that fits grew the buffer")
	}
	dec, err := decodeExecStmt(body, &paramBuf{})
	if err != nil || dec.StmtID != 9 || dec.Params["k"].Int() != 42 {
		t.Fatalf("decoded %+v, %v", dec, err)
	}
	if err := WriteFrameBuf(&got, MsgPing, StartFrame(nil)[:frameHeader-1]); err == nil {
		t.Fatal("WriteFrameBuf accepted a frame without room for its header")
	}
}

// A connection's parameter map is reused request after request: the names
// carried earlier keep their strings, nothing of the previous request
// survives into the next, and an oversized list gets a map of its own.
func TestParamBufReuse(t *testing.T) {
	var pb paramBuf
	decode := func(params map[string]catalog.Value) map[string]catalog.Value {
		t.Helper()
		q, err := decodeQuery(Query{SQL: "q", Params: params}.Encode(), &pb)
		if err != nil {
			t.Fatal(err)
		}
		return q.Params
	}
	first := decode(map[string]catalog.Value{"a": catalog.NewInt(1), "b": catalog.NewInt(2)})
	second := decode(map[string]catalog.Value{"a": catalog.NewInt(3)})
	if len(second) != 1 || second["a"].Int() != 3 {
		t.Fatalf("second request decoded %v", second)
	}
	if len(first) != 1 {
		t.Fatal("the map was not reused")
	}
	if n := testing.AllocsPerRun(100, func() { decode(map[string]catalog.Value{"a": catalog.NewInt(3)}) }); n > 2 {
		t.Fatalf("%.0f allocations to decode a repeated request; only its encoding should allocate", n)
	}
	big := make(map[string]catalog.Value, maxReusedParams+1)
	for i := 0; i <= maxReusedParams; i++ {
		big[strings.Repeat("p", i+1)] = catalog.NewInt(int64(i))
	}
	if got := decode(big); len(got) != len(big) || len(pb.m) > maxReusedParams || len(pb.names) > maxReusedParams {
		t.Fatalf("oversized list: decoded %d, kept %d entries and %d names", len(got), len(pb.m), len(pb.names))
	}
}
