package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"

	"repro/internal/catalog"
)

// Every message type round-trips through its encoder and DecodeAny.
func TestMessageRoundTrips(t *testing.T) {
	tuple := catalog.Tuple{
		catalog.NewInt(-42), catalog.NewFloat(3.5), catalog.NewString("Palo Alto"),
		catalog.NewBool(true), catalog.NewDate(9785), catalog.Null,
	}
	params := map[string]catalog.Value{"state": catalog.NewString("CA"), "min": catalog.NewInt(10)}
	cases := []struct {
		t    MsgType
		msg  interface{ Encode() []byte }
		want any
	}{
		{MsgHello, Hello{ClientName: "vnlload"}, Hello{ClientName: "vnlload"}},
		// Shards 0 canonicalizes to 1 on encode (a single store).
		{MsgWelcome, Welcome{Server: ServerVersion, N: 3, VN: 17}, Welcome{Server: ServerVersion, N: 3, VN: 17, Shards: 1}},
		{MsgWelcome, Welcome{Server: ServerVersion, N: 2, VN: 9, Replica: true, PrimaryVN: 12},
			Welcome{Server: ServerVersion, N: 2, VN: 9, Replica: true, PrimaryVN: 12, Shards: 1}},
		{MsgWelcome, Welcome{Server: ServerVersion, N: 2, VN: 9, PrimaryVN: 9, Shards: 4},
			Welcome{Server: ServerVersion, N: 2, VN: 9, PrimaryVN: 9, Shards: 4}},
		{MsgQuery, Query{SID: 7, SQL: "SELECT 1", Params: params}, Query{SID: 7, SQL: "SELECT 1", Params: params}},
		{MsgRows, Rows{Columns: []string{"k", "v"}, Tuples: []catalog.Tuple{tuple, nil}},
			Rows{Columns: []string{"k", "v"}, Tuples: []catalog.Tuple{tuple, nil}}},
		{MsgSession, Session{SID: 3, VN: 99}, Session{SID: 3, VN: 99}},
		{MsgSession, Session{SID: 4, VN: 7, PrimaryVN: 11}, Session{SID: 4, VN: 7, PrimaryVN: 11}},
		{MsgEndSession, EndSession{SID: 3}, EndSession{SID: 3}},
		{MsgPrepare, Prepare{SQL: "SELECT COUNT(*) FROM kv"}, Prepare{SQL: "SELECT COUNT(*) FROM kv"}},
		{MsgPrepared, Prepared{StmtID: 12}, Prepared{StmtID: 12}},
		{MsgExecStmt, ExecStmt{SID: 1, StmtID: 12, Params: params}, ExecStmt{SID: 1, StmtID: 12, Params: params}},
		{MsgApplyBatch, ApplyBatch{Deltas: []Delta{
			{Table: "kv", Op: DeltaInsert, Row: catalog.Tuple{catalog.NewInt(1), catalog.NewInt(2)}},
			{Table: "kv", Op: DeltaDelete, Key: catalog.Tuple{catalog.NewInt(1)}},
		}}, ApplyBatch{Deltas: []Delta{
			{Table: "kv", Op: DeltaInsert, Row: catalog.Tuple{catalog.NewInt(1), catalog.NewInt(2)}},
			{Table: "kv", Op: DeltaDelete, Key: catalog.Tuple{catalog.NewInt(1)}},
		}}},
		{MsgBatchDone, BatchDone{VN: 5, Applied: 100, Missing: 3}, BatchDone{VN: 5, Applied: 100, Missing: 3}},
		{MsgErr, ErrMsg{Code: CodeTooBusy, Msg: "connection limit 256 reached"},
			ErrMsg{Code: CodeTooBusy, Msg: "connection limit 256 reached"}},
		{MsgReplPoll, ReplPoll{Epoch: 77, FromLSN: 1 << 33, MaxBytes: 4096, WaitMs: 2500},
			ReplPoll{Epoch: 77, FromLSN: 1 << 33, MaxBytes: 4096, WaitMs: 2500}},
		{MsgReplPoll, ReplPoll{Epoch: 77, FromLSN: 1 << 33, MaxBytes: 4096, WaitMs: 2500, PinnedVN: 42},
			ReplPoll{Epoch: 77, FromLSN: 1 << 33, MaxBytes: 4096, WaitMs: 2500, PinnedVN: 42}},
		{MsgReplSegment, ReplSegment{Epoch: 77, FromLSN: 64, DurableLSN: 128, PrimaryVN: 6, Payload: []byte{1, 2, 3}},
			ReplSegment{Epoch: 77, FromLSN: 64, DurableLSN: 128, PrimaryVN: 6, Payload: []byte{1, 2, 3}}},
		// A heartbeat: empty payload decodes to nil, the canonical empty form.
		{MsgReplSegment, ReplSegment{Epoch: 1, FromLSN: 64, DurableLSN: 64, PrimaryVN: 6},
			ReplSegment{Epoch: 1, FromLSN: 64, DurableLSN: 64, PrimaryVN: 6}},
	}
	for _, tc := range cases {
		t.Run(tc.t.String(), func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteFrame(&buf, tc.t, tc.msg.Encode()); err != nil {
				t.Fatal(err)
			}
			rt, body, err := ReadFrame(bufio.NewReader(&buf))
			if err != nil {
				t.Fatal(err)
			}
			if rt != tc.t {
				t.Fatalf("type %v, want %v", rt, tc.t)
			}
			got, err := DecodeAny(rt, body)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("decoded %#v, want %#v", got, tc.want)
			}
		})
	}
}

// A Welcome from a server that predates sharding — no trailing shard-count
// field — decodes with Shards defaulted to 1, and any further trailing
// bytes are still rejected.
func TestWelcomeLegacyDecode(t *testing.T) {
	full := Welcome{Server: ServerVersion, N: 2, VN: 9, PrimaryVN: 9, Shards: 1}
	buf := full.Encode()
	legacy := buf[:len(buf)-1] // strip the trailing uvarint(1)
	got, err := DecodeWelcome(legacy)
	if err != nil {
		t.Fatalf("decoding legacy Welcome: %v", err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("decoded %#v, want %#v", got, full)
	}
	if _, err := DecodeWelcome(append(buf, 0x7)); err == nil {
		t.Fatal("trailing garbage after the shard count decoded without error")
	}
}

// A ReplPoll from a follower that predates GC pinning — no trailing
// PinnedVN field — decodes with PinnedVN defaulted to 0, and any further
// trailing bytes are still rejected.
func TestReplPollLegacyDecode(t *testing.T) {
	full := ReplPoll{Epoch: 3, FromLSN: 1024, MaxBytes: 4096, WaitMs: 500}
	buf := full.Encode()
	legacy := buf[:len(buf)-1] // strip the trailing uvarint(0)
	got, err := DecodeReplPoll(legacy)
	if err != nil {
		t.Fatalf("decoding legacy ReplPoll: %v", err)
	}
	if !reflect.DeepEqual(got, full) {
		t.Fatalf("decoded %#v, want %#v", got, full)
	}
	if _, err := DecodeReplPoll(append(buf, 0x7)); err == nil {
		t.Fatal("trailing garbage after the pinned VN decoded without error")
	}
}

// Float values round-trip bit-exactly (the encoding is raw IEEE bits, not
// decimal text).
func TestValueFloatBits(t *testing.T) {
	for _, f := range []float64{0, -0.0, 1.0 / 3.0, 1e300, -1e-300} {
		buf := appendValue(nil, catalog.NewFloat(f))
		r := wireReader{buf}
		v, err := r.value()
		if err != nil {
			t.Fatal(err)
		}
		if v.Float() != f && !(f != f && v.Float() != v.Float()) {
			t.Fatalf("float %v round-tripped to %v", f, v.Float())
		}
	}
}

// Malformed frames error without panicking, with the right classification.
func TestFrameErrors(t *testing.T) {
	frame := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	u32 := func(n uint32) []byte {
		var b [4]byte
		binary.BigEndian.PutUint32(b[:], n)
		return b[:]
	}
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"empty", nil, "EOF"},
		{"short header", []byte{0, 0}, "EOF"},
		{"length below minimum", u32(1), "below minimum"},
		{"length above MaxFrame", u32(MaxFrame + 1), "exceeds MaxFrame"},
		{"truncated payload", frame(u32(10), []byte{ProtocolVersion, byte(MsgPing)}), "truncated frame"},
		{"foreign version", frame(u32(2), []byte{99, byte(MsgPing)}), "protocol version 99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := ReadFrame(bufio.NewReader(bytes.NewReader(tc.in)))
			if err == nil {
				t.Fatal("ReadFrame accepted a malformed frame")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// Malformed bodies error without panicking; in particular a forged element
// count larger than the remaining bytes is rejected before allocation.
func TestDecodeErrors(t *testing.T) {
	huge := binary.AppendUvarint(nil, 1<<40)
	cases := []struct {
		name string
		t    MsgType
		body []byte
	}{
		{"truncated hello", MsgHello, binary.AppendUvarint(nil, 50)},
		{"ping with body", MsgPing, []byte{1}},
		{"rows forged column count", MsgRows, huge},
		{"batch forged delta count", MsgApplyBatch, huge},
		{"batch bad op", MsgApplyBatch, frameBatchBadOp()},
		{"query trailing bytes", MsgQuery, append(Query{SQL: "SELECT 1"}.Encode(), 0xEE)},
		{"unknown kind in tuple", MsgRows, frameRowsBadKind()},
		{"segment forged payload length", MsgReplSegment, frameSegmentForgedLen()},
		{"segment truncated payload", MsgReplSegment, frameSegmentTruncated()},
		{"poll trailing bytes", MsgReplPoll, append(ReplPoll{Epoch: 1, FromLSN: 2}.Encode(), 0xEE)},
		{"unknown type", MsgType(0x70), nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeAny(tc.t, tc.body); err == nil {
				t.Fatalf("DecodeAny(%v) accepted a malformed body", tc.t)
			}
		})
	}
}

func frameBatchBadOp() []byte {
	buf := binary.AppendUvarint(nil, 1)
	buf = appendString(buf, "kv")
	return append(buf, 0x7f) // op byte out of range
}

// frameSegmentForgedLen is a ReplSegment body whose declared payload length
// vastly exceeds the remaining bytes — the pre-allocation guard must refuse
// it rather than allocate.
func frameSegmentForgedLen() []byte {
	buf := binary.AppendUvarint(nil, 1)     // epoch
	buf = binary.AppendUvarint(buf, 0)      // from
	buf = binary.AppendUvarint(buf, 100)    // durable
	buf = binary.AppendUvarint(buf, 5)      // primary VN
	return binary.AppendUvarint(buf, 1<<40) // forged payload length, no bytes
}

// frameSegmentTruncated declares a modest payload but ships fewer bytes.
func frameSegmentTruncated() []byte {
	buf := binary.AppendUvarint(nil, 1)
	buf = binary.AppendUvarint(buf, 0)
	buf = binary.AppendUvarint(buf, 100)
	buf = binary.AppendUvarint(buf, 5)
	buf = binary.AppendUvarint(buf, 16)
	return append(buf, 0xAB, 0xCD) // 2 of the declared 16 bytes
}

func frameRowsBadKind() []byte {
	buf := binary.AppendUvarint(nil, 0) // no columns
	buf = binary.AppendUvarint(buf, 1)  // one tuple
	buf = binary.AppendUvarint(buf, 1)  // one value
	return append(buf, 0xEE)            // unknown value kind
}

// A frame body at exactly MaxFrame is accepted; one byte more is refused by
// the writer.
func TestWriteFrameBound(t *testing.T) {
	if err := WriteFrame(&bytes.Buffer{}, MsgPing, make([]byte, MaxFrame-2)); err != nil {
		t.Fatalf("frame at MaxFrame rejected: %v", err)
	}
	if err := WriteFrame(&bytes.Buffer{}, MsgPing, make([]byte, MaxFrame-1)); err == nil {
		t.Fatal("frame above MaxFrame accepted")
	}
}

// Statement-cache ids are stable across formatting variants of one query:
// the key is the canonical printed form.
func TestPrepareNormalization(t *testing.T) {
	s, _ := testServer(t)
	id1, err := s.prepare("SELECT k, v FROM kv WHERE k < 5")
	if err != nil {
		t.Fatal(err)
	}
	id2, err := s.prepare("select   k,v from kv where k<5")
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("formatting variants got distinct ids %d and %d", id1, id2)
	}
	id3, err := s.prepare("SELECT k, v FROM kv WHERE k < 6")
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 {
		t.Fatalf("distinct queries share id %d", id1)
	}
	if got := s.stmt(id1); got == nil {
		t.Fatal("stmt lookup failed for a granted id")
	}
	if got := s.stmt(id3 + 1); got != nil {
		t.Fatal("stmt lookup succeeded for an ungranted id")
	}
	if got := s.stmt(0); got != nil {
		t.Fatal("stmt lookup succeeded for id 0")
	}
}

// A MsgRows answer decodes into one value arena: 256 rows of 3 columns cost
// the row slice and the arena, not an allocation per row.
func TestDecodeRowsAllocations(t *testing.T) {
	cols := []string{"id", "qty", "amount"}
	m := Rows{Columns: cols, Tuples: make([]catalog.Tuple, 256)}
	for i := range m.Tuples {
		k := int64(i)
		m.Tuples[i] = catalog.Tuple{catalog.NewInt(k), catalog.NewInt(3 * k), catalog.NewInt(7 * k)}
	}
	body := m.Encode()
	allocs := testing.AllocsPerRun(100, func() {
		got, err := DecodeRowsCols(body, cols)
		if err != nil || len(got.Tuples) != 256 || got.Tuples[255][2].Int() != 7*255 {
			t.Fatalf("decoded %d rows, err %v", len(got.Tuples), err)
		}
	})
	if allocs > 3 {
		t.Errorf("%.1f allocations to decode 256 rows of 3 columns; the limit is 3", allocs)
	}
}

// Tuples cut from the arena are capped: appending to one leaves the next
// as it was. Rows of another width than the first decode too: the arena is
// sized by the first, and a row that overruns it gets its own allocation.
func TestDecodeRowsTuplesAreCapped(t *testing.T) {
	row := func(vs ...int64) catalog.Tuple {
		t := make(catalog.Tuple, len(vs))
		for i, v := range vs {
			t[i] = catalog.NewInt(v)
		}
		return t
	}
	want := []catalog.Tuple{row(1, 2), row(3, 4), row(5, 6, 7), row(8, 9)}
	got, err := DecodeRows(Rows{Columns: []string{"a", "b"}, Tuples: want}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got.Tuples[0], catalog.NewInt(99))
	for i := range want {
		if !catalog.TuplesEqual(got.Tuples[i], want[i]) {
			t.Errorf("row %d decoded as %v, want %v", i, got.Tuples[i], want[i])
		}
	}
}
