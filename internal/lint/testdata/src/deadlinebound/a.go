// Package deadlinebound holds known-bad and known-good deadline
// disciplines on the wire path for the deadlinebound analyzer.
package deadlinebound

import (
	"bufio"
	"context"
	"io"
	"net"
	"time"
)

// ReadFrame mirrors internal/server.ReadFrame: it takes an io.Reader, so
// its own internals are not wire ops — the deadline obligation sits with
// the caller who owns the conn.
func ReadFrame(r io.Reader) (byte, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	return hdr[0], nil, nil
}

// WriteFrame mirrors internal/server.WriteFrame.
func WriteFrame(w io.Writer, t byte, body []byte) error {
	_, err := w.Write(append([]byte{t}, body...))
	return err
}

// ReadFrameInto mirrors internal/server.ReadFrameInto, the codec's
// caller-buffer read: a blocking op like ReadFrame.
func ReadFrameInto(r io.Reader, buf []byte) (byte, []byte, []byte, error) {
	_, err := io.ReadFull(r, buf[:4])
	return buf[0], nil, buf, err
}

// WriteFrameBuf mirrors internal/server.WriteFrameBuf.
func WriteFrameBuf(w io.Writer, t byte, frame []byte) error {
	frame[0] = t
	_, err := w.Write(frame)
	return err
}

// badBufferedRoundTrip is badRoundTrip through the caller-buffer codec.
func badBufferedRoundTrip(nc net.Conn, frame, buf []byte) error {
	if err := WriteFrameBuf(nc, 1, frame); err != nil { // want "WriteFrameBuf is not dominated"
		return err
	}
	_, _, _, err := ReadFrameInto(nc, buf) // want "ReadFrameInto is not dominated"
	return err
}

// goodBufferedRoundTrip arms one deadline for both directions first.
func goodBufferedRoundTrip(nc net.Conn, frame, buf []byte) error {
	_ = nc.SetDeadline(time.Now().Add(time.Second))
	if err := WriteFrameBuf(nc, 1, frame); err != nil {
		return err
	}
	_, _, _, err := ReadFrameInto(nc, buf)
	return err
}

// badRead blocks on the conn with no deadline anywhere: finding.
func badRead(nc net.Conn) {
	buf := make([]byte, 16)
	_, _ = nc.Read(buf) // want "not dominated by a deadline"
}

// badWriteLoop mirrors the PR 6 writeLoop bug: buffered writes and
// flushes with no write deadline armed.
func badWriteLoop(nc net.Conn, frames [][]byte) {
	bw := bufio.NewWriter(nc)
	for _, f := range frames {
		_, _ = bw.Write(f) // want "not dominated by a deadline"
	}
	_ = bw.Flush() // want "not dominated by a deadline"
}

// badRoundTrip mirrors the client round trip without OpTimeout: the frame
// codec blocks on both directions with nothing armed.
func badRoundTrip(nc net.Conn, body []byte) error {
	bw := bufio.NewWriter(nc)
	br := bufio.NewReader(nc)
	if err := WriteFrame(bw, 1, body); err != nil { // want "WriteFrame is not dominated"
		return err
	}
	_, _, err := ReadFrame(br) // want "ReadFrame is not dominated"
	return err
}

// badWrongDirection arms only a read deadline before a write: the write
// is still unbounded.
func badWrongDirection(nc net.Conn, body []byte) {
	_ = nc.SetReadDeadline(time.Now().Add(time.Second))
	_, _ = nc.Write(body) // want "not dominated by a deadline"
}

// goodRead arms the matching deadline first.
func goodRead(nc net.Conn) {
	_ = nc.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 16)
	_, _ = nc.Read(buf)
}

// goodBoth covers both directions with one SetDeadline.
func goodBoth(nc net.Conn, body []byte) {
	_ = nc.SetDeadline(time.Now().Add(time.Second))
	_, _ = nc.Write(body)
	buf := make([]byte, 16)
	_, _ = nc.Read(buf)
}

// goodGated is the configuration-gated shape the lexical model accepts:
// the deadline call is present on the path's source even though a zero
// config can disable it at runtime.
func goodGated(nc net.Conn, idle time.Duration) {
	br := bufio.NewReader(nc)
	for {
		if idle > 0 {
			_ = nc.SetReadDeadline(time.Now().Add(idle))
		}
		if _, _, err := ReadFrame(br); err != nil {
			return
		}
	}
}

// goodCtx bounds the op with a context deadline instead of a conn
// deadline (the dial-path shape).
func goodCtx(nc net.Conn) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	_ = ctx
	buf := make([]byte, 16)
	_, _ = nc.Read(buf)
}

// goodFlush arms the write deadline before the buffered flush.
func goodFlush(nc net.Conn, body []byte) {
	bw := bufio.NewWriter(nc)
	_ = nc.SetWriteDeadline(time.Now().Add(time.Second))
	_, _ = bw.Write(body)
	_ = bw.Flush()
}
