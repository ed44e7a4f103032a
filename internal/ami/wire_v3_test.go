package ami

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/meter"
	"repro/internal/obs"
	"repro/internal/timeseries"
)

// TestCodecRecvOversized is the bounded-ingest regression: a frame past the
// codec's limit must come back as a typed CodeOversized rejection, never be
// buffered whole.
func TestCodecRecvOversized(t *testing.T) {
	frame := `{"type":"hello","hello":{"meter_id":"` + strings.Repeat("m", 300) + `"}}` + "\n"
	c := NewCodecLimit(rw{Reader: strings.NewReader(frame), Writer: bytes.NewBuffer(nil)}, 128)
	_, err := c.Recv()
	if err == nil {
		t.Fatal("oversized frame accepted")
	}
	if !errors.Is(err, ErrOversized) {
		t.Fatalf("err = %v, want ErrOversized", err)
	}
	var perr *ProtocolError
	if !errors.As(err, &perr) || perr.Code != CodeOversized {
		t.Fatalf("err = %v, want *ProtocolError with CodeOversized", err)
	}

	// An endless frame with no newline at all must also be cut off at the
	// bound, not accumulated until the stream ends.
	endless := strings.Repeat("x", 4096)
	c = NewCodecLimit(rw{Reader: strings.NewReader(endless), Writer: bytes.NewBuffer(nil)}, 256)
	if _, err := c.Recv(); !errors.Is(err, ErrOversized) {
		t.Fatalf("unterminated frame: err = %v, want ErrOversized", err)
	}

	// Under the limit the same envelope decodes fine.
	small := `{"type":"hello","hello":{"meter_id":"m1"}}` + "\n"
	c = NewCodecLimit(rw{Reader: strings.NewReader(small), Writer: bytes.NewBuffer(nil)}, 128)
	if _, err := c.Recv(); err != nil {
		t.Fatalf("in-bound frame rejected: %v", err)
	}

	// A v3 length prefix past the bound is refused from the header alone:
	// the stream holds no body at all, so any attempt to allocate or read
	// the claimed 4 GiB would surface as something other than oversized.
	c = NewCodecLimit(rw{Reader: bytes.NewReader([]byte{frameBatch, 0xff, 0xff, 0xff, 0xff}), Writer: io.Discard}, 128)
	if _, _, err := c.recvFrame(); !errors.Is(err, ErrOversized) {
		t.Fatalf("v3 length prefix past the bound: err = %v, want ErrOversized", err)
	}
	if cap(c.buf) != 0 {
		t.Fatalf("codec allocated %d bytes for a refused frame", cap(c.buf))
	}
	v3 := AppendBatchFrame(nil, "m1", []BatchReading{{Slot: 0, KW: 1}}, nil)
	c = NewCodecLimit(rw{Reader: bytes.NewReader(v3), Writer: io.Discard}, len(v3))
	if _, _, err := c.recvFrame(); err != nil {
		t.Fatalf("v3 frame exactly at the bound rejected: %v", err)
	}
	c = NewCodecLimit(rw{Reader: bytes.NewReader(v3), Writer: io.Discard}, len(v3)-1)
	if _, _, err := c.recvFrame(); !errors.Is(err, ErrOversized) {
		t.Fatalf("v3 frame one byte over the bound: err = %v, want ErrOversized", err)
	}
}

// TestCodecSendOversized: outbound frames past the bound are refused
// locally, with nothing written to the stream.
func TestCodecSendOversized(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodecLimit(&buf, 64)
	env := &Envelope{Type: TypeHello, Hello: &HelloMsg{MeterID: strings.Repeat("m", 100)}}
	err := c.Send(env)
	if !errors.Is(err, ErrOversized) {
		t.Fatalf("err = %v, want ErrOversized", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized send wrote %d bytes to the stream", buf.Len())
	}
	rs := make([]BatchReading, 8)
	if err := c.writeFrames(AppendBatchFrame(nil, "m1", rs, nil)); !errors.Is(err, ErrOversized) {
		t.Fatalf("v3 frame: err = %v, want ErrOversized", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("oversized v3 send wrote %d bytes to the stream", buf.Len())
	}
}

// TestEnvelopeValidateNonFinite closes the NaN hole: `kw < 0` is false for
// NaN, so without an explicit finiteness guard a poisoned reading sails
// through validation and into the store. The payload decoder applies the
// guard to raw float bits.
func TestEnvelopeValidateNonFinite(t *testing.T) {
	for _, kw := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		p := appendPayload(nil, "m1", []BatchReading{{Slot: 0, KW: 1}, {Slot: 1, KW: kw}})
		if _, _, _, err := decodePayload(p, DefaultMaxBatch, nil); err == nil {
			t.Errorf("batch payload with kw=%g decoded", kw)
		}
	}
	p := appendPayload(nil, "m1", []BatchReading{{Slot: 0, KW: 0}, {Slot: 1, KW: 2.5}})
	if _, _, _, err := decodePayload(p, DefaultMaxBatch, nil); err != nil {
		t.Errorf("finite batch payload rejected: %v", err)
	}
}

// TestWireNonFiniteReadingRejected drives the hole end to end: a raw
// frame carrying NaN bits must be answered with a protocol error, never an
// ack, and must not reach the store.
func TestWireNonFiniteReadingRejected(t *testing.T) {
	head := NewSharded(1, WithDrainTimeout(time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	v3, codec := rawV3Session(t, addr, "m1")
	nan := AppendBatchFrame(nil, "m1", []BatchReading{{Slot: 0, KW: 1}, {Slot: 1, KW: math.NaN()}}, nil)
	if perr := sendRawFrame(t, v3, codec, nan); perr.Code != CodeProtocol {
		t.Errorf("v3 NaN frame: reply = %+v, want %s", perr, CodeProtocol)
	}
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	if got := head.Meters(); len(got) != 0 {
		t.Errorf("non-finite reading reached the store: meters = %v", got)
	}
	if st := head.Stats(); st.Accepted != 0 {
		t.Errorf("accepted = %d, want 0", st.Accepted)
	}
}

// TestBatchSessionEndToEnd covers the v3 happy path: negotiation, batch
// frames, chunking at the negotiated cap, and storage.
func TestBatchSessionEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	head := NewSharded(1, WithMetrics(reg), WithConfig(HeadEndConfig{MaxBatch: 16, DrainTimeout: time.Second}))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	c, err := DialBatch(addr, "m1", nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.maxBatch != 16 {
		t.Fatalf("negotiated max batch = %d, want 16", c.maxBatch)
	}

	const n = 40 // forces chunking: 16 + 16 + 8
	rs := make([]meter.Reading, n)
	for i := range rs {
		rs[i] = meter.Reading{MeterID: "m1", Slot: timeseries.Slot(i), KW: float64(i) / 10}
	}
	if err := c.SendBatch(rs); err != nil {
		t.Fatal(err)
	}

	head.Flush()
	if got := head.Count("m1"); got != n {
		t.Fatalf("stored %d readings, want %d", got, n)
	}
	if v, ok := head.Reading("m1", 39); !ok || v != 3.9 {
		t.Fatalf("reading 39 = %g, %v; want 3.9, true", v, ok)
	}
	if st := head.Stats(); st.Accepted != n {
		t.Errorf("accepted = %d, want %d", st.Accepted, n)
	}
	if got := reg.Counter(metricBatchFrames, "").Value(); got != 3 {
		t.Errorf("batch frames = %d, want 3", got)
	}
	if got := reg.Histogram(metricBatchSize, "", batchSizeBuckets()); got.Count() != 3 || got.Sum() != n {
		t.Errorf("batch size histogram = count %d sum %g, want count 3 sum %d", got.Count(), got.Sum(), n)
	}
}

// TestBindRebindsSession: one v3 connection serves several meters in turn —
// the multiplexing primitive the load harness is built on.
func TestBindRebindsSession(t *testing.T) {
	head := NewSharded(1, WithDrainTimeout(time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	c, err := DialBatch(addr, "m0", nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids := []string{"m0", "m1", "m2"}
	for i, id := range ids {
		if i > 0 {
			if err := c.Bind(id); err != nil {
				t.Fatalf("bind %s: %v", id, err)
			}
		}
		rs := []meter.Reading{
			{MeterID: id, Slot: 0, KW: float64(i)},
			{MeterID: id, Slot: 1, KW: float64(i) + 0.5},
		}
		if err := c.SendBatch(rs); err != nil {
			t.Fatalf("send %s: %v", id, err)
		}
	}
	if st := head.Stats(); st.TotalConns != 1 {
		t.Errorf("total conns = %d, want 1 (one multiplexed session)", st.TotalConns)
	}
	head.Flush()
	for i, id := range ids {
		if v, ok := head.Reading(id, 1); !ok || v != float64(i)+0.5 {
			t.Errorf("%s slot 1 = %g, %v; want %g, true", id, v, ok, float64(i)+0.5)
		}
	}
}

// countConn counts the Write calls and the bytes read on a connection.
type countConn struct {
	net.Conn
	writes    atomic.Int64
	readBytes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.readBytes.Add(int64(n))
	return n, err
}

// TestRebindRidesInBatchWrite pins the one-round-trip rebind: Bind does no
// I/O, and the rebind plus a one-reading batch is one client write answered
// by one head-end write carrying exactly one ack frame.
func TestRebindRidesInBatchWrite(t *testing.T) {
	head := NewSharded(1, WithDrainTimeout(time.Second))
	defer head.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan *countConn, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		cc := &countConn{Conn: conn}
		served <- cc
		head.serve(cc)
	}()

	c, err := DialBatch(ln.Addr().String(), "m0", nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		_ = c.Close()
		<-done
	}()
	srv := <-served
	// The hello exchange is over and nothing is buffered: count from here.
	cli := &countConn{Conn: c.conn}
	c.conn, c.codec.w, c.codec.r = cli, cli, bufio.NewReader(cli)
	srvWrites := srv.writes.Load()

	if err := c.Bind("m1"); err != nil {
		t.Fatal(err)
	}
	if w, r := cli.writes.Load(), cli.readBytes.Load(); w != 0 || r != 0 {
		t.Fatalf("Bind did I/O: %d writes, %d bytes read; want none", w, r)
	}
	if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 1.5}}); err != nil {
		t.Fatal(err)
	}
	if w := cli.writes.Load(); w != 1 {
		t.Errorf("rebind + batch took %d client writes, want 1", w)
	}
	if r, want := cli.readBytes.Load(), int64(len(appendAckFrame(nil, 1, 0))); r != want {
		t.Errorf("client read %d reply bytes, want one %d-byte ack frame", r, want)
	}
	if w := srv.writes.Load() - srvWrites; w != 1 {
		t.Errorf("session wrote %d frames for a rebind + batch, want 1", w)
	}
	head.Flush()
	if v, ok := head.Reading("m1", 0); !ok || v != 1.5 {
		t.Errorf("m1 slot 0 = %g, %v; want 1.5, true", v, ok)
	}
	if got := head.Count("m0"); got != 0 {
		t.Errorf("stored %d readings for the dialled meter, want 0", got)
	}
}

// TestDrainBetweenRebindAndBatch: a drain that begins while a session is
// parked ahead of a rebind lets the session take the rebind and then bow
// out at the loop-top check, so the batch riding behind it is refused with
// CodeShuttingDown and nothing is stored for the new meter.
func TestDrainBetweenRebindAndBatch(t *testing.T) {
	head := NewSharded(1, WithDrainTimeout(5*time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialBatch(addr, "m0", nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SendBatch([]meter.Reading{{MeterID: "m0", Slot: 0, KW: 1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "session parked in recv", func() bool { return head.parked.Load() == 1 })
	closed := make(chan error, 1)
	go func() { closed <- head.Close() }()
	waitFor(t, "drain begun", head.shuttingDown)

	if err := c.Bind("m1"); err != nil {
		t.Fatal(err)
	}
	err = c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 2}})
	var perr *ProtocolError
	if !errors.As(err, &perr) || perr.Code != CodeShuttingDown {
		t.Fatalf("send after rebind during drain = %v, want a %s *ProtocolError", err, CodeShuttingDown)
	}
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := head.Count("m1"); got != 0 {
		t.Errorf("stored %d readings for the rebound meter during drain, want 0", got)
	}
	if st := head.Stats(); st.ForcedCloses != 0 {
		t.Errorf("forced closes = %d, want 0 (the session drained itself)", st.ForcedCloses)
	}
}

// TestRetiredRebindReplyKindRefused: kind 2, once the rebind reply, is
// unassigned; a peer that sends it gets a protocol refusal.
func TestRetiredRebindReplyKindRefused(t *testing.T) {
	head := NewSharded(1, WithDrainTimeout(time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()
	conn, codec := rawV3Session(t, addr, "m1")
	perr := sendRawFrame(t, conn, codec, []byte{2, 4, 0, 0, 0, 48, 0, 0, 0})
	if perr.Code != CodeProtocol {
		t.Fatalf("kind-2 frame refused with %q, want %q", perr.Code, CodeProtocol)
	}
}

// rawV3Session opens a hand-driven v3 session for meterID: the JSON hello
// exchange, then a codec switched to binary frames.
func rawV3Session(t *testing.T, addr, meterID string) (net.Conn, *Codec) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	codec := NewCodec(conn)
	if err := codec.Send(&Envelope{Type: TypeHello, Hello: &HelloMsg{MeterID: meterID, Version: WireV3}}); err != nil {
		t.Fatal(err)
	}
	resp, err := codec.Recv()
	if err != nil || resp.Type != TypeHello || resp.Hello.Version != WireV3 {
		t.Fatalf("hello response = %+v, %v", resp, err)
	}
	codec.binary = true
	return conn, codec
}

// sendRawFrame writes one frame on a raw v3 session and returns the
// head-end's error reply, failing the test on any other answer.
func sendRawFrame(t *testing.T, conn net.Conn, codec *Codec, frame []byte) *ProtocolError {
	t.Helper()
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	kind, body, err := codec.recvFrame()
	if err != nil {
		t.Fatal(err)
	}
	if kind != frameError {
		t.Fatalf("reply kind = %d, want an error frame", kind)
	}
	perr, err := parseErrorFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	return perr
}

// TestBatchOverCapRejected: the head-end enforces the batch cap it
// advertised; a client that ignores it gets a protocol rejection.
func TestBatchOverCapRejected(t *testing.T) {
	head := NewSharded(1, WithConfig(HeadEndConfig{MaxBatch: 4, DrainTimeout: time.Second}))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	conn, codec := rawV3Session(t, addr, "m1")
	over := make([]BatchReading, 5)
	for i := range over {
		over[i] = BatchReading{Slot: int64(i), KW: 1}
	}
	if perr := sendRawFrame(t, conn, codec, AppendBatchFrame(nil, "m1", over, nil)); perr.Code != CodeProtocol {
		t.Fatalf("reply = %+v, want a %s error", perr, CodeProtocol)
	}
	head.Flush()
	if got := head.Count("m1"); got != 0 {
		t.Errorf("over-cap batch stored %d readings, want 0", got)
	}
}

// TestWireV2HelloRefused: every hello below v3 (no version, the retired
// v1 reading-per-line dialect, the retired v2 JSON batch dialect) gets a
// typed, permanent refusal and a hang-up instead of a session, whether it
// reaches the head-end directly or through the MITM, which must relay the
// refusal.
func TestWireV2HelloRefused(t *testing.T) {
	head := NewSharded(1, WithDrainTimeout(time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()
	mitm := NewMITM(addr, nil)
	proxyAddr, err := mitm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mitm.Close()

	for _, tc := range []struct {
		name, addr string
		ver        int
	}{
		{"no version", addr, 0},
		{"v1", addr, 1},
		{"v2", addr, 2},
		{"v1 via mitm", proxyAddr, 1},
	} {
		conn, err := net.Dial("tcp", tc.addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		codec := NewCodec(conn)
		if err := codec.Send(&Envelope{Type: TypeHello, Hello: &HelloMsg{MeterID: "m1", Version: tc.ver, MaxBatch: 16}}); err != nil {
			t.Fatal(err)
		}
		resp, err := codec.Recv()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if resp.Type != TypeError || resp.Code != CodeProtocol {
			t.Fatalf("%s: response = %+v, want a %s error", tc.name, resp, CodeProtocol)
		}
		perr := &ProtocolError{Code: resp.Code, Message: resp.Error}
		if !errors.Is(perr, ErrRejected) {
			t.Errorf("%s: refusal must be permanent (ErrRejected)", tc.name)
		}
		if _, err := codec.Recv(); !errors.Is(err, io.EOF) {
			t.Errorf("%s: after the refusal: %v, want a hang-up", tc.name, err)
		}
		_ = conn.Close()
	}
	head.Flush()
	if got := head.Count("m1"); got != 0 {
		t.Errorf("refused sessions stored %d readings, want 0", got)
	}
	if st := head.Stats(); st.Rejected != 4 {
		t.Errorf("rejected = %d, want 4", st.Rejected)
	}
}

// TestBatchSessionMismatchTyped: a v3 batch naming a meter other than the
// session's is refused with CodeSessionMismatch, classified as both
// ErrSessionMismatch and the permanent ErrRejected, and nothing stored.
func TestBatchSessionMismatchTyped(t *testing.T) {
	head := NewSharded(1, WithDrainTimeout(time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	conn, codec := rawV3Session(t, addr, "m1")
	perr := sendRawFrame(t, conn, codec, AppendBatchFrame(nil, "m2", []BatchReading{{Slot: 0, KW: 1}}, nil))
	if !errors.Is(perr, ErrSessionMismatch) || !errors.Is(perr, ErrRejected) {
		t.Fatalf("reply = %+v, want %s matching both sentinels", perr, CodeSessionMismatch)
	}
	head.Flush()
	if got := head.Count("m2") + head.Count("m1"); got != 0 {
		t.Errorf("mismatched batch stored %d readings, want 0", got)
	}
}

// TestBatchMACCoversRawPayload: the tag is over the payload bytes as
// sent. Flipping any payload or tag bit, dropping the tag, or cutting it
// short is refused; only the intact frame is stored.
func TestBatchMACCoversRawPayload(t *testing.T) {
	key := []byte("raw-payload-key")
	head := NewSharded(1, WithKeyring(NewKeyring(map[string][]byte{"m1": key})), WithDrainTimeout(time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	rs := []BatchReading{{Slot: 0, KW: 1.5}, {Slot: 1, KW: 2}}
	signed := AppendBatchFrame(nil, "m1", rs, key)
	unsigned := AppendBatchFrame(nil, "m1", rs, nil)
	flip := func(i int) []byte {
		f := append([]byte(nil), signed...)
		f[i] ^= 0x01
		return f
	}
	cut := append([]byte(nil), signed[:len(signed)-1]...)
	binary.LittleEndian.PutUint32(cut[1:frameHeader], uint32(len(cut)-frameHeader))
	for _, tc := range []struct {
		name  string
		frame []byte
		code  string
	}{
		{"payload bit", flip(len(unsigned) - 1), CodeAuth},
		{"tag bit", flip(len(signed) - 1), CodeAuth},
		{"no tag", unsigned, CodeAuth},
		{"short tag", cut, CodeProtocol},
	} {
		conn, codec := rawV3Session(t, addr, "m1")
		if perr := sendRawFrame(t, conn, codec, tc.frame); perr.Code != tc.code {
			t.Errorf("%s: reply = %+v, want %s", tc.name, perr, tc.code)
		}
	}
	head.Flush()
	if got := head.Count("m1"); got != 0 {
		t.Fatalf("tampered frames stored %d readings, want 0", got)
	}
	if got := head.Stats().AuthFailed; got != 3 {
		t.Errorf("auth failures = %d, want 3", got)
	}

	conn, codec := rawV3Session(t, addr, "m1")
	if _, err := conn.Write(signed); err != nil {
		t.Fatal(err)
	}
	kind, body, err := codec.recvFrame()
	if err != nil || kind != frameBatchAck {
		t.Fatalf("intact signed frame: reply kind %d, %v; want a batch-ack", kind, err)
	}
	if count, last, err := parseAckFrame(body); err != nil || count != 2 || last != 1 {
		t.Fatalf("ack = %d readings to slot %d (%v), want 2 to slot 1", count, last, err)
	}
	head.Flush()
	if got := head.Count("m1"); got != 2 {
		t.Errorf("stored %d readings, want 2", got)
	}
}

// TestRejectBusyDrain pins the busy-rejection path: the overflow client
// gets the CodeBusy envelope even if it keeps writing (the drain prevents
// a TCP reset from destroying the error in flight), and the rejected
// connection is untracked once it hangs up.
func TestRejectBusyDrain(t *testing.T) {
	head := NewSharded(1, WithConfig(HeadEndConfig{MaxConns: 1, IdleTimeout: 2 * time.Second, DrainTimeout: time.Second}))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	// Fill the only session slot.
	holder, err := DialBatch(addr, "m1", nil, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer holder.Close()
	if err := holder.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}}); err != nil {
		t.Fatal(err)
	}

	// Overflow connection: send the hello, then keep writing batch frames
	// as a client that has not yet noticed the rejection would.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	codec := NewCodec(conn)
	if err := codec.Send(&Envelope{Type: TypeHello, Hello: &HelloMsg{MeterID: "m2", Version: WireV3}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		_, err := conn.Write(AppendBatchFrame(nil, "m2", []BatchReading{{Slot: int64(i), KW: 1}}, nil))
		if err != nil {
			break // the head-end may hang up mid-drain; the envelope must still be readable
		}
	}
	resp, err := codec.Recv()
	if err != nil {
		t.Fatalf("busy envelope lost: %v", err)
	}
	if resp.Type != TypeError || resp.Code != CodeBusy {
		t.Fatalf("response = %+v, want a %s error", resp, CodeBusy)
	}
	perr := &ProtocolError{Code: resp.Code, Message: resp.Error}
	if !errors.Is(perr, ErrBusy) || errors.Is(perr, ErrRejected) {
		t.Errorf("busy rejection must match ErrBusy and stay transient (not ErrRejected)")
	}
	_ = conn.Close()

	// The rejected connection must leave the tracking registry once its
	// drain goroutine notices the hangup, leaving only the live session.
	deadline := time.Now().Add(5 * time.Second)
	for {
		head.mu.Lock()
		tracked := len(head.conns)
		head.mu.Unlock()
		if tracked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("rejected connection still tracked: %d conns registered, want 1", tracked)
		}
		time.Sleep(10 * time.Millisecond)
	}
	st := head.Stats()
	if st.LimitRejected != 1 {
		t.Errorf("limit rejected = %d, want 1", st.LimitRejected)
	}
	if st.ActiveConns != 1 {
		t.Errorf("active conns = %d, want 1", st.ActiveConns)
	}
}

// TestMITMRelaysV3AndRewritesBatches: the proxy must relay the v3 hello
// response (or the downstream handshake stalls), switch to binary frames,
// relay one-way rebinds without waiting for a reply, and apply the
// rewrite to every reading inside a batch frame.
func TestMITMRelaysV3AndRewritesBatches(t *testing.T) {
	head := NewSharded(1, WithDrainTimeout(time.Second))
	upstream, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	mitm := NewMITM(upstream, func(r meter.Reading) meter.Reading {
		r.KW /= 2 // a Class 1 underreporting attack on the link
		return r
	})
	proxyAddr, err := mitm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mitm.Close()

	c, err := DialBatch(proxyAddr, "m1", nil, 5*time.Second)
	if err != nil {
		t.Fatalf("v3 handshake through proxy: %v", err)
	}
	defer c.Close()

	// Rebinding between batches drives the proxy's one-way rebind path: it
	// must relay the rebind and go straight on to the batch behind it.
	const n = 10
	ids := []string{"m1", "m2", "m1"}
	for b, id := range ids {
		if b > 0 {
			if err := c.Bind(id); err != nil {
				t.Fatal(err)
			}
		}
		rs := make([]meter.Reading, n)
		for i := range rs {
			rs[i] = meter.Reading{MeterID: id, Slot: timeseries.Slot(b*n + i), KW: 2}
		}
		if err := c.SendBatch(rs); err != nil {
			t.Fatalf("batch %d for %s: %v", b, id, err)
		}
	}
	head.Flush()
	for b, id := range ids {
		for i := 0; i < n; i++ {
			slot := timeseries.Slot(b*n + i)
			if v, ok := head.Reading(id, slot); !ok || v != 1 {
				t.Fatalf("%s slot %d = %g, %v; want rewritten value 1, true", id, slot, v, ok)
			}
		}
	}
	if got := head.Count("m2"); got != n {
		t.Errorf("m2 stored %d readings, want %d", got, n)
	}
	total := len(ids) * n
	seen, rewritten := mitm.Stats()
	if seen != total || rewritten != total {
		t.Errorf("mitm stats = %d seen, %d rewritten; want %d, %d", seen, rewritten, total, total)
	}
}

// TestSignedBatchDefeatsMITM: a signed batch frame rewritten in flight
// fails MAC verification at the head-end — the batch path inherits the
// same tamper-evidence the single-reading path has.
func TestSignedBatchDefeatsMITM(t *testing.T) {
	key := []byte("batch-auth-key")
	head := NewSharded(1, WithKeyring(NewKeyring(map[string][]byte{"m1": key})), WithDrainTimeout(time.Second))
	upstream, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	mitm := NewMITM(upstream, func(r meter.Reading) meter.Reading {
		r.KW /= 2
		return r
	})
	proxyAddr, err := mitm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer mitm.Close()

	c, err := DialBatch(proxyAddr, "m1", key, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rs := []meter.Reading{{MeterID: "m1", Slot: 0, KW: 2}, {MeterID: "m1", Slot: 1, KW: 2}}
	err = c.SendBatch(rs)
	if err == nil {
		t.Fatal("tampered signed batch was accepted")
	}
	if !errors.Is(err, ErrRejected) {
		t.Errorf("err = %v, want a permanent ErrRejected classification", err)
	}
	var ae *AuthError
	if !errors.As(err, &ae) {
		t.Errorf("err = %v, want an *AuthError cause", err)
	}
	if head.Stats().AuthFailed == 0 {
		t.Error("head-end recorded no auth failures")
	}
	head.Flush()
	if got := head.Count("m1"); got != 0 {
		t.Errorf("tampered batch stored %d readings, want 0", got)
	}

	// The same signed batch sent directly (no tampering) verifies and
	// stores — the keyed path works end to end.
	direct, err := DialBatch(upstream, "m1", key, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if err := direct.SendBatch(rs); err != nil {
		t.Fatalf("untampered signed batch rejected: %v", err)
	}
	head.Flush()
	if got := head.Count("m1"); got != 2 {
		t.Errorf("stored %d readings, want 2", got)
	}
}

// TestMITMRewritesOneReadingInV3Frame is the paper's insider premise on
// the v3 link: an attacker rewrites a single reading inside a batch frame.
// Against a signed frame the stale tag gives the tampering away (CodeAuth,
// nothing stored); against an unsigned one the rewrite lands in the store
// exactly as the attacker chose, with every other reading intact.
func TestMITMRewritesOneReadingInV3Frame(t *testing.T) {
	const target = 3
	attack := func(r meter.Reading) meter.Reading {
		if r.Slot == target {
			r.KW = 0
		}
		return r
	}
	rs := make([]meter.Reading, 8)
	for i := range rs {
		rs[i] = meter.Reading{MeterID: "m1", Slot: timeseries.Slot(i), KW: 2}
	}
	for _, signed := range []bool{true, false} {
		var key []byte
		var opts []Option
		if signed {
			key = []byte("insider-key")
			opts = append(opts, WithKeyring(NewKeyring(map[string][]byte{"m1": key})))
		}
		head := NewSharded(1, append(opts, WithDrainTimeout(time.Second))...)
		upstream, err := head.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		mitm := NewMITM(upstream, attack)
		proxyAddr, err := mitm.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		c, err := DialBatch(proxyAddr, "m1", key, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		err = c.SendBatch(rs)
		_ = c.Close()
		_ = mitm.Close()
		_ = head.Close()
		if seen, rewritten := mitm.Stats(); seen != len(rs) || rewritten != 1 {
			t.Errorf("signed=%v: mitm stats = %d seen, %d rewritten; want %d, 1", signed, seen, rewritten, len(rs))
		}

		if signed {
			var perr *ProtocolError
			if !errors.As(err, &perr) || perr.Code != CodeAuth {
				t.Fatalf("signed frame with one rewritten reading: err = %v, want %s", err, CodeAuth)
			}
			if got := head.Count("m1"); got != 0 {
				t.Errorf("signed tampered frame stored %d readings, want 0", got)
			}
			continue
		}
		if err != nil {
			t.Fatalf("unsigned frame: %v", err)
		}
		for i := range rs {
			want := 2.0
			if i == target {
				want = 0
			}
			if v, ok := head.Reading("m1", timeseries.Slot(i)); !ok || v != want {
				t.Errorf("unsigned: slot %d = %g, %v; want %g, true", i, v, ok, want)
			}
		}
	}
}

// TestBatchPayloadGoldenMatchesWAL pins the v3 batch payload to the WAL
// record payload byte for byte. The golden record below was written by
// the WAL encoder before wire v3 existed: it must replay unchanged, its
// payload must equal the frame body for the same batch, and an accepted
// frame's payload must land in the segment exactly as it crossed the wire
// — so WAL directories from before v3 need no wal.meta bump.
func TestBatchPayloadGoldenMatchesWAL(t *testing.T) {
	const golden = "d50b792a39000000" + // crc32, payload length 57
		"0300" + "6d3031" + "03000000" + // meter ID "m01", 3 readings
		"0000000000000000" + "000000000000f83f" + // slot 0, 1.5 kW
		"2f00000000000000" + "0000000000000000" + // slot 47, 0 kW
		"3000000000000000" + "0000000000000240" // slot 48, 2.25 kW
	rec, err := hex.DecodeString(golden)
	if err != nil {
		t.Fatal(err)
	}
	rs := []BatchReading{{Slot: 0, KW: 1.5}, {Slot: 47, KW: 0}, {Slot: 48, KW: 2.25}}

	frame := AppendBatchFrame(nil, "m01", rs, nil)
	if got := hex.EncodeToString(frame[frameHeader:]); got != golden[16:] {
		t.Fatalf("frame payload = %s\nwant WAL payload %s", got, golden[16:])
	}
	meterID, got, next, err := decodeWALRecord(rec, 0, nil)
	if err != nil || string(meterID) != "m01" || next != len(rec) {
		t.Fatalf("golden record replay = %q, %d bytes, %v", meterID, next, err)
	}
	for i := range rs {
		if got[i] != rs[i] {
			t.Fatalf("golden reading %d = %+v, want %+v", i, got[i], rs[i])
		}
	}

	// End to end: the signed frame's payload is what the WAL holds.
	dir := t.TempDir()
	key := []byte("golden-key")
	head := NewSharded(1, WithWAL(dir), WithWALSync(WALSyncAlways),
		WithKeyring(NewKeyring(map[string][]byte{"m01": key})), WithDrainTimeout(time.Second))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialBatch(addr, "m01", key, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	mrs := make([]meter.Reading, len(rs))
	for i, r := range rs {
		mrs[i] = meter.Reading{MeterID: "m01", Slot: timeseries.Slot(r.Slot), KW: r.KW}
	}
	if err := c.SendBatch(mrs); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if err := head.Close(); err != nil {
		t.Fatal(err)
	}
	seg, err := os.ReadFile(filepath.Join(dir, "shard-000", walSegmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seg, rec) {
		t.Fatalf("WAL segment = %x\nwant golden   %x", seg, rec)
	}
}

// TestReliableBatchClientDelivers: the reliable wrapper delivers via v3
// frames chunked at the negotiated cap.
func TestReliableBatchClientDelivers(t *testing.T) {
	reg := obs.NewRegistry()
	head := NewSharded(1, WithMetrics(reg), WithConfig(HeadEndConfig{MaxBatch: 10, DrainTimeout: time.Second}))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer head.Close()

	rc, err := NewReliableClient(addr, "m1", nil, 5*time.Second, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	const n = 30
	rs := make([]meter.Reading, n)
	for i := range rs {
		rs[i] = meter.Reading{MeterID: "m1", Slot: timeseries.Slot(i), KW: 1.25}
	}
	if err := rc.SendAllContext(context.Background(), rs); err != nil {
		t.Fatal(err)
	}
	head.Flush()
	if got := head.Count("m1"); got != n {
		t.Fatalf("stored %d readings, want %d", got, n)
	}
	if got := reg.Counter(metricBatchFrames, "").Value(); got != 3 {
		t.Errorf("batch frames = %d, want 3", got)
	}
}

// loopReader replays one frame forever: a meter that keeps sending the
// same batch.
type loopReader struct {
	frame []byte
	off   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// BenchmarkCodecRecvBatch48 is the head-end's per-frame ingest work ahead
// of storage, as the session does it: read one signed 48-reading v3 frame
// (a day of half-hourly readings), decode its payload, check its meter and
// verify its MAC over the raw payload bytes.
func BenchmarkCodecRecvBatch48(b *testing.B) {
	const meterID = "meter-000001"
	key := []byte("bench-key")
	rs := make([]BatchReading, 48)
	for i := range rs {
		rs[i] = BatchReading{Slot: int64(i), KW: float64(i) / 4}
	}
	frame := AppendBatchFrame(nil, meterID, rs, key)
	kr := NewKeyring(map[string][]byte{meterID: key})
	c := NewCodec(rw{Reader: &loopReader{frame: frame}, Writer: io.Discard})
	var mac macState
	var got []BatchReading
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	for i := 0; i < b.N; i++ {
		kind, body, err := c.recvFrame()
		if err != nil || kind != frameBatch {
			b.Fatalf("frame kind %d: %v", kind, err)
		}
		id, decoded, n, err := decodePayload(body, DefaultMaxBatch, got)
		if err != nil || string(id) != meterID {
			b.Fatalf("decode %q: %v", id, err)
		}
		got = decoded
		if err := kr.verifyPayload(&mac, meterID, got[0].Slot, body[:n], body[n:]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(rs)), "ns/reading")
}
