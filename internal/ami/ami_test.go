package ami

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/meter"
	"repro/internal/timeseries"
)

func TestEnvelopeValidate(t *testing.T) {
	valid := []*Envelope{
		{Type: TypeHello, Hello: &HelloMsg{MeterID: "m1"}},
		{Type: TypeReading, Reading: &ReadingMsg{MeterID: "m1", Slot: 0, KW: 1}},
		{Type: TypeAck, Ack: &AckMsg{Slot: 3}},
		{Type: TypeError, Error: "boom"},
	}
	for i, e := range valid {
		if err := e.Validate(); err != nil {
			t.Errorf("valid envelope %d rejected: %v", i, err)
		}
	}
	invalid := []*Envelope{
		{Type: TypeHello},
		{Type: TypeHello, Hello: &HelloMsg{}},
		{Type: TypeReading},
		{Type: TypeReading, Reading: &ReadingMsg{Slot: 0}},
		{Type: TypeReading, Reading: &ReadingMsg{MeterID: "m", Slot: -1}},
		{Type: TypeReading, Reading: &ReadingMsg{MeterID: "m", KW: -1}},
		{Type: TypeAck},
		{Type: TypeError},
		{Type: "bogus"},
	}
	for i, e := range invalid {
		if err := e.Validate(); err == nil {
			t.Errorf("invalid envelope %d accepted", i)
		}
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewCodec(&buf)
	in := &Envelope{Type: TypeReading, Reading: &ReadingMsg{MeterID: "m1", Slot: 42, KW: 1.5}}
	if err := c.Send(in); err != nil {
		t.Fatal(err)
	}
	out, err := c.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if out.Reading.MeterID != "m1" || out.Reading.Slot != 42 || out.Reading.KW != 1.5 {
		t.Errorf("round trip lost data: %+v", out.Reading)
	}
	// Send validates before writing.
	if err := c.Send(&Envelope{Type: "bogus"}); err == nil {
		t.Error("invalid envelope should not send")
	}
	// Recv validates after reading.
	var buf2 bytes.Buffer
	buf2.WriteString(`{"type":"bogus"}` + "\n")
	c2 := NewCodec(&buf2)
	if _, err := c2.Recv(); err == nil {
		t.Error("invalid inbound envelope should be rejected")
	}
	// Malformed JSON.
	var buf3 bytes.Buffer
	buf3.WriteString("not json\n")
	if _, err := NewCodec(&buf3).Recv(); err == nil {
		t.Error("malformed JSON should error")
	}
}

func startHeadEnd(t *testing.T) (*ShardedHeadEnd, string) {
	t.Helper()
	h := NewSharded(1)
	addr, err := h.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	return h, addr
}

func TestHeadEndCollectsReadings(t *testing.T) {
	h, addr := startHeadEnd(t)
	c, err := Dial(addr, "m1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	for slot := 0; slot < 5; slot++ {
		r := meter.Reading{MeterID: "m1", Slot: timeseries.Slot(slot), KW: float64(slot) + 0.5}
		if err := c.Send(r); err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
	}
	h.Flush()
	if got := h.Count("m1"); got != 5 {
		t.Errorf("Count = %d, want 5", got)
	}
	v, ok := h.Reading("m1", 3)
	if !ok || v != 3.5 {
		t.Errorf("Reading(3) = %g,%v", v, ok)
	}
	s, err := h.Series("m1", 5)
	if err != nil {
		t.Fatal(err)
	}
	if s[4] != 4.5 {
		t.Errorf("series[4] = %g", s[4])
	}
	meters := h.Meters()
	if len(meters) != 1 || meters[0] != "m1" {
		t.Errorf("Meters = %v", meters)
	}
}

func TestHeadEndSeriesGapDetection(t *testing.T) {
	h, addr := startHeadEnd(t)
	c, err := Dial(addr, "m1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// Send slots 0 and 2 only.
	_ = c.Send(meter.Reading{MeterID: "m1", Slot: 0, KW: 1})
	_ = c.Send(meter.Reading{MeterID: "m1", Slot: 2, KW: 1})
	h.Flush()
	if got := h.Count("m1"); got != 2 {
		t.Fatalf("Count = %d, want the 2 sent readings stored", got)
	}
	if _, err := h.Series("m1", 3); err == nil {
		t.Error("gap at slot 1 must be an error, not silent zero")
	}
	if _, err := h.Series("nope", 1); err == nil {
		t.Error("unknown meter should error")
	}
}

func TestClientValidation(t *testing.T) {
	_, addr := startHeadEnd(t)
	if _, err := Dial(addr, "", time.Second); err == nil {
		t.Error("empty meter ID should error")
	}
	c, err := Dial(addr, "m1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// Mismatched meter ID rejected client-side.
	if err := c.Send(meter.Reading{MeterID: "other", Slot: 0, KW: 1}); err == nil {
		t.Error("mismatched meter ID should error")
	}
	// Dial failure.
	if _, err := Dial("127.0.0.1:1", "m1", 100*time.Millisecond); err == nil {
		t.Error("dialing a dead port should error")
	}
}

func TestClientSendAll(t *testing.T) {
	h, addr := startHeadEnd(t)
	c, err := Dial(addr, "m1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	rs := make([]meter.Reading, 10)
	for i := range rs {
		rs[i] = meter.Reading{MeterID: "m1", Slot: timeseries.Slot(i), KW: 1}
	}
	if err := c.SendAll(rs); err != nil {
		t.Fatal(err)
	}
	h.Flush()
	if h.Count("m1") != 10 {
		t.Errorf("Count = %d", h.Count("m1"))
	}
}

func TestMITMRewritesReadings(t *testing.T) {
	h, upstream := startHeadEnd(t)
	// The classic Class 2A rewrite: halve every reported reading.
	mitm := NewMITM(upstream, func(r ReadingMsg) ReadingMsg {
		r.KW /= 2
		return r
	})
	proxyAddr, err := mitm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mitm.Close() }()

	c, err := Dial(proxyAddr, "m1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	// The meter reports honestly; the wire lies.
	if err := c.Send(meter.Reading{MeterID: "m1", Slot: 0, KW: 4}); err != nil {
		t.Fatal(err)
	}
	h.Flush()
	v, ok := h.Reading("m1", 0)
	if !ok || v != 2 {
		t.Errorf("head-end stored %g, want rewritten 2", v)
	}
	seen, rewritten := mitm.Stats()
	if seen != 1 || rewritten != 1 {
		t.Errorf("stats = (%d, %d), want (1, 1)", seen, rewritten)
	}
}

func TestMITMPassThrough(t *testing.T) {
	h, upstream := startHeadEnd(t)
	mitm := NewMITM(upstream, nil)
	proxyAddr, err := mitm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mitm.Close() }()
	c, err := Dial(proxyAddr, "m1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Send(meter.Reading{MeterID: "m1", Slot: 0, KW: 4}); err != nil {
		t.Fatal(err)
	}
	h.Flush()
	v, _ := h.Reading("m1", 0)
	if v != 4 {
		t.Errorf("pass-through stored %g, want 4", v)
	}
}

func TestHeadEndRejectsProtocolViolations(t *testing.T) {
	_, addr := startHeadEnd(t)
	// Reading before hello.
	c, err := Dial(addr, "m1", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	// Dial sent hello for "m1"; sending a reading claiming another meter is
	// rejected server-side.
	raw := &Envelope{Type: TypeReading, Reading: &ReadingMsg{MeterID: "evil", Slot: 0, KW: 1}}
	if err := c.codec.Send(raw); err != nil {
		t.Fatal(err)
	}
	resp, err := c.codec.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if resp.Type != TypeError || resp.Code != CodeSessionMismatch {
		t.Errorf("expected session-mismatch error, got %+v", resp)
	}
}

func TestMultipleMetersConcurrent(t *testing.T) {
	h, addr := startHeadEnd(t)
	const meters = 8
	const readings = 20
	errc := make(chan error, meters)
	for i := 0; i < meters; i++ {
		id := string(rune('a' + i))
		go func(id string) {
			c, err := Dial(addr, id, time.Second)
			if err != nil {
				errc <- err
				return
			}
			defer func() { _ = c.Close() }()
			for s := 0; s < readings; s++ {
				if err := c.Send(meter.Reading{MeterID: id, Slot: timeseries.Slot(s), KW: 1}); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(id)
	}
	for i := 0; i < meters; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
	h.Flush()
	if got := len(h.Meters()); got != meters {
		t.Errorf("Meters = %d, want %d", got, meters)
	}
	for _, id := range h.Meters() {
		if h.Count(id) != readings {
			t.Errorf("meter %s count = %d, want %d", id, h.Count(id), readings)
		}
	}
}

func TestHeadEndCloseIdempotentOrdering(t *testing.T) {
	h := NewSharded(1)
	if _, err := h.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	// Listen after close is rejected.
	if _, err := h.Listen("127.0.0.1:0"); err == nil {
		t.Error("listen after close should error")
	}
}
