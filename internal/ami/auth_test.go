package ami

import (
	"errors"
	"testing"
	"time"

	"repro/internal/meter"
	"repro/internal/timeseries"
)

func TestSignVerifyReading(t *testing.T) {
	key := []byte("meter-secret-key")
	r := &ReadingMsg{MeterID: "m1", Slot: 7, KW: 1.25}
	tag := SignReading(key, r)
	if tag == "" {
		t.Fatal("empty tag")
	}
	if !VerifyReading(key, r, tag) {
		t.Error("valid tag should verify")
	}
	// Any field change breaks the MAC.
	for _, mutate := range []func(*ReadingMsg){
		func(m *ReadingMsg) { m.KW = 0.5 },
		func(m *ReadingMsg) { m.Slot = 8 },
		func(m *ReadingMsg) { m.MeterID = "m2" },
	} {
		bad := *r
		mutate(&bad)
		if VerifyReading(key, &bad, tag) {
			t.Error("modified reading must not verify")
		}
	}
	if VerifyReading([]byte("wrong key"), r, tag) {
		t.Error("wrong key must not verify")
	}
	if VerifyReading(key, r, "not-hex!") {
		t.Error("malformed tag must not verify")
	}
	if VerifyReading(key, r, "") {
		t.Error("empty tag must not verify")
	}
}

func TestKeyringVerifyEnvelope(t *testing.T) {
	key := []byte("k1")
	kr := NewKeyring(map[string][]byte{"m1": key})
	r := &ReadingMsg{MeterID: "m1", Slot: 1, KW: 2}
	env := &Envelope{Type: TypeReading, Reading: r, Auth: SignReading(key, r)}
	if err := kr.VerifyEnvelope(env); err != nil {
		t.Errorf("valid envelope rejected: %v", err)
	}
	// Missing tag.
	var authErr *AuthError
	bad := &Envelope{Type: TypeReading, Reading: r}
	if err := kr.VerifyEnvelope(bad); !errors.As(err, &authErr) {
		t.Errorf("missing tag should be AuthError, got %v", err)
	}
	if authErr.Error() == "" {
		t.Error("AuthError message empty")
	}
	// Unknown meter.
	unknown := &Envelope{Type: TypeReading, Reading: &ReadingMsg{MeterID: "mX", Slot: 1, KW: 2}}
	if err := kr.VerifyEnvelope(unknown); err == nil {
		t.Error("unknown meter should fail closed")
	}
	// Wrong envelope type.
	if err := kr.VerifyEnvelope(&Envelope{Type: TypeAck, Ack: &AckMsg{}}); err == nil {
		t.Error("non-reading envelope should error")
	}
	// Keyring copies keys at construction.
	src := map[string][]byte{"m2": []byte("secret")}
	kr2 := NewKeyring(src)
	src["m2"][0] = 'X'
	k, _ := kr2.Key("m2")
	if string(k) != "secret" {
		t.Error("keyring must copy keys")
	}
}

func TestAuthenticatedSessionEndToEnd(t *testing.T) {
	key := []byte("shared-secret")
	head := NewSharded(1, WithKeyring(NewKeyring(map[string][]byte{"m1": key})))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head.Close() }()

	c, err := DialAuth(addr, "m1", key, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Send(meter.Reading{MeterID: "m1", Slot: 0, KW: 3}); err != nil {
		t.Fatalf("signed reading rejected: %v", err)
	}
	head.Flush()
	if v, ok := head.Reading("m1", 0); !ok || v != 3 {
		t.Error("signed reading not stored")
	}
	if head.Stats().AuthFailed != 0 {
		t.Error("no auth failures expected")
	}
}

func TestMITMDefeatedBySignatures(t *testing.T) {
	// The paper's industry status quo: with message authentication, a MITM
	// that rewrites readings is detected — the rewritten reading fails the
	// MAC and is rejected.
	key := []byte("shared-secret")
	head := NewSharded(1, WithKeyring(NewKeyring(map[string][]byte{"m1": key})))
	upstream, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head.Close() }()

	mitm := NewMITM(upstream, func(r ReadingMsg) ReadingMsg {
		r.KW /= 2
		return r
	})
	proxyAddr, err := mitm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mitm.Close() }()

	c, err := DialAuth(proxyAddr, "m1", key, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	err = c.Send(meter.Reading{MeterID: "m1", Slot: 0, KW: 4})
	if err == nil {
		t.Fatal("tampered reading should be rejected by the head-end")
	}
	if got := head.Stats().AuthFailed; got != 1 {
		t.Errorf("AuthFailed = %d, want 1", got)
	}
	head.Flush()
	if _, ok := head.Reading("m1", 0); ok {
		t.Error("tampered reading must not be stored")
	}
}

func TestCompromisedMeterKeyStillSteals(t *testing.T) {
	// The paper's counterpoint (Section I): an attacker who compromises
	// the meter holds its key — signatures verify, theft succeeds, and
	// only data-driven detection remains.
	key := []byte("shared-secret")
	head := NewSharded(1, WithKeyring(NewKeyring(map[string][]byte{"m1": key})))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head.Close() }()

	// The compromised meter under-reports and signs the lie with its own key.
	m, err := meter.New("m1", timeseries.Series{4, 4, 4}, meter.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m.Compromise(func(_ timeseries.Slot, v float64) float64 { return v / 4 })

	c, err := DialAuth(addr, "m1", key, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	r, err := m.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Send(r); err != nil {
		t.Fatalf("signed falsified reading should be accepted: %v", err)
	}
	head.Flush()
	v, ok := head.Reading("m1", 0)
	if !ok || v != 1 {
		t.Errorf("head-end stored %g, want the falsified 1 kW", v)
	}
	if head.Stats().AuthFailed != 0 {
		t.Error("no MAC failure: the crypto is intact, the data is not")
	}
}

func TestUnsignedReadingRejectedWhenKeyringActive(t *testing.T) {
	head := NewSharded(1, WithKeyring(NewKeyring(map[string][]byte{"m1": []byte("k")})))
	addr, err := head.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = head.Close() }()
	c, err := Dial(addr, "m1", time.Second) // no key: unsigned readings
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Send(meter.Reading{MeterID: "m1", Slot: 0, KW: 1}); err == nil {
		t.Error("unsigned reading should be rejected when authentication is on")
	}
	head.Flush()
	if n := head.Count("m1"); n != 0 {
		t.Errorf("unsigned reading reached the store: Count = %d", n)
	}
}
