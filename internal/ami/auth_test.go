package ami

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"testing"
	"time"

	"repro/internal/meter"
	"repro/internal/timeseries"
)

// TestMACMatchesCryptoHMAC holds the reusable MAC state to crypto/hmac
// byte for byte, over keys shorter than, equal to and longer than the
// SHA-256 block (a long key is hashed first) and payloads of every length
// class, with one state reused across all of them.
func TestMACMatchesCryptoHMAC(t *testing.T) {
	var m macState
	for _, keyLen := range []int{0, 1, 9, 32, 63, 64, 65, 100, 200} {
		key := make([]byte, keyLen)
		for i := range key {
			key[i] = byte(7*i + keyLen)
		}
		for _, n := range []int{0, 1, 55, 56, 64, 119, 782, 4096} {
			payload := make([]byte, n)
			for i := range payload {
				payload[i] = byte(i*31 + n)
			}
			ref := hmac.New(sha256.New, key)
			ref.Write(payload)
			want := ref.Sum([]byte("prefix"))
			if got := m.appendMAC([]byte("prefix"), key, payload); !bytes.Equal(got, want) {
				t.Fatalf("key %d bytes, payload %d bytes: tag %x, want %x", keyLen, n, got, want)
			}
		}
	}
}

func TestKeyringVerifyPayload(t *testing.T) {
	key := []byte("k1")
	kr := NewKeyring(map[string][]byte{"m1": key})
	signed := AppendBatchFrame(nil, "m1", []BatchReading{{Slot: 1, KW: 2}}, key)[frameHeader:]
	payload, tag := signed[:len(signed)-macSize], signed[len(signed)-macSize:]
	if err := kr.verifyPayload(new(macState), "m1", 1, payload, tag); err != nil {
		t.Errorf("valid tag rejected: %v", err)
	}
	// Missing tag.
	var authErr *AuthError
	if err := kr.verifyPayload(new(macState), "m1", 1, payload, nil); !errors.As(err, &authErr) {
		t.Errorf("missing tag should be AuthError, got %v", err)
	}
	if authErr.Error() == "" {
		t.Error("AuthError message empty")
	}
	// Unknown meter.
	if err := kr.verifyPayload(new(macState), "mX", 1, payload, tag); err == nil {
		t.Error("unknown meter should fail closed")
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

	c, err := DialBatch(addr, "m1", key, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 3}}); err != nil {
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

	mitm := NewMITM(upstream, func(r meter.Reading) meter.Reading {
		r.KW /= 2
		return r
	})
	proxyAddr, err := mitm.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mitm.Close() }()

	c, err := DialBatch(proxyAddr, "m1", key, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	err = c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 4}})
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

	c, err := DialBatch(addr, "m1", key, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	r, err := m.Report(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SendBatch([]meter.Reading{r}); err != nil {
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
	c, err := DialBatch(addr, "m1", nil, time.Second) // no key: unsigned readings
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.SendBatch([]meter.Reading{{MeterID: "m1", Slot: 0, KW: 1}}); err == nil {
		t.Error("unsigned reading should be rejected when authentication is on")
	}
	head.Flush()
	if n := head.Count("m1"); n != 0 {
		t.Errorf("unsigned reading reached the store: Count = %d", n)
	}
}
