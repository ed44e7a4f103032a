package ami

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Message authentication for the wire protocol. The paper notes that
// deployed smart meters ship with "encrypted communication capabilities and
// tamper-detection features" but that "reliance on these mechanisms alone
// is not sufficient to ensure total defense" (Section I): a man-in-the-
// middle without the key is stopped cold, yet an attacker who compromises
// the meter itself holds the key and signs whatever she likes. Both facts
// are demonstrated in the tests.
//
// The scheme is HMAC-SHA256 keyed per meter: over a canonical JSON
// encoding of each v1 reading, and over the raw payload bytes of each v3
// batch frame (see frame.go), so a batch is verified without re-encoding.

// Keyring holds per-meter HMAC keys on the head-end side.
type Keyring struct {
	keys map[string][]byte
}

// NewKeyring builds a keyring from meter ID → key. Keys are copied.
func NewKeyring(keys map[string][]byte) *Keyring {
	kr := &Keyring{keys: make(map[string][]byte, len(keys))}
	for id, k := range keys {
		kr.keys[id] = append([]byte(nil), k...)
	}
	return kr
}

// Key returns the key for a meter.
func (kr *Keyring) Key(meterID string) ([]byte, bool) {
	k, ok := kr.keys[meterID]
	return k, ok
}

// canonicalReading is the byte string covered by the MAC. Field order and
// formatting are fixed so both ends agree.
func canonicalReading(r *ReadingMsg) []byte {
	// Strconv-style canonical float keeps the encoding stable.
	b, _ := json.Marshal(struct {
		M string  `json:"m"`
		S int64   `json:"s"`
		K float64 `json:"k"`
	}{r.MeterID, r.Slot, r.KW})
	return b
}

// SignReading computes the hex-encoded HMAC-SHA256 tag for a reading.
func SignReading(key []byte, r *ReadingMsg) string {
	mac := hmac.New(sha256.New, key)
	mac.Write(canonicalReading(r))
	return hex.EncodeToString(mac.Sum(nil))
}

// VerifyReading checks a reading's tag in constant time.
func VerifyReading(key []byte, r *ReadingMsg, tag string) bool {
	want, err := hex.DecodeString(tag)
	if err != nil {
		return false
	}
	mac := hmac.New(sha256.New, key)
	mac.Write(canonicalReading(r))
	return hmac.Equal(mac.Sum(nil), want)
}

// AuthError marks a reading whose MAC failed verification.
type AuthError struct {
	MeterID string
	Slot    int64
}

// Error implements error.
func (e *AuthError) Error() string {
	return fmt.Sprintf("ami: authentication failed for meter %s slot %d", e.MeterID, e.Slot)
}

// VerifyEnvelope authenticates a v1 reading envelope against the keyring.
// Unknown meters and missing/invalid tags fail closed.
func (kr *Keyring) VerifyEnvelope(e *Envelope) error {
	if e.Type != TypeReading || e.Reading == nil {
		return fmt.Errorf("ami: can only authenticate reading envelopes")
	}
	key, ok := kr.Key(e.Reading.MeterID)
	if !ok {
		return fmt.Errorf("ami: no key enrolled for meter %q", e.Reading.MeterID)
	}
	if e.Auth == "" || !VerifyReading(key, e.Reading, e.Auth) {
		return &AuthError{MeterID: e.Reading.MeterID, Slot: e.Reading.Slot}
	}
	return nil
}

// verifyPayload authenticates a v3 batch frame: tag must be the raw
// HMAC-SHA256 of the payload bytes exactly as received, under the meter's
// key. Unknown meters and missing/invalid tags fail closed; a failure
// reports the batch's first slot.
func (kr *Keyring) verifyPayload(meterID string, firstSlot int64, payload, tag []byte) error {
	key, ok := kr.Key(meterID)
	if !ok {
		return fmt.Errorf("ami: no key enrolled for meter %q", meterID)
	}
	var sum [macSize]byte
	if len(tag) != macSize || !hmac.Equal(payloadMAC(sum[:0], key, payload), tag) {
		return &AuthError{MeterID: meterID, Slot: firstSlot}
	}
	return nil
}
