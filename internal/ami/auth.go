package ami

import (
	"crypto/hmac"
	"crypto/sha256"
	"fmt"
	"hash"
)

// Message authentication for the wire protocol. The paper notes that
// deployed smart meters ship with "encrypted communication capabilities and
// tamper-detection features" but that "reliance on these mechanisms alone
// is not sufficient to ensure total defense" (Section I): a man-in-the-
// middle without the key is stopped cold, yet an attacker who compromises
// the meter itself holds the key and signs whatever she likes. Both facts
// are demonstrated in the tests.
//
// The scheme is HMAC-SHA256 keyed per meter over the raw payload bytes of
// each batch frame (see frame.go), so a batch is verified without
// re-encoding.

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

// AuthError marks a batch whose MAC failed verification; Slot is the
// batch's first slot.
type AuthError struct {
	MeterID string
	Slot    int64
}

// Error implements error.
func (e *AuthError) Error() string {
	return fmt.Sprintf("ami: authentication failed for meter %s slot %d", e.MeterID, e.Slot)
}

// verifyPayload authenticates a batch frame with the caller's MAC state:
// tag must be the raw HMAC-SHA256 of the payload bytes exactly as
// received, under the meter's key. Unknown meters and missing/invalid tags
// fail closed; a failure reports the batch's first slot.
func (kr *Keyring) verifyPayload(mac *macState, meterID string, firstSlot int64, payload, tag []byte) error {
	key, ok := kr.Key(meterID)
	if !ok {
		return fmt.Errorf("ami: no key enrolled for meter %q", meterID)
	}
	if len(tag) != macSize || !hmac.Equal(mac.appendMAC(mac.tag[:0], key, payload), tag) {
		return &AuthError{MeterID: meterID, Slot: firstSlot}
	}
	return nil
}

// macState computes HMAC-SHA256 tags (RFC 2104) with one SHA-256 state and
// scratch that it keeps across calls, so a session verifies, and a client
// signs, every frame without allocating (crypto/hmac's New allocates two
// hash states per key). The tags are byte-identical to crypto/hmac's. The
// zero value is ready to use; a macState is not safe for concurrent use.
type macState struct {
	h     hash.Hash
	pad   [sha256.BlockSize]byte
	inner [sha256.Size]byte
	tag   [macSize]byte // verifyPayload's scratch
}

// appendMAC appends the raw HMAC-SHA256 tag of payload under key to dst.
func (m *macState) appendMAC(dst, key, payload []byte) []byte {
	if m.h == nil {
		m.h = sha256.New()
	}
	m.h.Reset()
	if len(key) > sha256.BlockSize {
		m.h.Write(key)
		key = m.h.Sum(m.inner[:0])
		m.h.Reset()
	}
	// The inner pad: the zero-padded key XOR 0x36.
	clear(m.pad[:])
	copy(m.pad[:], key)
	for i := range m.pad {
		m.pad[i] ^= 0x36
	}
	m.h.Write(m.pad[:])
	m.h.Write(payload)
	m.h.Sum(m.inner[:0])
	// The outer pad: the zero-padded key XOR 0x5c, turned from the inner
	// one in place.
	for i := range m.pad {
		m.pad[i] ^= 0x36 ^ 0x5c
	}
	m.h.Reset()
	m.h.Write(m.pad[:])
	m.h.Write(m.inner[:])
	return m.h.Sum(dst)
}
