package ami

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// Wire v3 binary framing. After the JSON hello exchange negotiates v3,
// every frame in both directions is
//
//	kind uint8 | len(body) uint32 | body
//
// with integers little-endian, like the WAL. The bodies:
//
//	rebind        meterID                          (client → head-end)
//	rebind reply  maxBatch uint32                  (head-end → client)
//	batch         payload [| HMAC-SHA256(payload)] (client → head-end)
//	batch-ack     count uint32 | lastSlot int64    (head-end → client)
//	error         len(code) uint8 | code | message (head-end → client)
//
// A batch payload is exactly the WAL record payload:
//
//	len(meterID) uint16 | meterID | count uint32 |
//	count x (slot int64 | kW float64-bits uint64)
//
// The payload is self-delimiting, so a batch body is signed iff exactly
// 32 bytes follow it. The MAC covers the raw payload bytes, the head-end
// verifies the bytes it received, and the WAL appends those same bytes
// behind its CRC: an accepted frame is never re-encoded.

// Frame kinds.
const (
	frameRebind      byte = 1
	frameRebindReply byte = 2
	frameBatch       byte = 3
	frameBatchAck    byte = 4
	frameError       byte = 5
)

const (
	// frameHeader is the kind byte plus the uint32 body length.
	frameHeader = 5
	// macSize is the length of the raw HMAC-SHA256 tag on a signed batch.
	macSize = sha256.Size
	// maxMeterIDLen is the longest meter ID a payload can carry (its
	// length field is a uint16).
	maxMeterIDLen = math.MaxUint16
	// payloadFixed is the payload overhead besides the meter ID and the
	// readings: the ID length and the count.
	payloadFixed = 2 + 4
	// readingBytes is one (slot, kW) pair on the wire.
	readingBytes = 16
)

// beginFrame appends a frame header with a zero length; finishFrame fills
// the length in once the body is appended. start is len(dst) on entry.
func beginFrame(dst []byte, kind byte) (frame []byte, start int) {
	return append(dst, kind, 0, 0, 0, 0), len(dst)
}

// finishFrame writes the body length into the frame begun at dst[start].
func finishFrame(dst []byte, start int) []byte {
	binary.LittleEndian.PutUint32(dst[start+1:start+frameHeader], uint32(len(dst)-start-frameHeader))
	return dst
}

// appendPayload appends the batch payload for one meter's readings: the
// single encoder behind batch frames, WAL appends and WAL snapshots. The
// meter ID must be at most maxMeterIDLen bytes.
func appendPayload(dst []byte, meterID string, rs []BatchReading) []byte {
	dst = slices.Grow(dst, payloadFixed+len(meterID)+readingBytes*len(rs))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(meterID)))
	dst = append(dst, meterID...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(rs)))
	for _, r := range rs {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Slot))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.KW))
	}
	return dst
}

// decodePayload decodes the batch payload at the start of p: the single
// decoder behind the head-end, the MITM and WAL replay. It enforces the
// ingest rules — a non-empty meter ID, 1 <= count <= maxCount, every slot
// non-negative, every kW finite and non-negative, and enough bytes for
// count readings — and returns the meter ID (aliasing p), the readings
// (freshly allocated), and the payload length n. Bytes past n are the
// caller's to judge.
func decodePayload(p []byte, maxCount int) (meterID []byte, rs []BatchReading, n int, err error) {
	if len(p) < payloadFixed {
		return nil, nil, 0, fmt.Errorf("ami: batch payload of %d bytes is truncated", len(p))
	}
	idLen := int(binary.LittleEndian.Uint16(p))
	if idLen == 0 {
		return nil, nil, 0, fmt.Errorf("ami: batch payload missing meter ID")
	}
	if payloadFixed+idLen > len(p) {
		return nil, nil, 0, fmt.Errorf("ami: batch meter ID overruns the %d-byte payload", len(p))
	}
	count := int(binary.LittleEndian.Uint32(p[2+idLen:]))
	if count < 1 {
		return nil, nil, 0, fmt.Errorf("ami: batch carries no readings")
	}
	if count > maxCount {
		return nil, nil, 0, fmt.Errorf("ami: batch of %d readings exceeds the cap %d", count, maxCount)
	}
	n = payloadFixed + idLen + readingBytes*count
	if n > len(p) {
		return nil, nil, 0, fmt.Errorf("ami: batch of %d readings needs %d bytes, payload has %d", count, n, len(p))
	}
	rs = make([]BatchReading, count)
	off := payloadFixed + idLen
	for i := range rs {
		slot := int64(binary.LittleEndian.Uint64(p[off:]))
		kw := math.Float64frombits(binary.LittleEndian.Uint64(p[off+8:]))
		if slot < 0 {
			return nil, nil, 0, fmt.Errorf("ami: batch reading %d slot %d negative", i, slot)
		}
		if err := validKW(kw); err != nil {
			return nil, nil, 0, fmt.Errorf("ami: batch reading %d: %w", i, err)
		}
		rs[i] = BatchReading{Slot: slot, KW: kw}
		off += readingBytes
	}
	return p[2 : 2+idLen], rs, n, nil
}

// payloadMAC appends the raw HMAC-SHA256 tag of payload under key to dst.
func payloadMAC(dst, key, payload []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(payload)
	return mac.Sum(dst)
}

// AppendBatchFrame appends one complete wire-v3 batch frame to dst: the
// frame header, the payload for meterID's readings, and — when key is
// non-empty — the HMAC-SHA256 tag over the payload. The meter ID must be
// at most 65535 bytes; readings are sent as given (the head-end validates).
func AppendBatchFrame(dst []byte, meterID string, rs []BatchReading, key []byte) []byte {
	dst, start := beginFrame(dst, frameBatch)
	dst = appendPayload(dst, meterID, rs)
	if len(key) > 0 {
		dst = payloadMAC(dst, key, dst[start+frameHeader:])
	}
	return finishFrame(dst, start)
}

// appendErrorFrame appends a complete error frame. Codes longer than 255
// bytes are cut (none of the Code* constants comes close).
func appendErrorFrame(dst []byte, code, msg string) []byte {
	code = code[:min(len(code), math.MaxUint8)]
	dst, start := beginFrame(dst, frameError)
	dst = append(dst, byte(len(code)))
	dst = append(dst, code...)
	dst = append(dst, msg...)
	return finishFrame(dst, start)
}

// parseErrorFrame splits an error frame body into its code and message.
func parseErrorFrame(body []byte) (*ProtocolError, error) {
	if len(body) < 1 || 1+int(body[0]) > len(body) {
		return nil, fmt.Errorf("ami: error frame of %d bytes is malformed", len(body))
	}
	n := 1 + int(body[0])
	return &ProtocolError{Code: string(body[1:n]), Message: string(body[n:])}, nil
}

// appendAckFrame appends a complete batch-ack frame.
func appendAckFrame(dst []byte, count int, lastSlot int64) []byte {
	dst, start := beginFrame(dst, frameBatchAck)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(lastSlot))
	return finishFrame(dst, start)
}

// parseAckFrame decodes a batch-ack body.
func parseAckFrame(body []byte) (count int, lastSlot int64, err error) {
	if len(body) != 12 {
		return 0, 0, fmt.Errorf("ami: batch-ack frame of %d bytes, want 12", len(body))
	}
	return int(binary.LittleEndian.Uint32(body)), int64(binary.LittleEndian.Uint64(body[4:])), nil
}

// appendRebindFrame appends a complete rebind frame for meterID.
func appendRebindFrame(dst []byte, meterID string) []byte {
	dst, start := beginFrame(dst, frameRebind)
	return finishFrame(append(dst, meterID...), start)
}

// appendRebindReplyFrame appends a complete rebind-reply frame.
func appendRebindReplyFrame(dst []byte, maxBatch int) []byte {
	dst, start := beginFrame(dst, frameRebindReply)
	return finishFrame(binary.LittleEndian.AppendUint32(dst, uint32(maxBatch)), start)
}

// parseRebindReplyFrame decodes a rebind-reply body into the batch cap.
func parseRebindReplyFrame(body []byte) (int, error) {
	if len(body) != 4 {
		return 0, fmt.Errorf("ami: rebind-reply frame of %d bytes, want 4", len(body))
	}
	return int(binary.LittleEndian.Uint32(body)), nil
}

// writeFrame writes one complete frame, refusing frames past the bound.
// Frames are built in c.out, which keeps the grown buffer for the next.
func (c *Codec) writeFrame(frame []byte) error {
	c.out = frame
	if len(frame) > c.max {
		return fmt.Errorf("ami: encoding frame: %w", c.oversized(len(frame)))
	}
	if _, err := c.w.Write(frame); err != nil {
		return fmt.Errorf("ami: encoding frame: %w", err)
	}
	return nil
}

// relayFrame re-frames a body read from another codec and writes it.
func (c *Codec) relayFrame(kind byte, body []byte) error {
	f, start := beginFrame(c.out[:0], kind)
	return c.writeFrame(finishFrame(append(f, body...), start))
}

// recvFrame reads one binary frame. The length prefix is checked against
// the codec's bound before anything is allocated, and unknown kinds are
// refused. The body is borrowed: it is valid until the next read. A clean
// EOF at a frame boundary returns io.EOF unwrapped; a frame cut short
// returns a wrapped io.ErrUnexpectedEOF.
func (c *Codec) recvFrame() (kind byte, body []byte, err error) {
	if _, err := io.ReadFull(c.r, c.hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, fmt.Errorf("ami: decoding frame: %w", err)
	}
	kind = c.hdr[0]
	if kind < frameRebind || kind > frameError {
		return 0, nil, fmt.Errorf("ami: decoding frame: unknown kind %d", kind)
	}
	n := int64(binary.LittleEndian.Uint32(c.hdr[1:]))
	if n > int64(c.max-frameHeader) {
		return 0, nil, fmt.Errorf("ami: decoding frame: %w", c.oversized(int(n)+frameHeader))
	}
	if int64(cap(c.buf)) < n {
		c.buf = make([]byte, n)
	}
	body = c.buf[:n]
	if _, err := io.ReadFull(c.r, body); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, fmt.Errorf("ami: decoding frame: %w", err)
	}
	return kind, body, nil
}
