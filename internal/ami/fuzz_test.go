package ami

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"strings"
	"testing"
)

// rw glues separate reader/writer halves into an io.ReadWriter for codec
// construction in tests.
type rw struct {
	io.Reader
	io.Writer
}

// FuzzCodecRecv feeds arbitrary bytes to both wire decoders — the JSON
// envelope reader and the v3 binary frame reader. Neither may panic, and
// whatever either accepts must round-trip (see checkJSONCodec and
// checkFrameCodec).
func FuzzCodecRecv(f *testing.F) {
	f.Add(`{"type":"hello","hello":{"meter_id":"m1"}}` + "\n")
	f.Add(`{"type":"reading","reading":{"meter_id":"m1","slot":3,"kw":1.5}}` + "\n")
	f.Add(`{"type":"ack","ack":{"slot":7}}` + "\n")
	f.Add(`{"type":"error","error":"boom"}` + "\n")
	f.Add(`{"type":"error","error":"bad MAC","code":"auth"}` + "\n")
	f.Add(`{"type":"error","error":"at limit","code":"busy"}` + "\n")
	f.Add(`{"type":"bogus"}` + "\n")
	f.Add(`not json`)
	f.Add(``)
	f.Add(`{"type":"reading","reading":{"meter_id":"","slot":-1,"kw":-2}}` + "\n")
	// Retired wire-v2 JSON shapes (batch frames and acks are now unknown
	// envelope types the decoder must refuse), versioned hellos, and the
	// non-finite / oversized poison the bounded decoder must refuse.
	f.Add(`{"type":"hello","hello":{"meter_id":"m1","ver":2,"max_batch":16}}` + "\n")
	f.Add(`{"type":"batch","batch":{"meter_id":"m1","readings":[{"slot":0,"kw":1.5},{"slot":1,"kw":2}]}}` + "\n")
	f.Add(`{"type":"batch","batch":{"meter_id":"m1","readings":[]}}` + "\n")
	f.Add(`{"type":"batch_ack","batch_ack":{"count":2,"last_slot":1}}` + "\n")
	f.Add(`{"type":"reading","reading":{"meter_id":"m1","slot":0,"kw":1e999}}` + "\n")
	f.Add(`{"type":"batch","batch":{"meter_id":"m1","readings":[{"slot":0,"kw":-1e999}]}}` + "\n")
	f.Add(`{"type":"hello","hello":{"meter_id":"` + strings.Repeat("A", 200) + `"}}` + "\n")
	f.Add(strings.Repeat("x", 300))
	// More retired wire-v2 shapes: an authenticated JSON batch, a
	// mid-session re-hello pair, a v3 hello, and a batch whose length
	// disagrees with its contents.
	f.Add(`{"type":"batch","batch":{"meter_id":"m1","readings":[{"slot":0,"kw":1}],"mac":"deadbeef"}}` + "\n")
	f.Add(`{"type":"hello","hello":{"meter_id":"m1","ver":2,"max_batch":16}}` + "\n" +
		`{"type":"hello","hello":{"meter_id":"m2","ver":2,"max_batch":16}}` + "\n")
	f.Add(`{"type":"hello","hello":{"meter_id":"m1","ver":3,"max_batch":1024}}` + "\n")
	f.Add(`{"type":"batch","batch":{"meter_id":"m1","readings":[{"slot":9007199254740993,"kw":0.1}]}}` + "\n")
	f.Add(`{"type":"batch_ack","batch_ack":{"count":0,"last_slot":-1}}` + "\n")

	// Wire v3 binary frames: the batch decoder's accept and refuse cases.
	for _, seed := range v3FuzzSeeds() {
		f.Add(string(seed))
	}

	f.Fuzz(func(t *testing.T, input string) {
		checkJSONCodec(t, input)
		checkFrameCodec(t, input)
	})
}

// v3FuzzSeeds builds the binary seeds: valid signed and unsigned batches,
// a frame cut mid-body, a count that disagrees with the length, a length
// prefix past MaxFrameSize, NaN and -1 kW bits, a negative slot, and the
// small control frames.
func v3FuzzSeeds() [][]byte {
	rs := []BatchReading{{Slot: 0, KW: 1.5}, {Slot: 1, KW: 2}, {Slot: 2, KW: 0}}
	signed := AppendBatchFrame(nil, "m1", rs, []byte("fuzz-key"))
	unsigned := AppendBatchFrame(nil, "m1", rs, nil)
	// Claim 3 readings but carry 2: the frame length stays consistent, the
	// payload does not.
	short := AppendBatchFrame(nil, "m1", rs[:2], nil)
	short[frameHeader+2+2] = 3
	withKW := func(kw float64) []byte {
		return AppendBatchFrame(nil, "m1", []BatchReading{{Slot: 0, KW: 1}, {Slot: 1, KW: kw}}, nil)
	}
	return [][]byte{
		signed,
		unsigned,
		unsigned[:len(unsigned)-7],
		short,
		{frameBatch, 0xff, 0xff, 0xff, 0xff, 0, 0},
		withKW(math.NaN()),
		withKW(-1),
		AppendBatchFrame(nil, "m1", []BatchReading{{Slot: -1, KW: 1}}, nil),
		appendRebindFrame(nil, "m2"),
		appendRebindReplyFrame(nil, 48),
		appendAckFrame(nil, 3, 2),
		appendErrorFrame(nil, CodeAuth, "bad MAC"),
		append(appendRebindFrame(nil, "m2"), unsigned...),
	}
}

// checkJSONCodec: the JSON decoder must never panic, a bounded codec must
// only report oversized frames that really are, and any envelope it
// accepts must re-encode and decode to an equivalent envelope.
func checkJSONCodec(t *testing.T, input string) {
	const limit = 64
	lim := NewCodecLimit(rw{Reader: strings.NewReader(input), Writer: io.Discard}, limit)
	if _, lerr := lim.Recv(); lerr != nil && errors.Is(lerr, ErrOversized) {
		first := len(input)
		if i := strings.IndexByte(input, '\n'); i >= 0 {
			first = i + 1
		}
		if first <= limit {
			t.Fatalf("codec reported oversized for a %d-byte frame under the %d-byte limit", first, limit)
		}
	}

	c := NewCodec(rw{Reader: strings.NewReader(input), Writer: io.Discard})
	env, err := c.Recv()
	if err != nil {
		return
	}
	if err := env.Validate(); err != nil {
		t.Fatalf("Recv returned invalid envelope: %v", err)
	}
	var buf bytes.Buffer
	if err := NewCodec(&buf).Send(env); err != nil {
		t.Fatalf("accepted envelope failed to send: %v", err)
	}
	back, err := NewCodec(&buf).Recv()
	if err != nil {
		t.Fatalf("re-encoded envelope failed to decode: %v", err)
	}
	if back.Type != env.Type {
		t.Fatalf("round-trip changed type: %q vs %q", back.Type, env.Type)
	}
	if env.Type == TypeReading && *back.Reading != *env.Reading {
		t.Fatalf("round-trip changed reading: %+v vs %+v", back.Reading, env.Reading)
	}
	if env.Type == TypeError && back.Code != env.Code {
		t.Fatalf("round-trip changed error code: %q vs %q", back.Code, env.Code)
	}
}

// checkFrameCodec: the binary frame reader must never panic, must report
// oversized only for a length prefix past the bound, and every batch
// payload the decoder accepts must be canonical (re-encoding gives the
// same bytes) and must replay from a WAL record to the same readings —
// the property that lets the head-end log a frame's payload as received.
func checkFrameCodec(t *testing.T, input string) {
	const limit = 64
	lim := NewCodecLimit(rw{Reader: strings.NewReader(input), Writer: io.Discard}, limit)
	if _, _, lerr := lim.recvFrame(); errors.Is(lerr, ErrOversized) {
		if n := binary.LittleEndian.Uint32([]byte(input[1:frameHeader])); int64(n)+frameHeader <= limit {
			t.Fatalf("frame reader reported oversized for a %d-byte body under the %d-byte limit", n, limit)
		}
	}

	c := NewCodec(rw{Reader: strings.NewReader(input), Writer: io.Discard})
	kind, body, err := c.recvFrame()
	if err != nil {
		return
	}
	switch kind {
	case frameBatch:
		id, rs, n, err := decodePayload(body, DefaultMaxBatch)
		if err != nil {
			return
		}
		payload := body[:n]
		if again := appendPayload(nil, string(id), rs); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload is not canonical:\n got %x\nwant %x", again, payload)
		}
		rec := appendWALRecord(nil, payload)
		walID, walRS, next, err := decodeWALRecord(rec, 0)
		if err != nil {
			t.Fatalf("payload the codec accepts fails WAL replay: %v", err)
		}
		if walID != string(id) || next != len(rec) || len(walRS) != len(rs) {
			t.Fatalf("WAL replay = %q/%d readings/%d bytes, wire = %q/%d readings/%d bytes",
				walID, len(walRS), next, id, len(rs), len(rec))
		}
		for i := range rs {
			if walRS[i].Slot != rs[i].Slot || math.Float64bits(walRS[i].KW) != math.Float64bits(rs[i].KW) {
				t.Fatalf("WAL replay reading %d = %+v, wire %+v", i, walRS[i], rs[i])
			}
		}
	case frameError:
		perr, err := parseErrorFrame(body)
		if err != nil {
			return
		}
		back, err := parseErrorFrame(appendErrorFrame(nil, perr.Code, perr.Message)[frameHeader:])
		if err != nil || back.Code != perr.Code || back.Message != perr.Message {
			t.Fatalf("error frame round trip = %+v, %v; want %+v", back, err, perr)
		}
	case frameBatchAck:
		count, last, err := parseAckFrame(body)
		if err != nil {
			return
		}
		if !bytes.Equal(appendAckFrame(nil, count, last)[frameHeader:], body) {
			t.Fatalf("batch-ack frame round trip changed %x", body)
		}
	}
}
