package ami

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/obs"
)

// walRecordSet flattens applied records into comparable (meter, slot, kw)
// triples for the invent-nothing check.
type walRecordSet struct {
	meterIDs []string
	readings [][]BatchReading
}

func (s *walRecordSet) apply(meterID string, rs []BatchReading) {
	s.meterIDs = append(s.meterIDs, meterID)
	s.readings = append(s.readings, slices.Clone(rs)) // rs is borrowed
}

func (s *walRecordSet) count() int64 {
	var n int64
	for _, rs := range s.readings {
		n += int64(len(rs))
	}
	return n
}

// FuzzWALReplay feeds arbitrary bytes to the WAL recovery path as a
// segment file. Whatever the damage — truncation, bit flips, garbage —
// recovery must never panic, must apply exactly the longest valid record
// prefix (never inventing readings past it), and must truncate the file
// so a second recovery reads back clean.
func FuzzWALReplay(f *testing.F) {
	var valid []byte
	valid = encodeWALRecord(valid, "m01", []BatchReading{{Slot: 0, KW: 1.5}, {Slot: 1, KW: 2}})
	valid = encodeWALRecord(valid, "m02", []BatchReading{{Slot: 47, KW: 0}})
	valid = encodeWALRecord(valid, "meter-with-a-longer-id", []BatchReading{{Slot: 9, KW: 3.25}})
	f.Add(valid)
	f.Add(valid[:len(valid)-5])               // torn tail mid-record
	f.Add(valid[:walRecordHeader-2])          // torn header
	f.Add([]byte{})                           // empty segment
	f.Add([]byte("not a wal segment at all")) // garbage
	f.Add(bytes.Repeat([]byte{0xff}, 64))     // huge bogus length field
	flipped := append([]byte(nil), valid...)
	flipped[walRecordHeader+3] ^= 0x10 // payload bit flip in record 1
	f.Add(flipped)
	crcFlip := append([]byte(nil), valid...)
	crcFlip[1] ^= 0x80 // CRC bit flip in record 1
	f.Add(crcFlip)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, walSegmentName(1))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		var got walRecordSet
		n, validLen, torn, err := replayWALFile(path, got.apply)
		if err != nil {
			t.Fatalf("replay of a readable file returned I/O error: %v", err)
		}
		if n != got.count() {
			t.Fatalf("replay reported %d readings but applied %d", n, got.count())
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("valid prefix %d outside file of %d bytes", validLen, len(data))
		}
		if torn == (validLen == int64(len(data))) {
			t.Fatalf("torn=%v inconsistent with valid prefix %d of %d bytes", torn, validLen, len(data))
		}

		// The applied records must decode *from the input* at their framed
		// offsets — replay may never invent or reorder readings.
		off := 0
		for i := range got.meterIDs {
			meterID, rs, next, derr := decodeWALRecord(data, off, nil)
			if derr != nil {
				t.Fatalf("applied record %d does not decode from the input: %v", i, derr)
			}
			if string(meterID) != got.meterIDs[i] || len(rs) != len(got.readings[i]) {
				t.Fatalf("applied record %d (%q, %d readings) differs from framed record (%q, %d readings)",
					i, got.meterIDs[i], len(got.readings[i]), meterID, len(rs))
			}
			for j := range rs {
				if rs[j] != got.readings[i][j] {
					t.Fatalf("applied reading %d/%d = %+v, framed %+v", i, j, got.readings[i][j], rs[j])
				}
			}
			off = next
		}
		if int64(off) != validLen {
			t.Fatalf("applied records end at %d, valid prefix reported as %d", off, validLen)
		}

		// Full recovery truncates the tear in place: a second open of the
		// directory must recover the same readings with zero torn tails.
		ins := testWALInstruments()
		w, err := openShardWAL(dir, walConfig{sync: WALSyncOff}, ins, obs.Logger("test"),
			func(string, []BatchReading) {})
		if err != nil {
			t.Fatalf("first open failed on damaged segment: %v", err)
		}
		if v := ins.recovered.Value(); v != n {
			t.Fatalf("open recovered %d readings, replay said %d", v, n)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		var again walRecordSet
		ins2 := testWALInstruments()
		w2, err := openShardWAL(dir, walConfig{sync: WALSyncOff}, ins2, obs.Logger("test"), again.apply)
		if err != nil {
			t.Fatalf("second open failed: %v", err)
		}
		defer func() { _ = w2.Close() }()
		if v := ins2.tornTails.Value(); v != 0 {
			t.Fatalf("second open still sees %d torn tails; truncation did not persist", v)
		}
		if again.count() != n {
			t.Fatalf("second open recovered %d readings, want %d", again.count(), n)
		}
	})
}
