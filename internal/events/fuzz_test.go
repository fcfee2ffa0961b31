package events

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"
)

// validBinary builds a small well-formed EVAR stream for the seed
// corpus.
func validBinary(t testing.TB) []byte {
	s := NewStream(8, 6)
	s.Append(Event{X: 1, Y: 2, TS: 100, Pol: On})
	s.Append(Event{X: 3, Y: 4, TS: 250, Pol: Off})
	s.Append(Event{X: 7, Y: 5, TS: 260, Pol: On})
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzReadBinary hammers the EVAR wire decoder with malformed input —
// the exact bytes a serving node accepts from untrusted clients. The
// decoder must never panic, ParseBinary must accept and refuse the same
// bodies with the same error and records, and anything accepted must
// re-encode and re-decode to the same stream.
func FuzzReadBinary(f *testing.F) {
	valid := validBinary(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-5]) // truncated record
	f.Add(valid[:7])            // truncated header
	f.Add([]byte("EVAR"))
	f.Add([]byte("EVIL\x01\x00"))
	// Header claiming 2^40 events over an empty body: the allocation
	// bomb the bounded preallocation defuses.
	bomb := []byte("EVAR")
	hdr := make([]byte, 14)
	binary.LittleEndian.PutUint16(hdr[0:], 1)
	binary.LittleEndian.PutUint16(hdr[2:], 346)
	binary.LittleEndian.PutUint16(hdr[4:], 260)
	binary.LittleEndian.PutUint64(hdr[6:], 1<<40)
	f.Add(append(bomb, hdr...))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadBinary(bytes.NewReader(data))
		p, perr := parsedStream(data)
		if (err == nil) != (perr == nil) || (err != nil && err.Error() != perr.Error()) {
			t.Fatalf("ReadBinary error %v, ParseBinary error %v", err, perr)
		}
		if err != nil {
			return
		}
		if p.Width != s.Width || p.Height != s.Height || !slices.Equal(p.Events, s.Events) {
			t.Fatalf("ParseBinary gives %dx%d/%d events, ReadBinary %dx%d/%d",
				p.Width, p.Height, p.Len(), s.Width, s.Height, s.Len())
		}
		var out bytes.Buffer
		if err := WriteBinary(&out, s); err != nil {
			t.Fatalf("re-encoding accepted stream: %v", err)
		}
		s2, err := ReadBinary(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if s2.Len() != s.Len() || s2.Width != s.Width || s2.Height != s.Height {
			t.Fatalf("roundtrip mismatch: %dx%d/%d events vs %dx%d/%d",
				s.Width, s.Height, s.Len(), s2.Width, s2.Height, s2.Len())
		}
	})
}

// FuzzReadText covers the whitespace text codec the dataset tooling
// reads: no panics, and accepted input survives a roundtrip.
func FuzzReadText(f *testing.F) {
	f.Add([]byte("8 6\n100 1 2 1\n250 3 4 0\n"))
	f.Add([]byte("0 0\n"))
	f.Add([]byte("-3 -9\n1 2 3 4\n"))
	f.Add([]byte("abc"))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadText(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteText(&out, s); err != nil {
			t.Fatalf("re-encoding accepted stream: %v", err)
		}
		s2, err := ReadText(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("re-decoding own encoding: %v", err)
		}
		if s2.Len() != s.Len() {
			t.Fatalf("roundtrip event count %d != %d", s2.Len(), s.Len())
		}
	})
}
