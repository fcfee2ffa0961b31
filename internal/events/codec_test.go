package events

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
)

// validHeader builds an EVAR header for a w x h sensor with the given
// record count and version.
func validHeader(version uint16, w, h int, count uint64) []byte {
	b := []byte("EVAR")
	hdr := make([]byte, 2+2+2+8)
	binary.LittleEndian.PutUint16(hdr[0:], version)
	binary.LittleEndian.PutUint16(hdr[2:], uint16(w))
	binary.LittleEndian.PutUint16(hdr[4:], uint16(h))
	binary.LittleEndian.PutUint64(hdr[6:], count)
	return append(b, hdr...)
}

// record serializes one 13-byte EVAR record.
func record(e Event) []byte {
	rec := make([]byte, 13)
	binary.LittleEndian.PutUint16(rec[0:], e.X)
	binary.LittleEndian.PutUint16(rec[2:], e.Y)
	binary.LittleEndian.PutUint64(rec[4:], uint64(e.TS))
	rec[12] = byte(e.Pol)
	return rec
}

func TestReadBinaryTruncatedMagic(t *testing.T) {
	_, err := ReadBinary(bytes.NewReader([]byte("EV")))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("truncated magic: got %v", err)
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	_, err := ReadBinary(bytes.NewReader([]byte("NOPE\x01\x00\x00\x00")))
	if err == nil || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("bad magic: got %v", err)
	}
}

func TestReadBinaryTruncatedHeader(t *testing.T) {
	// Valid magic, then only half the header.
	buf := append([]byte("EVAR"), make([]byte, 5)...)
	_, err := ReadBinary(bytes.NewReader(buf))
	if err == nil || !strings.Contains(err.Error(), "header") {
		t.Fatalf("truncated header: got %v", err)
	}
}

func TestReadBinaryVersionMismatch(t *testing.T) {
	buf := validHeader(99, 8, 8, 0)
	_, err := ReadBinary(bytes.NewReader(buf))
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("version mismatch: got %v", err)
	}
}

func TestReadBinaryCountZeroRunsToEOF(t *testing.T) {
	// count=0 is the append-friendly mode: records run to EOF and the
	// count check is skipped.
	buf := validHeader(1, 16, 12, 0)
	want := []Event{
		{X: 1, Y: 2, TS: 100, Pol: On},
		{X: 3, Y: 4, TS: 200, Pol: Off},
		{X: 5, Y: 6, TS: 300, Pol: On},
	}
	for _, e := range want {
		buf = append(buf, record(e)...)
	}
	s, err := ReadBinary(bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if s.Width != 16 || s.Height != 12 {
		t.Fatalf("geometry %dx%d, want 16x12", s.Width, s.Height)
	}
	if len(s.Events) != len(want) {
		t.Fatalf("read %d events, want %d", len(s.Events), len(want))
	}
	for i, e := range want {
		if s.Events[i] != e {
			t.Fatalf("event %d = %v, want %v", i, s.Events[i], e)
		}
	}
}

func TestReadBinaryCountZeroEmptyRoundTrip(t *testing.T) {
	// A count=0 header with no records decodes to an empty stream.
	s, err := ReadBinary(bytes.NewReader(validHeader(1, 4, 4, 0)))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("read %d events from empty body", s.Len())
	}
	// And writing it back yields a decodable stream again.
	var buf bytes.Buffer
	if err := WriteBinary(&buf, s); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	back, err := ReadBinary(&buf)
	if err != nil || back.Len() != 0 || back.Width != 4 {
		t.Fatalf("round trip: %v, %+v", err, back)
	}
}

func TestReadBinaryTruncatedRecord(t *testing.T) {
	buf := validHeader(1, 8, 8, 0)
	buf = append(buf, record(Event{X: 1, Y: 1, TS: 10, Pol: On})...)
	buf = append(buf, 0x01, 0x02, 0x03) // 3 bytes of a 13-byte record
	_, err := ReadBinary(bytes.NewReader(buf))
	if err == nil || !strings.Contains(err.Error(), "record") {
		t.Fatalf("truncated record: got %v", err)
	}
}

func TestReadBinaryCountMismatch(t *testing.T) {
	// Header promises 5 records, body carries 2.
	buf := validHeader(1, 8, 8, 5)
	buf = append(buf, record(Event{X: 1, Y: 1, TS: 10, Pol: On})...)
	buf = append(buf, record(Event{X: 2, Y: 2, TS: 20, Pol: Off})...)
	_, err := ReadBinary(bytes.NewReader(buf))
	if err == nil || !strings.Contains(err.Error(), "header count 5 but read 2") {
		t.Fatalf("count mismatch: got %v", err)
	}
}

func TestReadTextErrors(t *testing.T) {
	if _, err := ReadText(strings.NewReader("")); err == nil {
		t.Fatal("empty text accepted")
	}
	if _, err := ReadText(strings.NewReader("10 10\n5 x y z\n")); err == nil {
		t.Fatal("malformed record accepted")
	}
}

// referenceReadBinary is the per-record decoder the block decoder
// replaced — one io.ReadFull per item through a bufio.Reader — kept as
// the oracle for what ReadBinary accepts, returns and says on error.
func referenceReadBinary(r io.Reader) (*Stream, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("events: reading magic: %w", err)
	}
	if string(magic) != "EVAR" {
		return nil, fmt.Errorf("events: bad magic %q", magic)
	}
	hdr := make([]byte, 14)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("events: reading header: %w", err)
	}
	if v := binary.LittleEndian.Uint16(hdr[0:]); v != 1 {
		return nil, fmt.Errorf("events: unsupported version %d", v)
	}
	s := NewStream(int(binary.LittleEndian.Uint16(hdr[2:])), int(binary.LittleEndian.Uint16(hdr[4:])))
	count := binary.LittleEndian.Uint64(hdr[6:])
	rec := make([]byte, 13)
	for {
		_, err := io.ReadFull(br, rec)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("events: reading record: %w", err)
		}
		s.Events = append(s.Events, Event{
			X:   binary.LittleEndian.Uint16(rec[0:]),
			Y:   binary.LittleEndian.Uint16(rec[2:]),
			TS:  int64(binary.LittleEndian.Uint64(rec[4:])),
			Pol: Polarity(int8(rec[12])),
		})
	}
	if count > 0 && uint64(len(s.Events)) != count {
		return nil, fmt.Errorf("events: header count %d but read %d records", count, len(s.Events))
	}
	return s, nil
}

// referenceWriteBinary is the per-record encoder WriteBinary replaced.
func referenceWriteBinary(s *Stream) []byte {
	b := validHeader(1, s.Width, s.Height, uint64(len(s.Events)))
	for _, e := range s.Events {
		b = append(b, record(e)...)
	}
	return b
}

// sliceReader hands out its data in pieces whose sizes cycle through
// sizes, so 13-byte records land on every offset of a read.
type sliceReader struct {
	data  []byte
	sizes []int
	i     int
}

func (r *sliceReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(r.sizes[r.i%len(r.sizes)], len(r.data), len(p))
	r.i++
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// stallReader returns (0, nil) before every read that makes progress:
// legal for an io.Reader, and not a reason to give up.
type stallReader struct {
	r     io.Reader
	stall bool
}

func (r *stallReader) Read(p []byte) (int, error) {
	if r.stall = !r.stall; r.stall {
		return 0, nil
	}
	return r.r.Read(p)
}

// chunkedReaders wraps one body in every delivery pattern the block
// decoder has to be indifferent to.
func chunkedReaders(body []byte) map[string]func() io.Reader {
	return map[string]func() io.Reader{
		"whole":    func() io.Reader { return bytes.NewReader(body) },
		"one_byte": func() io.Reader { return iotest.OneByteReader(bytes.NewReader(body)) },
		"half":     func() io.Reader { return iotest.HalfReader(bytes.NewReader(body)) },
		"data_err": func() io.Reader { return iotest.DataErrReader(bytes.NewReader(body)) },
		"12_13_14": func() io.Reader { return &sliceReader{data: body, sizes: []int{12, 13, 14}} },
		"stalling": func() io.Reader { return &stallReader{r: iotest.HalfReader(bytes.NewReader(body))} },
		"timeout":  func() io.Reader { return iotest.TimeoutReader(bytes.NewReader(body)) },
	}
}

// checkAgainstReference decodes body through every delivery pattern
// and requires the reference decoder's stream, or its error text.
func checkAgainstReference(t *testing.T, name string, body []byte) {
	t.Helper()
	for rname, mk := range chunkedReaders(body) {
		want, werr := referenceReadBinary(mk())
		got, gerr := ReadBinary(mk())
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s/%s: error %v, reference %v", name, rname, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s/%s: decoded stream differs from the per-record reference (%d vs %d events)",
				name, rname, got.Len(), want.Len())
		}
	}
}

// TestReadBinaryBlockBoundaries: streams around the 4096-record block
// size decode, however the reader slices them, to what the per-record
// reference decodes.
func TestReadBinaryBlockBoundaries(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for _, n := range []int{0, 1, 4095, 4096, 4097, 10000} {
		body := referenceWriteBinary(randomStream(r, n))
		checkAgainstReference(t, fmt.Sprintf("n=%d", n), body)
		// The same records under a count-0 header run to EOF.
		binary.LittleEndian.PutUint64(body[10:], 0)
		checkAgainstReference(t, fmt.Sprintf("n=%d,count=0", n), body)
	}
}

// TestReadBinaryErrorParity: every truncation of a stream that spans
// two blocks' worth of small reads, and each malformed header, is
// rejected with the reference decoder's message.
func TestReadBinaryErrorParity(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	small := referenceWriteBinary(randomStream(r, 3))
	for cut := 0; cut <= len(small); cut++ {
		checkAgainstReference(t, fmt.Sprintf("cut=%d", cut), small[:cut])
	}
	big := referenceWriteBinary(randomStream(r, 4097))
	for _, cut := range []int{len(big) - 1, len(big) - 12, len(big) - 13, headerSize + 4096*recordSize + 1, blockRecords * recordSize} {
		checkAgainstReference(t, fmt.Sprintf("big cut=%d", cut), big[:cut])
	}
	checkAgainstReference(t, "bad magic", []byte("NOPE\x01\x00\x00\x00"))
	checkAgainstReference(t, "bad magic, short", []byte("NOPE"))
	checkAgainstReference(t, "version", validHeader(99, 8, 8, 0))
	checkAgainstReference(t, "count over", append(validHeader(1, 8, 8, 1), small[headerSize:]...))
	checkAgainstReference(t, "count bomb", validHeader(1, 8, 8, 1<<40))
}

// TestReadBinaryNoProgress: a reader that never delivers and never
// fails ends the decode instead of spinning it.
func TestReadBinaryNoProgress(t *testing.T) {
	stuck := iotest.ErrReader(nil) // (0, nil) forever
	if _, err := ReadBinary(stuck); !errors.Is(err, io.ErrNoProgress) {
		t.Fatalf("stuck before the header: %v", err)
	}
	body := referenceWriteBinary(randomStream(rand.New(rand.NewSource(21)), 5))
	_, err := ReadBinary(io.MultiReader(bytes.NewReader(body[:len(body)-4]), stuck))
	if !errors.Is(err, io.ErrNoProgress) || !strings.Contains(err.Error(), "reading record") {
		t.Fatalf("stuck inside a record: %v", err)
	}
}

// TestReadBinaryIntoReplacesStream: a reused stream holds exactly the
// new chunk — geometry included — in the backing array it brought, and
// after a failed decode shows neither the old events nor half of the
// new ones.
func TestReadBinaryIntoReplacesStream(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	s := randomStream(r, 500)
	s.Width, s.Height = 640, 480
	backing := &s.Events[0]
	want := randomStream(r, 120)
	if err := ReadBinaryInto(bytes.NewReader(referenceWriteBinary(want)), s); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("reused stream holds %dx%d/%d events, want %dx%d/%d",
			s.Width, s.Height, s.Len(), want.Width, want.Height, want.Len())
	}
	if &s.Events[0] != backing {
		t.Fatal("decode into a stream with room reallocated its events")
	}
	body := referenceWriteBinary(want)
	for _, bad := range [][]byte{body[:len(body)-3], body[:9], []byte("NOPE"), nil} {
		if err := ReadBinaryInto(bytes.NewReader(bad), s); err == nil {
			t.Fatalf("accepted %d-byte truncation", len(bad))
		}
		if s.Len() != 0 || s.Width != 0 || s.Height != 0 {
			t.Fatalf("after a failed decode the stream shows %dx%d/%d events", s.Width, s.Height, s.Len())
		}
	}
	if err := ReadBinaryInto(bytes.NewReader(body), s); err != nil || !reflect.DeepEqual(s, want) {
		t.Fatalf("decode after a failed one: %v", err)
	}
}

// countingWriter hides the concrete writer from WriteBinary's
// *bytes.Buffer case and counts the Write calls.
type countingWriter struct {
	buf    bytes.Buffer
	writes int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestWriteBinaryMatchesReference: the block encoder's bytes are the
// per-record encoder's, whichever kind of writer receives them.
func TestWriteBinaryMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := randomStream(r, r.Intn(300))
		want := referenceWriteBinary(s)

		var empty bytes.Buffer
		if err := WriteBinary(&empty, s); err != nil || !bytes.Equal(empty.Bytes(), want) {
			t.Fatalf("seed %d, empty buffer: err %v, bytes differ from reference", seed, err)
		}
		used := bytes.NewBufferString("prefix")
		if err := WriteBinary(used, s); err != nil || !bytes.Equal(used.Bytes(), append([]byte("prefix"), want...)) {
			t.Fatalf("seed %d, non-empty buffer: err %v, bytes differ from prefix + reference", seed, err)
		}
		var plain countingWriter
		if err := WriteBinary(&plain, s); err != nil || !bytes.Equal(plain.buf.Bytes(), want) || plain.writes != 1 {
			t.Fatalf("seed %d, plain writer: err %v, %d writes", seed, err, plain.writes)
		}
	}
	werr := errors.New("disk full")
	if err := WriteBinary(errWriter{werr}, NewStream(4, 4)); !errors.Is(err, werr) {
		t.Fatalf("write error not passed up: %v", err)
	}
}

type errWriter struct{ err error }

func (w errWriter) Write([]byte) (int, error) { return 0, w.err }

// TestWriteBinaryRejectsWideGeometry: the header stores width and
// height in 16 bits; a geometry past that used to be written modulo
// 65536 (70000x480 read back as 4464x480) with no error.
func TestWriteBinaryRejectsWideGeometry(t *testing.T) {
	for _, g := range [][2]int{{70000, 480}, {480, 70000}, {65536, 1}, {-1, 4}, {4, -1}} {
		var buf bytes.Buffer
		err := WriteBinary(&buf, NewStream(g[0], g[1]))
		if !errors.Is(err, ErrGeometry) {
			t.Fatalf("%dx%d: got %v, want an error wrapping ErrGeometry", g[0], g[1], err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%dx%d: %d bytes written before the rejection", g[0], g[1], buf.Len())
		}
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, NewStream(65535, 65535)); err != nil {
		t.Fatalf("65535x65535 fits the header: %v", err)
	}
	if s, err := ReadBinary(&buf); err != nil || s.Width != 65535 || s.Height != 65535 {
		t.Fatalf("65535x65535 round trip: %v, %+v", err, s)
	}
}

var benchStream *Stream

// BenchmarkBinaryCodec times the EVAR codec on a 20 000-event chunk
// (the size of a serve_http_mixed ingest body), ns/event beside the
// allocation columns: encode into a reused buffer, decode into a fresh
// stream (ReadBinary) and into a reused one (ReadBinaryInto).
func BenchmarkBinaryCodec(b *testing.B) {
	s := randomStream(rand.New(rand.NewSource(23)), 20000)
	body := referenceWriteBinary(s)
	perEvent := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.Len()), "ns/event")
	}
	b.Run("encode", func(b *testing.B) {
		var buf bytes.Buffer
		b.ReportAllocs()
		for b.Loop() {
			buf.Reset()
			if err := WriteBinary(&buf, s); err != nil {
				b.Fatal(err)
			}
		}
		perEvent(b)
	})
	b.Run("decode", func(b *testing.B) {
		rd := bytes.NewReader(body)
		b.ReportAllocs()
		for b.Loop() {
			rd.Reset(body)
			var err error
			if benchStream, err = ReadBinary(rd); err != nil {
				b.Fatal(err)
			}
		}
		perEvent(b)
	})
	b.Run("decode_into", func(b *testing.B) {
		rd := bytes.NewReader(body)
		into := new(Stream)
		b.ReportAllocs()
		for b.Loop() {
			rd.Reset(body)
			if err := ReadBinaryInto(rd, into); err != nil {
				b.Fatal(err)
			}
		}
		perEvent(b)
	})
}
