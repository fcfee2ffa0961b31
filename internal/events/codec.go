package events

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"
)

// Binary codec. The on-disk layout is a small header followed by one
// 13-byte record per event:
//
//	magic   [4]byte  "EVAR"
//	version uint16
//	width   uint16
//	height  uint16
//	count   uint64
//	records: x uint16, y uint16, ts int64, pol int8
//
// All integers are little-endian. The format is append-friendly: count
// may be zero, in which case records run to EOF.
//
// Both directions move whole blocks, never single records. WriteBinary
// sizes one buffer of headerSize + recordSize*len(Events) bytes, fills
// it in a loop and issues one Write. ReadBinary borrows a block of
// blockRecords records from a package pool for the duration of the
// call, fills it with whatever each Read delivers, decodes every whole
// record in it straight into the stream's Events and carries a
// trailing partial record to the front of the block for the next
// Read — so a reader that hands out one byte at a time decodes to the
// same stream as one that hands out the whole body.
//
// Ownership: ReadBinary returns a fresh stream the caller keeps.
// ParseBinary decodes nothing: it checks the framing of a body the
// caller already holds and returns its record bytes as Records, a view
// of that body valid as long as the caller keeps the bytes unchanged.
// internal/serve reads each binary ingest body into a pooled buffer,
// parses it, checks the records in place and converts them a decoded
// segment at a time, before it pools the body buffer again.

const (
	binaryMagic   = "EVAR"
	binaryVersion = 1
	headerSize    = 4 + 2 + 2 + 2 + 8
	recordSize    = 2 + 2 + 8 + 1

	// blockRecords sizes the pooled decode block (52 KiB): large enough
	// that a body arrives in a handful of Reads, small enough to stay in
	// L2 while it is decoded.
	blockRecords = 4096
	// maxPrealloc caps the capacity reserved on the word of the header
	// count, which is untrusted input: a malformed stream can claim 2^64
	// events where the body holds none. Past it the slice grows with
	// what the reader actually delivers.
	maxPrealloc = 1 << 16
	// maxEmptyReads is how many consecutive (0, nil) Reads the decoder
	// tolerates before giving up with io.ErrNoProgress (bufio's limit).
	maxEmptyReads = 100
)

var blockPool = sync.Pool{New: func() any {
	b := make([]byte, blockRecords*recordSize)
	return &b
}}

// WriteBinary serializes the stream to w in the EVAR binary format
// with a single Write. When w is a *bytes.Buffer the encoding is built
// in place in the buffer's spare capacity, so a pre-grown buffer takes
// it without allocating. A Width or Height that does not fit the
// header's 16-bit fields is refused, before any byte is written, with
// an error wrapping ErrGeometry.
func WriteBinary(w io.Writer, s *Stream) error {
	if s.Width < 0 || s.Width > math.MaxUint16 || s.Height < 0 || s.Height > math.MaxUint16 {
		return fmt.Errorf("events: geometry %dx%d does not fit the EVAR header: %w", s.Width, s.Height, ErrGeometry)
	}
	n := headerSize + recordSize*len(s.Events)
	var buf []byte
	if bb, ok := w.(*bytes.Buffer); ok {
		bb.Grow(n)
		buf = bb.AvailableBuffer()[:n]
	} else {
		buf = make([]byte, n)
	}
	copy(buf, binaryMagic)
	binary.LittleEndian.PutUint16(buf[4:], binaryVersion)
	binary.LittleEndian.PutUint16(buf[6:], uint16(s.Width))
	binary.LittleEndian.PutUint16(buf[8:], uint16(s.Height))
	binary.LittleEndian.PutUint64(buf[10:], uint64(len(s.Events)))
	recs := buf[headerSize:]
	for i, e := range s.Events {
		rec := recs[i*recordSize:][:recordSize]
		binary.LittleEndian.PutUint16(rec[0:], e.X)
		binary.LittleEndian.PutUint16(rec[2:], e.Y)
		binary.LittleEndian.PutUint64(rec[4:], uint64(e.TS))
		rec[12] = byte(e.Pol)
	}
	_, err := w.Write(buf)
	return err
}

// ReadBinary parses a stream from the EVAR binary format, read from r
// to EOF, into a fresh Stream.
func ReadBinary(r io.Reader) (*Stream, error) {
	s := new(Stream)
	bp := blockPool.Get().(*[]byte)
	err := decodeBlocks(r, s, *bp)
	blockPool.Put(bp)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Records is the record section of an EVAR body held in memory, as
// ParseBinary returns it: whole records, in wire order.
type Records []byte

// Len returns the number of records.
func (r Records) Len() int { return len(r) / recordSize }

// At decodes record i.
func (r Records) At(i int) Event {
	rec := r[i*recordSize:][:recordSize]
	return Event{
		X:   binary.LittleEndian.Uint16(rec[0:]),
		Y:   binary.LittleEndian.Uint16(rec[2:]),
		Pol: Polarity(int8(rec[12])),
		TS:  int64(binary.LittleEndian.Uint64(rec[4:])),
	}
}

// ParseBinary checks the framing of a whole EVAR body — magic, version,
// whole records, and the header's count when it is not zero — and
// returns the sensor geometry the header declares and the records,
// which alias body. It accepts exactly the bodies ReadBinary accepts,
// with the same error for the rest, and decodes none of the events.
func ParseBinary(body []byte) (width, height int, recs Records, err error) {
	width, height, count, err := parseHeader(body, io.EOF)
	if err != nil {
		return 0, 0, nil, err
	}
	recs = body[headerSize:]
	if len(recs)%recordSize != 0 {
		return 0, 0, nil, fmt.Errorf("events: reading record: %w", io.ErrUnexpectedEOF)
	}
	if count > 0 && uint64(recs.Len()) != count {
		return 0, 0, nil, fmt.Errorf("events: header count %d but read %d records", count, recs.Len())
	}
	return width, height, recs, nil
}

// parseHeader checks the header at the start of b, which holds every
// byte read so far; rerr is what stopped the reading when b is shorter
// than a header.
func parseHeader(b []byte, rerr error) (width, height int, count uint64, err error) {
	if len(b) < len(binaryMagic) {
		return 0, 0, 0, fmt.Errorf("events: reading magic: %w", shortRead(len(b), rerr))
	}
	if string(b[:len(binaryMagic)]) != binaryMagic {
		return 0, 0, 0, fmt.Errorf("events: bad magic %q", b[:len(binaryMagic)])
	}
	if len(b) < headerSize {
		return 0, 0, 0, fmt.Errorf("events: reading header: %w", shortRead(len(b)-len(binaryMagic), rerr))
	}
	if v := binary.LittleEndian.Uint16(b[4:]); v != binaryVersion {
		return 0, 0, 0, fmt.Errorf("events: unsupported version %d", v)
	}
	width = int(binary.LittleEndian.Uint16(b[6:]))
	height = int(binary.LittleEndian.Uint16(b[8:]))
	return width, height, binary.LittleEndian.Uint64(b[10:]), nil
}

// shortRead is the error for an item that needed more than the got
// bytes the reader delivered before failing with err: io.ReadFull's
// rule, under which a clean EOF inside an item is unexpected.
func shortRead(got int, err error) error {
	if got > 0 && err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// decodeBlocks is ReadBinary's body over a borrowed block.
func decodeBlocks(r io.Reader, s *Stream, blk []byte) error {
	var (
		n     int   // bytes of blk filled and not yet decoded
		rerr  error // first error from r; data read alongside it is still decoded
		empty int   // consecutive (0, nil) reads
	)
	read := func() {
		m, err := r.Read(blk[n:])
		n += m
		switch {
		case err != nil:
			rerr = err
		case m > 0:
			empty = 0
		default:
			if empty++; empty >= maxEmptyReads {
				rerr = io.ErrNoProgress
			}
		}
	}
	for n < headerSize && rerr == nil {
		read()
	}
	w, h, count, err := parseHeader(blk[:n], rerr)
	if err != nil {
		return err
	}
	s.Width, s.Height = w, h
	if pre := min(count, maxPrealloc); pre > 0 {
		s.Events = make([]Event, 0, pre)
	}
	for off := headerSize; ; off = 0 {
		recs := Records(blk[off:n])
		k := recs.Len()
		base := len(s.Events)
		s.Events = slices.Grow(s.Events, k)[:base+k]
		evs := s.Events[base:]
		for i := range evs {
			evs[i] = recs.At(i)
		}
		// A trailing partial record moves to the front of the block and
		// is completed by the next read.
		n = copy(blk, blk[off+k*recordSize:n])
		if rerr != nil {
			break
		}
		read()
	}
	if err := shortRead(n, rerr); err != io.EOF {
		return fmt.Errorf("events: reading record: %w", err)
	}
	if count > 0 && uint64(len(s.Events)) != count {
		return fmt.Errorf("events: header count %d but read %d records", count, len(s.Events))
	}
	return nil
}

// WriteText serializes the stream in the whitespace-separated text
// format common to event-camera datasets: a "width height" header line
// followed by one "t x y p" line per event with p in {0,1} (0 = OFF).
func WriteText(w io.Writer, s *Stream) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%d %d\n", s.Width, s.Height); err != nil {
		return err
	}
	for _, e := range s.Events {
		p := 0
		if e.Pol == On {
			p = 1
		}
		if _, err := fmt.Fprintf(bw, "%d %d %d %d\n", e.TS, e.X, e.Y, p); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadText parses the text format written by WriteText.
func ReadText(r io.Reader) (*Stream, error) {
	br := bufio.NewReader(r)
	var w, h int
	if _, err := fmt.Fscanf(br, "%d %d\n", &w, &h); err != nil {
		return nil, fmt.Errorf("events: reading text header: %w", err)
	}
	s := NewStream(w, h)
	for {
		var ts int64
		var x, y, p int
		_, err := fmt.Fscanf(br, "%d %d %d %d\n", &ts, &x, &y, &p)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("events: reading text record %d: %w", s.Len(), err)
		}
		pol := Off
		if p == 1 {
			pol = On
		}
		s.Append(Event{X: uint16(x), Y: uint16(y), TS: ts, Pol: pol})
	}
	return s, nil
}
