package sparse

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func randFrame(r *rand.Rand, h, w int) *Frame {
	b := newFrameBuilder(h, w, r.Int63n(1000), 1000+r.Int63n(1000))
	n := r.Intn(h * w / 2)
	for i := 0; i < n; i++ {
		b.addEvent(int32(r.Intn(h)), int32(r.Intn(w)), r.Intn(2) == 0)
	}
	f := b.build()
	return f
}

func TestFrameCodecRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		f := randFrame(r, 20, 30)
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("round trip %d mismatch", i)
		}
	}
}

// Regression: an empty *built* frame must round-trip identically (the
// builder and decoder must agree on nil channel slices for emptiness).
func TestFrameCodecEmptyBuiltFrame(t *testing.T) {
	b := newFrameBuilder(12, 12, 5, 9)
	f := b.build()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatalf("empty built frame round trip mismatch: %#v vs %#v", got, f)
	}
}

func TestFrameCodecEmpty(t *testing.T) {
	f := NewFrame(5, 5, 10, 20)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 0 || got.H != 5 || got.T0 != 10 || got.T1 != 20 {
		t.Fatalf("empty round trip wrong: %+v", got)
	}
}

func TestFrameCodecRejectsGarbage(t *testing.T) {
	if _, err := ReadFrame(bytes.NewReader([]byte("NOPE........................"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty accepted")
	}
	// Truncated entries.
	f := NewFrame(4, 4, 0, 1)
	f.Set(1, 1, 1, 0)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadFrame(bytes.NewReader(trunc)); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

func TestFramesSequence(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	frames := []*Frame{randFrame(r, 10, 10), randFrame(r, 10, 10), NewFrame(10, 10, 0, 1)}
	var buf bytes.Buffer
	if err := WriteFrames(&buf, frames); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrames(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("frames=%d", len(got))
	}
	for i := range frames {
		if !reflect.DeepEqual(got[i], frames[i]) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
}

// Property: the codec is lossless for arbitrary built frames.
func TestFrameCodecProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		fr := randFrame(r, 8+r.Intn(40), 8+r.Intn(40))
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			return false
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, fr)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
