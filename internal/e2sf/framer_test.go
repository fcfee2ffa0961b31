package e2sf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"evedge/internal/events"
	"evedge/internal/sparse"
)

// framerStream is a sorted 8x8 stream of n events from -250 µs on,
// 0 to 3 µs apart, so timestamps repeat. For count framing the first
// event of every run takes its predecessor's timestamp; for time
// framing every window edge and the microsecond before it hold events.
func framerStream(rng *rand.Rand, n, count int, window int64) *events.Stream {
	s := events.NewStream(8, 8)
	ts := int64(-250)
	for range n {
		ts += rng.Int63n(4)
		pol := events.On
		if rng.Intn(2) == 0 {
			pol = events.Off
		}
		s.Append(events.Event{X: uint16(rng.Intn(8)), Y: uint16(rng.Intn(8)), TS: ts, Pol: pol})
	}
	if count > 0 {
		for i := count; i < n; i += count {
			s.Events[i].TS = s.Events[i-1].TS
		}
		return s
	}
	for e := WindowStart(s.TStart(), window) + window; e <= s.TEnd(); e += window {
		for _, t := range []int64{e - 1, e} {
			s.Append(events.Event{X: uint16(rng.Intn(8)), Y: uint16(rng.Intn(8)), TS: t, Pol: events.On})
		}
	}
	s.Sort()
	return s
}

// referenceFrames is what a framer seeded at seed and closed at t must
// frame of s, from the map-per-bin reference: count framing's runs from
// seed with the partial run ending at t, or every window from seed's
// on that ends at or before t.
func referenceFrames(cfg Config, s *events.Stream, seed, t int64, count int, window int64, groupK int) []*sparse.Frame {
	if count > 0 {
		return referenceByCount(cfg, s, seed, t, count)
	}
	var out []*sparse.Frame
	for ws := WindowStart(seed, window); ws+window <= t; ws += window {
		out = append(out, referenceConvert(cfg, s, ws, ws+window, groupK)...)
	}
	return out
}

// FuzzFramer: where a stream is cut into segments never changes what
// the framer frames. The stream is framed whole, by one Push and a
// Close, against the map-per-bin reference; then cut as the fuzzer
// says — each byte of cuts is the next segment's length in events, 0
// a cut on the next unit boundary (the next run's end, or the first
// event at or past the next window edge), the bytes repeating until
// the stream is used up — and framed segment by segment, the last
// segment handed to Close or pushed before it, and every frame must
// equal the whole stream's, bounds and entries. The whole stream handed
// to Close alone, as the offline conversion frames it, must too. After
// every Push the framer keeps less than one unit: fewer than count
// events, or only events of the open window. param picks the framing
// and its sizes, extra how far past the last event the stream is
// closed.
func FuzzFramer(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, param := range []uint8{3, 6, 200, 201} { // count framing, count framing, time framing, time framing
		f.Add(param, uint8(0), false, []byte{1})       // 1-event cuts
		f.Add(param, uint8(0), true, []byte{0})        // on every unit boundary
		f.Add(param, uint8(1), false, []byte{0, 2, 0}) // on and inside unit boundaries
		f.Add(param, uint8(60), true, []byte{5, 0, 1, 37})
		for range 3 { // seeded random cuts
			cuts := make([]byte, 1+rng.Intn(12))
			rng.Read(cuts)
			f.Add(param, uint8(rng.Intn(256)), rng.Intn(2) == 0, cuts)
		}
	}
	f.Fuzz(func(t *testing.T, param, extra uint8, lastInClose bool, cuts []byte) {
		if len(cuts) == 0 {
			return
		}
		count, window, groupK := 0, int64(0), 0
		cfg := Config{Width: 8, Height: 8, NumBins: 1}
		if param < 128 {
			count = 1 + int(param%16)
		} else {
			window, cfg.NumBins, groupK = 20+int64(param%41), 1+int(param%7), 1+int(param/8%4)
		}
		s := framerStream(rand.New(rand.NewSource(int64(param))), 400, count, window)
		evs := s.Events
		seed := s.TStart() - int64(param%5)
		end := s.TEnd() + 1 + int64(extra)
		newFramer := func() *Framer {
			k := mustFused(t, cfg.Width, cfg.Height, cfg.NumBins)
			if count > 0 {
				fr, err := NewCountFramer(k, seed, count)
				if err != nil {
					t.Fatal(err)
				}
				return fr
			}
			fr, err := NewWindowFramer(k, seed, window, groupK)
			if err != nil {
				t.Fatal(err)
			}
			return fr
		}
		ctx := fmt.Sprintf("count %d, window %d, %d bins, k %d, closed at %d", count, window, cfg.NumBins, groupK, end)

		whole := newFramer()
		want := whole.Close(whole.Push(nil, evs), nil, end)
		ref := referenceFrames(cfg, s, seed, end, count, window, groupK)
		if len(want) != len(ref) || len(want) == 0 {
			t.Fatalf("%s: whole stream framed %d frames, reference %d", ctx, len(want), len(ref))
		}
		// The offline path: the whole stream as Close's last segment.
		offline := newFramer().Close(nil, evs, end)
		if len(offline) != len(ref) {
			t.Fatalf("%s: whole stream closed framed %d frames, reference %d", ctx, len(offline), len(ref))
		}
		for i := range ref {
			framesEqual(t, fmt.Sprintf("%s: whole stream, frame %d", ctx, i), want[i], ref[i])
			framesEqual(t, fmt.Sprintf("%s: whole stream closed, frame %d", ctx, i), offline[i], ref[i])
		}

		fr := newFramer()
		var got []*sparse.Frame
		for i, at := 0, 0; at < len(evs); i++ {
			n := int(cuts[i%len(cuts)])
			if n == 0 {
				n = nextBoundary(evs, at, fr, count, window) - at
			}
			seg := evs[at:min(at+n, len(evs))]
			at += len(seg)
			if at == len(evs) && lastInClose {
				got = fr.Close(got, seg, end)
				break
			}
			got = fr.Push(got, seg)
			if held := fr.Tail(); count > 0 && len(held) >= count ||
				count == 0 && len(held) > 0 && (held[0].TS < fr.Start() || held[len(held)-1].TS >= fr.Start()+window) {
				t.Fatalf("%s: after %d events the framer keeps %d, from %d µs, open at %d µs", ctx, at, len(held), held[0].TS, fr.Start())
			}
			if at == len(evs) {
				got = fr.Close(got, nil, end)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s, cuts %v: %d frames, whole stream %d", ctx, cuts, len(got), len(want))
		}
		for i := range want {
			framesEqual(t, fmt.Sprintf("%s, cuts %v: frame %d", ctx, cuts, i), got[i], want[i])
		}
	})
}

// nextBoundary is the index in evs, past at, where the framer's open
// unit ends: the next multiple of count events, or the first event at
// or past the open window's end; len(evs) when there is none.
func nextBoundary(evs []events.Event, at int, fr *Framer, count int, window int64) int {
	if count > 0 {
		return min((at/count+1)*count, len(evs))
	}
	edge := fr.Start() + window
	i, _ := slices.BinarySearchFunc(evs[at:], edge, func(e events.Event, t int64) int {
		return int(max(min(e.TS-t, 1), -1))
	})
	return max(at+i, at+1)
}
