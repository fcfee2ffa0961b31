// Package events models the output of an event camera (Dynamic Vision
// Sensor) in Address Event Representation (AER) form.
//
// An event camera reports per-pixel log-intensity changes as an
// asynchronous stream of events {x, y, t, p} where (x, y) is the pixel
// location, t the timestamp and p the polarity of the change. This
// package provides the Event and Stream types used throughout Ev-Edge,
// plus codecs, window iteration and density statistics.
//
// Timestamps are microseconds, matching the DAVIS sensor convention.
//
// An Event is 16 bytes in memory: the two coordinates and the polarity
// share the word before the timestamp. Buffered events are what a
// serving session holds per client, so the layout is the per-event
// memory cost of ingest; the EVAR wire record is 13 bytes of the same
// fields. A body held in memory is read record by record (ParseBinary,
// Records) straight into whatever buffer the caller keeps, with no
// intermediate Stream.
package events

import (
	"errors"
	"fmt"
	"sort"
)

// Polarity is the sign of a brightness change: +1 for an increase
// (ON event), -1 for a decrease (OFF event).
type Polarity int8

// Polarity values.
const (
	On  Polarity = 1
	Off Polarity = -1
)

// String returns "ON" or "OFF".
func (p Polarity) String() string {
	if p == On {
		return "ON"
	}
	return "OFF"
}

// Valid reports whether p is one of the two legal polarities.
func (p Polarity) Valid() bool { return p == On || p == Off }

// Event is a single AER event. The field order packs it into 16 bytes.
type Event struct {
	X, Y uint16   // pixel coordinates, origin top-left
	Pol  Polarity // +1 or -1
	TS   int64    // timestamp in microseconds
}

// String formats the event as {x,y,t,p}, the AER tuple used in the paper.
func (e Event) String() string {
	return fmt.Sprintf("{%d,%d,%dus,%s}", e.X, e.Y, e.TS, e.Pol)
}

// Stream is a time-ordered sequence of events from a sensor of a known
// geometry. The zero value is an empty stream of unknown geometry.
type Stream struct {
	Width, Height int
	Events        []Event
}

// NewStream returns an empty stream for a w x h sensor.
func NewStream(w, h int) *Stream {
	return &Stream{Width: w, Height: h}
}

// Len returns the number of events in the stream.
func (s *Stream) Len() int { return len(s.Events) }

// Append adds an event to the end of the stream. It does not enforce
// timestamp order; call Sort when order matters.
func (s *Stream) Append(e Event) { s.Events = append(s.Events, e) }

// TStart returns the timestamp of the first event, or 0 if empty.
func (s *Stream) TStart() int64 {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[0].TS
}

// TEnd returns the timestamp of the last event, or 0 if empty.
func (s *Stream) TEnd() int64 {
	if len(s.Events) == 0 {
		return 0
	}
	return s.Events[len(s.Events)-1].TS
}

// Duration returns TEnd-TStart in microseconds.
func (s *Stream) Duration() int64 { return s.TEnd() - s.TStart() }

// Sort orders events by timestamp (stable, so simultaneous events keep
// their generation order).
func (s *Stream) Sort() {
	sort.SliceStable(s.Events, func(i, j int) bool {
		return s.Events[i].TS < s.Events[j].TS
	})
}

// Sorted reports whether events are in non-decreasing timestamp order.
func (s *Stream) Sorted() bool {
	for i := 1; i < len(s.Events); i++ {
		if s.Events[i].TS < s.Events[i-1].TS {
			return false
		}
	}
	return true
}

// Errors for a stream that does not fit its sensor or is out of order.
// Streams from outside the program are checked event by event where
// they enter it (serve's ingest), which wraps these.
var (
	ErrGeometry   = errors.New("events: event outside sensor geometry")
	ErrOrder      = errors.New("events: timestamps not monotonically non-decreasing")
	ErrPolarity   = errors.New("events: invalid polarity")
	ErrNoGeometry = errors.New("events: stream has no sensor geometry")
)

// Clone returns a deep copy of the stream.
func (s *Stream) Clone() *Stream {
	out := &Stream{Width: s.Width, Height: s.Height}
	out.Events = append([]Event(nil), s.Events...)
	return out
}

// Slice returns a view stream containing events with TS in [t0, t1).
// The stream must be sorted. The returned stream shares backing storage.
func (s *Stream) Slice(t0, t1 int64) *Stream {
	lo := sort.Search(len(s.Events), func(i int) bool { return s.Events[i].TS >= t0 })
	hi := sort.Search(len(s.Events), func(i int) bool { return s.Events[i].TS >= t1 })
	return &Stream{Width: s.Width, Height: s.Height, Events: s.Events[lo:hi]}
}

// Window returns the subslice of events with TS in [t0, t1) without
// allocating a Stream wrapper — the hot-path variant of Slice. The
// stream must be sorted; the slice shares backing storage.
func (s *Stream) Window(t0, t1 int64) []Event {
	lo := sort.Search(len(s.Events), func(i int) bool { return s.Events[i].TS >= t0 })
	hi := sort.Search(len(s.Events), func(i int) bool { return s.Events[i].TS >= t1 })
	return s.Events[lo:hi]
}

// Merge combines two sorted streams of identical geometry into a new
// sorted stream.
func Merge(a, b *Stream) (*Stream, error) {
	if a.Width != b.Width || a.Height != b.Height {
		return nil, fmt.Errorf("events: geometry mismatch %dx%d vs %dx%d",
			a.Width, a.Height, b.Width, b.Height)
	}
	out := NewStream(a.Width, a.Height)
	out.Events = make([]Event, 0, len(a.Events)+len(b.Events))
	i, j := 0, 0
	for i < len(a.Events) && j < len(b.Events) {
		if a.Events[i].TS <= b.Events[j].TS {
			out.Events = append(out.Events, a.Events[i])
			i++
		} else {
			out.Events = append(out.Events, b.Events[j])
			j++
		}
	}
	out.Events = append(out.Events, a.Events[i:]...)
	out.Events = append(out.Events, b.Events[j:]...)
	return out, nil
}

// Window is one fixed-duration chunk of a stream.
type Window struct {
	T0, T1 int64 // [T0, T1)
	Stream *Stream
}

// Windows splits a sorted stream into consecutive windows of the given
// duration (microseconds), covering [TStart, TEnd]. Empty windows are
// included so that temporal-density analysis sees quiet periods.
func (s *Stream) Windows(dur int64) []Window {
	if dur <= 0 || len(s.Events) == 0 {
		return nil
	}
	var out []Window
	for t0 := s.TStart(); t0 <= s.TEnd(); t0 += dur {
		out = append(out, Window{T0: t0, T1: t0 + dur, Stream: s.Slice(t0, t0+dur)})
	}
	return out
}

// CountByPolarity returns the number of ON and OFF events.
func (s *Stream) CountByPolarity() (on, off int) {
	for _, e := range s.Events {
		if e.Pol == On {
			on++
		} else {
			off++
		}
	}
	return on, off
}

// EventRate returns the mean event rate in events per second, or 0 for
// streams shorter than one microsecond.
func (s *Stream) EventRate() float64 {
	d := s.Duration()
	if d <= 0 {
		return 0
	}
	return float64(len(s.Events)) / (float64(d) * 1e-6)
}

// ActivePixels returns the number of distinct pixels that produced at
// least one event.
func (s *Stream) ActivePixels() int {
	if s.Width <= 0 || s.Height <= 0 {
		return 0
	}
	seen := make([]bool, s.Width*s.Height)
	n := 0
	for _, e := range s.Events {
		idx := int(e.Y)*s.Width + int(e.X)
		if !seen[idx] {
			seen[idx] = true
			n++
		}
	}
	return n
}

// SpatialDensity returns the fraction of sensor pixels that are active
// in the stream — the "percentage of events in an event frame" metric
// of the paper's Figures 1 and 3 (as a fraction, not percent).
func (s *Stream) SpatialDensity() float64 {
	if s.Width <= 0 || s.Height <= 0 {
		return 0
	}
	return float64(s.ActivePixels()) / float64(s.Width*s.Height)
}

// DensitySeries returns the per-window event counts for the given
// window duration — the temporal event density of the paper's Fig. 5.
func (s *Stream) DensitySeries(dur int64) []int {
	ws := s.Windows(dur)
	out := make([]int, len(ws))
	for i, w := range ws {
		out[i] = w.Stream.Len()
	}
	return out
}

// Stats summarizes a stream.
type Stats struct {
	N            int     // total events
	On, Off      int     // per polarity
	DurationUS   int64   // time span
	RateEPS      float64 // events per second
	ActivePixels int
	Density      float64 // active pixels / total pixels
}

// Summarize computes Stats for the stream.
func (s *Stream) Summarize() Stats {
	on, off := s.CountByPolarity()
	return Stats{
		N:            s.Len(),
		On:           on,
		Off:          off,
		DurationUS:   s.Duration(),
		RateEPS:      s.EventRate(),
		ActivePixels: s.ActivePixels(),
		Density:      s.SpatialDensity(),
	}
}

// String renders the stats on one line.
func (st Stats) String() string {
	return fmt.Sprintf("n=%d (on=%d off=%d) dur=%.1fms rate=%.0fev/s density=%.2f%%",
		st.N, st.On, st.Off, float64(st.DurationUS)/1000, st.RateEPS, st.Density*100)
}
