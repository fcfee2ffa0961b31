package e2sf

import (
	"fmt"
	"sort"

	"evedge/internal/events"
	"evedge/internal/sparse"
)

// Framer is the framing rule (see the package doc) on one converter.
// It converts every complete unit straight from the segment that holds
// it, all of a segment's complete runs in one kernel call, and copies
// only the open unit's events, at most one unit of them. A Framer is
// NOT safe for concurrent use, and its events must lie inside its
// converter's geometry.
type Framer struct {
	k      *Fused
	count  int   // events per frame; 0 selects time framing
	window int64 // time framing: the window length, µs
	groupK int   // time framing: Eq. 1 bins per frame
	start  int64 // where the open run or window starts
	tail   []events.Event
}

// NewCountFramer returns a framer closing a frame on k every count
// events, the first one starting at seed.
func NewCountFramer(k *Fused, seed int64, count int) (*Framer, error) {
	if count <= 0 {
		return nil, fmt.Errorf("e2sf: countPerFrame must be positive, got %d", count)
	}
	return &Framer{k: k, count: count, start: seed}, nil
}

// NewWindowFramer returns a framer converting each window of windowUS
// µs on k, its Eq. 1 bins grouped groupK to a frame. Windows lie on
// multiples of windowUS, the first being the one seed falls in.
func NewWindowFramer(k *Fused, seed, windowUS int64, groupK int) (*Framer, error) {
	if windowUS <= 0 || groupK <= 0 {
		return nil, fmt.Errorf("e2sf: window %dus and group size %d must be positive", windowUS, groupK)
	}
	return &Framer{k: k, window: windowUS, groupK: groupK, start: WindowStart(seed, windowUS)}, nil
}

// WindowStart is the start of the window of windowUS µs that ts falls
// in: ts floored to a multiple of windowUS, below zero too (Go's %
// truncates toward zero).
func WindowStart(ts, windowUS int64) int64 {
	r := ts % windowUS
	if r < 0 {
		r += windowUS
	}
	return ts - r
}

// Start is where the open run or window starts: the T0 of the next
// frame the framer emits.
func (f *Framer) Start() int64 { return f.start }

// Tail is the events the framer keeps of the open run or window, valid
// until the next Push or Close.
func (f *Framer) Tail() []events.Event { return f.tail }

// Push appends to dst the frames of every unit evs completes and keeps
// the events of the unit it leaves open. evs must be sorted and lie at
// or after every event pushed before.
func (f *Framer) Push(dst []*sparse.Frame, evs []events.Event) []*sparse.Frame {
	dst, rest := f.frame(dst, evs)
	if len(rest) > 0 && f.count > 0 && cap(f.tail) == 0 {
		f.tail = make([]events.Event, 0, f.count) // a run never outgrows count events
	}
	f.tail = append(f.tail, rest...)
	return dst
}

// Close ends the stream at t, past every event: it frames evs as the
// last segment, then the partial count run, ending at t, or every
// window that ends at or before t, and drops the rest. The open unit's
// events in evs are framed where they lie, with no copy, unless the
// framer keeps earlier events of that unit.
func (f *Framer) Close(dst []*sparse.Frame, evs []events.Event, t int64) []*sparse.Frame {
	dst, rest := f.frame(dst, evs)
	if len(f.tail) > 0 {
		f.tail = append(f.tail, rest...)
		rest = f.tail
	}
	if f.count > 0 && len(rest) > 0 {
		dst = f.runs(dst, rest, t)
	}
	for f.count == 0 && f.start+f.window <= t {
		dst = f.nextWindow(dst, rest)
	}
	f.tail = f.tail[:0]
	return dst
}

// frame appends the frames of every unit evs completes and returns the
// events of the open unit that the tail does not hold.
func (f *Framer) frame(dst []*sparse.Frame, evs []events.Event) ([]*sparse.Frame, []events.Event) {
	if f.count > 0 {
		if n := len(f.tail); n > 0 {
			k := min(f.count-n, len(evs))
			f.tail, evs = append(f.tail, evs[:k]...), evs[k:]
			if len(f.tail) < f.count {
				return dst, nil
			}
			dst = f.runs(dst, f.tail, f.tail[f.count-1].TS+1)
			f.tail = f.tail[:0]
		}
		m := len(evs) / f.count * f.count
		if m > 0 {
			dst = f.runs(dst, evs[:m], evs[m-1].TS+1)
		}
		return dst, evs[m:]
	}
	for len(evs) > 0 && f.start+f.window <= evs[len(evs)-1].TS {
		win := evs
		if len(f.tail) > 0 {
			// The tail holds the window's earlier events; evs completes it.
			k := sort.Search(len(evs), func(i int) bool { return evs[i].TS >= f.start+f.window })
			f.tail, evs = append(f.tail, evs[:k]...), evs[k:]
			win = f.tail
		}
		dst = f.nextWindow(dst, win)
		f.tail = f.tail[:0]
	}
	i := sort.Search(len(evs), func(i int) bool { return evs[i].TS >= f.start })
	return dst, evs[i:]
}

// runs converts evs over [evs[0].TS, t1) into a frame every count
// events, the last one partial when evs ends inside a run, and chains
// the first frame to the open run's start: when the previous run ended
// on a timestamp this one starts with, that start lies past evs[0].
func (f *Framer) runs(dst []*sparse.Frame, evs []events.Event, t1 int64) []*sparse.Frame {
	n := len(dst)
	view := events.Stream{Width: f.k.cfg.Width, Height: f.k.cfg.Height, Events: evs}
	// It cannot fail: the view has the converter's geometry, holds an
	// event in the interval and count is positive.
	dst, _, _ = f.k.ConvertByCountAppend(dst, &view, evs[0].TS, t1, f.count)
	dst[n].T0 = f.start
	f.start = dst[len(dst)-1].T1
	return dst
}

// nextWindow converts the open window from the events of evs in it and
// opens the next one.
func (f *Framer) nextWindow(dst []*sparse.Frame, evs []events.Event) []*sparse.Frame {
	view := events.Stream{Width: f.k.cfg.Width, Height: f.k.cfg.Height, Events: evs}
	// It cannot fail: the view has the converter's geometry, the window
	// is not empty and groupK is positive.
	dst, _, _ = f.k.ConvertGroupedAppend(dst, &view, f.start, f.start+f.window, f.groupK)
	f.start += f.window
	return dst
}
