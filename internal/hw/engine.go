package hw

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Span is one executed interval on a device's queue.
type Span struct {
	Device string
	Tag    string
	Start  float64 // microseconds
	End    float64
}

// devQueue is one device's FIFO accounting, guarded by its own lock so
// concurrent submitters targeting different devices never contend.
type devQueue struct {
	mu        sync.Mutex
	busyUntil float64
	busyTotal float64
	timeline  []Span
}

// Engine is a discrete-event executor with one FIFO queue per device.
// Work is submitted with an earliest-start constraint (data
// dependencies) and begins at max(earliest, queue-free time) — exactly
// the End_T recurrence of the paper's Eq. 3.
//
// Concurrency contract: Submit, ReserveUM and every query method
// (BusyUntil, Makespan, BusyTime, ...) are safe for concurrent use; the
// engine locks per device, so submitters on different devices do not
// serialize against each other. Reset is the one exception: it
// requires exclusive access. A Reset racing an in-flight submission is
// the silent-corruption bug class the old caller-side engine mutex
// hid, so it now fails loudly twice over: Reset panics when it
// observes in-flight submissions, and the resetTick tripwire below is
// read/written without synchronization so the race detector reports
// the overlap even when the panic window is missed.
type Engine struct {
	p      *Platform
	devs   []devQueue
	record bool

	// umMu serializes unified-memory transfers (ReserveUM), the shared
	// bus every cross-device edge rides.
	umMu   sync.Mutex
	umBusy float64

	// inFlight counts submissions currently inside Submit/ReserveUM;
	// Reset panics unless it is zero.
	inFlight atomic.Int64
	// resetTick is deliberately accessed without synchronization: Reset
	// writes it, Submit reads it, so `go test -race` flags a concurrent
	// Reset/Submit pair as a data race at the exact misuse site.
	resetTick int64
}

// NewEngine returns an idle engine over the platform. If record is
// true every span is kept for timeline inspection (power traces,
// Gantt-style dumps).
func NewEngine(p *Platform, record bool) *Engine {
	return &Engine{
		p:      p,
		devs:   make([]devQueue, len(p.Devices)),
		record: record,
	}
}

// Platform returns the engine's platform.
func (e *Engine) Platform() *Platform { return e.p }

// Recording reports whether the engine keeps per-span timelines. Hot
// paths use it to skip building span tags nobody will read.
func (e *Engine) Recording() bool { return e.record }

// Submit schedules durUS of work on dev no earlier than earliestUS,
// after everything already queued on that device. It returns the
// span's start and end times. Safe for concurrent use; only
// submissions to the same device serialize.
func (e *Engine) Submit(dev *Device, earliestUS, durUS float64, tag string) (start, end float64) {
	if durUS < 0 {
		panic(fmt.Sprintf("hw: negative duration %f for %s", durUS, tag))
	}
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	if e.resetTick < 0 { // race-detector tripwire vs Reset; never true
		panic("hw: corrupted reset tick")
	}
	q := &e.devs[dev.ID]
	q.mu.Lock()
	defer q.mu.Unlock()
	start = earliestUS
	if q.busyUntil > start {
		start = q.busyUntil
	}
	end = start + durUS
	q.busyUntil = end
	q.busyTotal += durUS
	if e.record {
		q.timeline = append(q.timeline, Span{Device: dev.Name, Tag: tag, Start: start, End: end})
	}
	return start, end
}

// ReserveUM claims one unified-memory transfer of durUS starting no
// earlier than earliestUS, after every transfer already reserved — the
// shared-bus serialization every cross-device layer edge pays. It
// returns the transfer's start and end times.
func (e *Engine) ReserveUM(earliestUS, durUS float64) (start, end float64) {
	e.inFlight.Add(1)
	defer e.inFlight.Add(-1)
	e.umMu.Lock()
	defer e.umMu.Unlock()
	start = math.Max(earliestUS, e.umBusy)
	e.umBusy = start + durUS
	return start, e.umBusy
}

// BusyUntil returns when the device's queue drains.
func (e *Engine) BusyUntil(dev *Device) float64 {
	q := &e.devs[dev.ID]
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.busyUntil
}

// Makespan returns the time the last queue drains.
func (e *Engine) Makespan() float64 {
	var m float64
	for i := range e.devs {
		q := &e.devs[i]
		q.mu.Lock()
		if q.busyUntil > m {
			m = q.busyUntil
		}
		q.mu.Unlock()
	}
	return m
}

// BusyTime returns the total busy microseconds of a device.
func (e *Engine) BusyTime(dev *Device) float64 {
	q := &e.devs[dev.ID]
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.busyTotal
}

// EnergyJoules integrates device power over the horizon: active power
// while busy, idle power otherwise. If horizonUS is zero the makespan
// is used. This mirrors a Tegrastats busy-time integral.
func (e *Engine) EnergyJoules(horizonUS float64) float64 {
	if horizonUS <= 0 {
		horizonUS = e.Makespan()
	}
	var j float64
	for _, d := range e.p.Devices {
		busy := e.BusyTime(d)
		if busy > horizonUS {
			busy = horizonUS
		}
		j += d.ActiveWatts*busy*1e-6 + d.IdleWatts*(horizonUS-busy)*1e-6
	}
	return j
}

// Timeline returns the recorded spans sorted by start time.
func (e *Engine) Timeline() []Span {
	var out []Span
	for i := range e.devs {
		q := &e.devs[i]
		q.mu.Lock()
		out = append(out, q.timeline...)
		q.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Device < out[j].Device
	})
	return out
}

// Reset clears all queues and accounting. It requires exclusive access
// (see the Engine concurrency contract) and panics when it observes a
// submission in flight; the unsynchronized resetTick write below makes
// the overlap race-detector-visible even when the panic misses it.
func (e *Engine) Reset() {
	if n := e.inFlight.Load(); n != 0 {
		panic(fmt.Sprintf("hw: Reset with %d submissions in flight (Engine.Reset requires exclusive access)", n))
	}
	e.resetTick++
	for i := range e.devs {
		q := &e.devs[i]
		q.mu.Lock()
		q.busyUntil = 0
		q.busyTotal = 0
		q.timeline = q.timeline[:0]
		q.mu.Unlock()
	}
	e.umMu.Lock()
	e.umBusy = 0
	e.umMu.Unlock()
}
