package pipeline

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"evedge/internal/dsfa"
	"evedge/internal/hw"
	"evedge/internal/mem"
	"evedge/internal/nn"
	"evedge/internal/perf"
	"evedge/internal/sparse"
	"evedge/internal/taskgraph"
)

// ExecPlan is the resolved per-layer execution decision for one
// network: device and precision per layer, whether the sparse kernel
// path is enabled, and any framing overhead charged to the first
// layer. Run builds one per streaming run; the serving layer builds
// one per session from the shared mapper assignment.
type ExecPlan struct {
	Device []int
	Prec   []nn.Precision
	Sparse bool
	// FramingOps charges the baseline's dense event-frame construction
	// (element stores per frame) to the first layer of every invocation.
	FramingOps int64
}

// MapsLike reports whether p maps every layer to the device and
// precision row task of asg gives it (framing overhead and the sparse
// flag are execution state, not mapping decisions, and are ignored).
// The control plane uses it to leave a session whose row did not change
// on its installed plan: no plan built, no remap counted.
func (p *ExecPlan) MapsLike(asg *taskgraph.Assignment, task int) bool {
	return asg != nil && task >= 0 && task < len(asg.Device) && task < len(asg.Prec) &&
		slices.Equal(p.Device, asg.Device[task]) && slices.Equal(p.Prec, asg.Prec[task])
}

// DefaultPlan maps every layer to the GPU at FP16 — the all-GPU
// deployment every optimization level starts from.
func DefaultPlan(net *nn.Network, p *hw.Platform, sparse bool) (*ExecPlan, error) {
	gpu := p.GPUDevice()
	if gpu == nil {
		return nil, fmt.Errorf("pipeline: platform has no GPU")
	}
	plan := &ExecPlan{
		Device: make([]int, len(net.Layers)),
		Prec:   make([]nn.Precision, len(net.Layers)),
		Sparse: sparse,
	}
	for i := range net.Layers {
		plan.Device[i] = gpu.ID
		plan.Prec[i] = nn.FP16
	}
	return plan, nil
}

// PlanSlot is the swappable execution-plan holder shared between the
// executor and the control plane. The executor reads the current plan
// at each invocation boundary (Load); a rebalance or an online remap
// installs a new plan between invocations (Swap) without touching
// frames already queued — they simply execute under the new mapping
// when their invocation forms. FramingOps, which the ingest path
// discovers from the first frame's geometry, survives swaps.
type PlanSlot struct {
	mu    sync.Mutex
	plan  *ExecPlan
	swaps uint64
}

// NewPlanSlot wraps the initial plan.
func NewPlanSlot(p *ExecPlan) *PlanSlot { return &PlanSlot{plan: p} }

// Load returns the current plan. Callers must treat it as immutable;
// a swap replaces the pointer rather than mutating the plan in place,
// so an in-flight invocation keeps pricing under the plan it started
// with.
func (s *PlanSlot) Load() *ExecPlan {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan
}

// Swap installs a new plan, carrying the framing overhead over from
// the old one, and counts the remap.
func (s *PlanSlot) Swap(p *ExecPlan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	p.FramingOps = s.plan.FramingOps
	s.plan = p
	s.swaps++
}

// Swaps returns how many plans have been installed after the first.
func (s *PlanSlot) Swaps() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.swaps
}

// SetFramingOps records the per-invocation framing overhead once the
// ingest path learns the frame geometry.
func (s *PlanSlot) SetFramingOps(ops int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plan.FramingOps = ops
}

// FramingOps reads the current framing overhead.
func (s *PlanSlot) FramingOps() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.plan.FramingOps
}

// PlanFromAssignment extracts task t's slice of a multi-task mapper
// assignment as a single-network execution plan.
func PlanFromAssignment(asg *taskgraph.Assignment, task int, sparse bool) (*ExecPlan, error) {
	if asg == nil || task < 0 || task >= len(asg.Device) {
		return nil, fmt.Errorf("pipeline: assignment has no task %d", task)
	}
	return &ExecPlan{
		Device: append([]int(nil), asg.Device[task]...),
		Prec:   append([]nn.Precision(nil), asg.Prec[task]...),
		Sparse: sparse,
	}, nil
}

// RawRef attributes a batch member back to the raw frames it
// represents: ReadyUS is when those frames finished forming, N how
// many of them there are.
type RawRef struct {
	ReadyUS float64
	N       int
}

// Invocation is one batched inference input flowing through the
// executor: the density of each model input, the raw frames behind
// them, when the newest one finished forming, and the per-raw-frame
// latency attribution.
type Invocation struct {
	// Frames holds the raw frames the invocation carries: every member
	// of its buckets, then the frames the aggregator shed since its
	// previous dispatch. The stepper only reads them; whoever converted
	// them releases them once the invocation is served. A DSFA bucket's
	// input is the sum of its members; nothing that prices an invocation
	// reads the pixels, so the sum is never made here.
	Frames []*sparse.Frame
	// Inputs is the spatial density of each model input, in input
	// order: its length is the batch size.
	Inputs  []float64
	ReadyUS float64
	Raw     int
	PerRaw  []RawRef
}

// NewInvocationPool returns a free list for Invocations; recycled
// invocations keep their Frames/Inputs/PerRaw capacity but start empty.
func NewInvocationPool() *mem.Pool[Invocation] {
	return mem.NewPool(func(inv *Invocation) {
		for i := range inv.Frames {
			inv.Frames[i] = nil
		}
		inv.Frames = inv.Frames[:0]
		inv.Inputs = inv.Inputs[:0]
		inv.ReadyUS = 0
		inv.Raw = 0
		inv.PerRaw = inv.PerRaw[:0]
	})
}

// fillInvFromBatch loads a DSFA dispatch batch into an (empty)
// invocation: one input per bucket, every bucket's members and the
// batch's shed frames.
func fillInvFromBatch(inv *Invocation, b *dsfa.Batch) *Invocation {
	for _, m := range b.Merged {
		inv.Frames = append(inv.Frames, m.Frames...)
		inv.Inputs = append(inv.Inputs, m.Density)
		inv.Raw += m.NumMerged
		inv.PerRaw = append(inv.PerRaw, RawRef{float64(m.T1), m.NumMerged})
		if float64(m.T1) > inv.ReadyUS {
			inv.ReadyUS = float64(m.T1)
		}
	}
	inv.Frames = append(inv.Frames, b.Shed...)
	return inv
}

// fillSingleFrameInv loads one raw frame into an (empty) invocation
// (the below-LevelDSFA path: one inference per frame).
func fillSingleFrameInv(inv *Invocation, f *sparse.Frame) *Invocation {
	inv.Frames = append(inv.Frames, f)
	inv.Inputs = append(inv.Inputs, f.Density())
	inv.ReadyUS = float64(f.T1)
	inv.Raw = 1
	inv.PerRaw = append(inv.PerRaw, RawRef{float64(f.T1), 1})
	return inv
}

// Stepper is the one execution step of E2SF -> DSFA -> engine that
// both of its callers run: RunFrames against a synchronous clock, and a
// served session against the shared engine. It owns three things.
//
//   - The hold: every pushed frame waits here, in push order, until the
//     clock reaches its T1 — the moment it formed — whatever chunk or
//     slice carried it. Below LevelDSFA each frame that leaves becomes
//     one invocation; at LevelDSFA and above it enters the Dynamic
//     Sparse Frame Aggregator.
//   - The clock: the hardware-available time the step decides at. It
//     moves only when an invocation completes (Done) or, while idle,
//     to the next held frame's T1.
//   - One invocation in flight: Release hands out nothing until the
//     previous invocation is Done, so frames that form while the
//     hardware is busy pile up and merge (the paper's Sec. 4.2).
//
// Push, Next and Flush also work alone, without the clock, for callers
// that time the step themselves.
type Stepper struct {
	level Level
	agg   *dsfa.Aggregator // nil below LevelDSFA
	// hold is the FIFO of frames not yet released, from head on; left
	// is where the last Release started taking. Frames that left stay
	// in the slice until the next Push rewinds or compacts it, so Left
	// can name them; a stepper that keeps up never re-allocates.
	hold  []*sparse.Frame
	head  int
	left  int
	clock float64
	busy  bool
	// invPool supplies the invocations: the one SetPools shared, to
	// which the serving layer and the offline executor return them once
	// served, else one of the stepper's own, made at first use (invs).
	invPool *mem.Pool[Invocation]
}

// NewStepper builds a stepper for the level. The DSFA config is only
// consulted at LevelDSFA and above; pass the zero value otherwise.
func NewStepper(level Level, cfg dsfa.Config) (*Stepper, error) {
	s := &Stepper{level: level}
	if level >= LevelDSFA {
		agg, err := dsfa.New(cfg)
		if err != nil {
			return nil, err
		}
		s.agg = agg
	}
	return s, nil
}

// SetPools makes the stepper take its invocations from invs and (at
// LevelDSFA and above) borrow the aggregator's grids from frames — see
// dsfa.Aggregator.SetPool. frames only lends grids: the stepper
// releases no raw frame. Every frame pushed comes back out in exactly
// one invocation's Frames, a shed one included, for its owner to
// release once the invocation is served. Call before the first Push.
func (s *Stepper) SetPools(invs *mem.Pool[Invocation], frames *mem.FramePool) {
	s.invPool = invs
	if s.agg != nil && frames != nil {
		s.agg.SetPool(frames)
	}
}

// invs is the pool Release and Flush take invocations from.
func (s *Stepper) invs() *mem.Pool[Invocation] {
	if s.invPool == nil {
		s.invPool = NewInvocationPool()
	}
	return s.invPool
}

// Push holds a raw sparse frame produced by E2SF until the clock
// reaches its T1. Frames are pushed in T1 order.
func (s *Stepper) Push(f *sparse.Frame) {
	if s.head == len(s.hold) {
		clear(s.hold)
		s.hold, s.head, s.left = s.hold[:0], 0, 0
	} else if s.head > 0 && len(s.hold) == cap(s.hold) {
		n := copy(s.hold, s.hold[s.head:])
		clear(s.hold[n:])
		s.hold, s.head, s.left = s.hold[:n], 0, 0
	}
	s.hold = append(s.hold, f)
}

// formed reports whether the oldest held frame has formed by nowUS.
func (s *Stepper) formed(nowUS float64) bool {
	return s.head < len(s.hold) && float64(s.hold[s.head].T1) <= nowUS
}

// take removes and returns the oldest held frame; callers have checked
// that there is one.
func (s *Stepper) take() *sparse.Frame {
	f := s.hold[s.head]
	s.head++
	return f
}

// Next returns the invocation ready when the hardware is available at
// nowUS, or nil when nothing is. Below LevelDSFA that is the oldest
// held frame, if it formed by nowUS. At LevelDSFA and above every held
// frame formed by nowUS enters the aggregator first; then full or
// stale buckets drain and open buckets keep filling — the paper's
// hardware-became-available dispatch.
func (s *Stepper) Next(nowUS float64) *Invocation {
	if s.agg == nil {
		if !s.formed(nowUS) {
			return nil
		}
		return fillSingleFrameInv(s.invs().Get(), s.take())
	}
	for s.formed(nowUS) {
		s.agg.Push(s.take())
	}
	b := s.agg.DispatchReady(int64(nowUS))
	if b == nil {
		return nil
	}
	return fillInvFromBatch(s.invs().Get(), b)
}

// Flush drains what is buffered whatever the time — below LevelDSFA
// the oldest held frame, at LevelDSFA and above every held frame and
// every bucket, open ones included, as one invocation — or returns nil
// if nothing is pending. Use at end of stream or session close.
func (s *Stepper) Flush() *Invocation {
	if s.agg == nil {
		if s.head == len(s.hold) {
			return nil
		}
		return fillSingleFrameInv(s.invs().Get(), s.take())
	}
	for s.head < len(s.hold) {
		s.agg.Push(s.take())
	}
	b := s.agg.Dispatch()
	if b == nil {
		return nil
	}
	return fillInvFromBatch(s.invs().Get(), b)
}

// Release returns the next invocation to execute, or nil while one is
// in flight or nothing is ready. It tries Next at the clock; when
// nothing is ready and frames are held, the hardware idles until the
// next held frame forms, so the clock moves to that T1 and Next is
// tried again. At eos (end of stream) with nothing held it Flushes.
// The invocation starts no earlier than the clock that released it:
// its ReadyUS is raised to the clock. Report its completion with Done.
func (s *Stepper) Release(eos bool) *Invocation {
	s.left = s.head
	if s.busy {
		return nil
	}
	inv := s.Next(s.clock)
	for inv == nil && s.head < len(s.hold) {
		s.clock = math.Max(s.clock, float64(s.hold[s.head].T1))
		inv = s.Next(s.clock)
	}
	if inv == nil && eos {
		inv = s.Flush()
	}
	if inv == nil {
		return nil
	}
	inv.ReadyUS = math.Max(inv.ReadyUS, s.clock)
	s.busy = true
	return inv
}

// Done reports that the invocation Release handed out completed at
// endUS: the hardware is available again from then on.
func (s *Stepper) Done(endUS float64) {
	s.busy = false
	s.clock = math.Max(s.clock, endUS)
}

// Left returns the frames the last Release took out of the hold,
// oldest first. Each left at the later of its T1 and the clock the
// Release started at. The slice is valid until the next Push or Shed.
func (s *Stepper) Left() []*sparse.Frame { return s.hold[s.left:s.head] }

// Held returns how many pushed frames the hold still keeps: not yet
// released, nor in the aggregator.
func (s *Stepper) Held() int { return len(s.hold) - s.head }

// Shed removes and returns the oldest held frame, which then belongs
// to the caller again, or nil when the hold is empty: a bounded
// caller's drop-oldest.
func (s *Stepper) Shed() *sparse.Frame {
	if s.head == len(s.hold) {
		return nil
	}
	f := s.take()
	s.left = s.head
	return f
}

// Clock returns the step's hardware-available time.
func (s *Stepper) Clock() float64 { return s.clock }

// InFlight reports whether an invocation Release handed out is not
// Done yet.
func (s *Stepper) InFlight() bool { return s.busy }

// Pending returns raw frames pushed but not yet released: held ones
// plus, at LevelDSFA and above, those in the aggregator.
func (s *Stepper) Pending() int {
	n := s.Held()
	if s.agg != nil {
		n += s.agg.PendingFrames()
	}
	return n
}

// Queued returns merged buckets awaiting dispatch (0 below LevelDSFA).
func (s *Stepper) Queued() int {
	if s.agg == nil {
		return 0
	}
	return s.agg.QueueLen()
}

// Retune swaps the aggregator tuning mid-stream — the control plane's
// hook. The swap applies at bucket boundaries and conserves frame
// accounting (see dsfa.Aggregator.Retune). Below LevelDSFA there is no
// aggregator to tune and the call is a validated no-op.
func (s *Stepper) Retune(cfg dsfa.Config) error {
	if s.agg == nil {
		return cfg.Validate()
	}
	return s.agg.Retune(cfg)
}

// AggConfig returns the live aggregator tuning; ok is false below
// LevelDSFA.
func (s *Stepper) AggConfig() (dsfa.Config, bool) {
	if s.agg == nil {
		return dsfa.Config{}, false
	}
	return s.agg.Config(), true
}

// Stats returns the aggregator counters (zero below LevelDSFA).
func (s *Stepper) Stats() dsfa.Stats {
	if s.agg == nil {
		return dsfa.Stats{}
	}
	return s.agg.Stats()
}

// batchDensity is the mean spatial density across the batch's inputs,
// summed in input order.
func batchDensity(inv *Invocation) float64 {
	if len(inv.Inputs) == 0 {
		return 0
	}
	var d float64
	for _, in := range inv.Inputs {
		d += in
	}
	return d / float64(len(inv.Inputs))
}

// layerDur prices one layer of an invocation under the plan: the
// dense kernel, or the faster of dense and sparse when the plan
// enables the sparse path.
func layerDur(model *perf.Model, net *nn.Network, p *ExecPlan, i int, dev *hw.Device, batch int, density float64) float64 {
	l := net.Layers[i]
	inDen := density
	if len(net.Preds[i]) > 0 {
		inDen = 0
		for _, pr := range net.Preds[i] {
			if d := net.Layers[pr].ActDensity; d > inDen {
				inDen = d
			}
		}
	}
	opts := perf.ExecOpts{Batch: batch, InputDensity: inDen}
	if len(net.Preds[i]) == 0 {
		opts.FramingOverheadOps = p.FramingOps * int64(batch)
	}
	dur, err := model.LayerTimeUS(l, dev, p.Prec[i], opts)
	if err != nil {
		// Planned mappings are validated; treat as infinite cost.
		dur = math.Inf(1)
	}
	if p.Sparse {
		sOpts := opts
		sOpts.Sparse = true
		if sp, err := model.LayerTimeUS(l, dev, p.Prec[i], sOpts); err == nil && sp < dur {
			dur = sp
		}
	}
	return dur
}

// idleEngines recycles the scratch engines InvocationCost prices on.
var idleEngines sync.Pool

// InvocationCost prices one batched inference by list-scheduling the
// single-task layer graph on otherwise-idle devices (Eq. 3 semantics,
// same as the Network Mapper's estimator): it is ScheduleOnEngine on an
// idle scratch engine with the invocation ready at time zero, so
// per-layer times, transfer nodes on device changes and parallel
// branches overlapping across devices are priced by the one walk the
// live engine uses. It returns the invocation makespan and the busy
// time of each platform device, indexed by device ID.
func InvocationCost(model *perf.Model, net *nn.Network, p *ExecPlan, inv *Invocation) (float64, []float64) {
	busy := make([]float64, len(model.Platform().Devices))
	return invocationCost(model, net, p, inv, busy), busy
}

// invocationCost is InvocationCost adding each platform device's busy
// time into busy[ID], asking the engine once per device, so a caller
// that sums busy time over a run allocates nothing per invocation.
func invocationCost(model *perf.Model, net *nn.Network, p *ExecPlan, inv *Invocation, busy []float64) float64 {
	if len(inv.Inputs) == 0 {
		return 0
	}
	platform := model.Platform()
	engine, _ := idleEngines.Get().(*hw.Engine)
	if engine == nil || engine.Platform() != platform {
		engine = hw.NewEngine(platform, false)
	}
	idle := *inv
	idle.ReadyUS = 0
	makespan := ScheduleOnEngine(engine, model, net, p, &idle, "", nil)
	for _, dev := range platform.Devices {
		busy[dev.ID] += engine.BusyTime(dev)
	}
	engine.Reset()
	idleEngines.Put(engine)
	return makespan
}

// ExecObserver receives every engine reservation ScheduleOnEngine
// makes: one call per layer execution (um=false, dev is the platform
// device index) and one per unified-memory transfer between devices
// (um=true, dev is the *consuming* device). Times are engine-virtual
// microseconds as granted by the engine, including queueing behind
// other tasks — exactly what a frame-lifecycle trace wants to see.
type ExecObserver func(dev int, name string, startUS, endUS float64, um bool)

// endScratch recycles the per-invocation layer-completion slices so
// the submit hot path stays allocation-free regardless of network
// depth.
var endScratch = sync.Pool{New: func() any { s := make([]float64, 0, 64); return &s }}

// ScheduleOnEngine pushes one batched inference through the shared
// per-device FIFO queues of a live engine — Eq. 3 semantics with
// cross-task contention: layers start no earlier than their producers
// (plus unified-memory transfers, serialized through the engine's
// shared bus) and queue behind whatever other tasks occupy their
// device. It returns the invocation completion time. obs, if non-nil,
// sees every reservation; the untraced path passes nil and pays one nil
// check per layer. The engine is internally synchronized, so goroutines
// pumping the execution scheduler (internal/sched, the path everything
// routes through) call this concurrently for different devices.
func ScheduleOnEngine(engine *hw.Engine, model *perf.Model, net *nn.Network, p *ExecPlan, inv *Invocation, tag string, obs ExecObserver) float64 {
	batch := len(inv.Inputs)
	if batch == 0 {
		return 0
	}
	density := batchDensity(inv)
	platform := engine.Platform()
	endp := endScratch.Get().(*[]float64)
	end := *endp
	if cap(end) < len(net.Layers) {
		end = make([]float64, len(net.Layers))
	} else {
		end = end[:len(net.Layers)]
		for i := range end {
			end[i] = 0
		}
	}
	// Span tags only exist for an observer or a recording engine; the
	// steady-state serving path has neither and skips the concats.
	named := obs != nil || engine.Recording()
	var last float64
	for i, l := range net.Layers {
		dev := platform.Devices[p.Device[i]]
		dur := layerDur(model, net, p, i, dev, batch, density)
		ready := inv.ReadyUS
		for _, pr := range net.Preds[i] {
			pready := end[pr]
			if p.Device[pr] != p.Device[i] {
				c := model.CommUS(net.Layers[pr], platform.Devices[p.Device[pr]], dev, p.Prec[pr])
				var cstart float64
				cstart, pready = engine.ReserveUM(pready, c)
				if obs != nil {
					obs(p.Device[i], tag+"/"+net.Layers[pr].Name+">"+l.Name, cstart, pready, true)
				}
			}
			if pready > ready {
				ready = pready
			}
		}
		var name string
		if named {
			name = tag + "/" + l.Name
		}
		s, e := engine.Submit(dev, ready, dur, name)
		if obs != nil {
			obs(p.Device[i], name, s, e, false)
		}
		end[i] = e
		if e > last {
			last = e
		}
	}
	*endp = end[:0]
	endScratch.Put(endp)
	return last
}

// MergeInvocationsInto coalesces several invocations of the same
// network under the same plan into one micro-batched inference, written
// into a caller-owned (empty, typically pooled) invocation: the
// members' inputs ride one launch, in member order, the batch becomes
// ready when its newest member is, and the per-raw-frame attribution is
// concatenated so each submitter can still account its own latencies
// against the shared completion time. The execution scheduler calls
// this when compatible cross-session work lands inside one coalescing
// window. The members keep their frames, which each releases as its
// own; out carries none. A single member is copied too, so out never
// aliases an input.
func MergeInvocationsInto(out *Invocation, invs []*Invocation) *Invocation {
	for _, inv := range invs {
		out.Inputs = append(out.Inputs, inv.Inputs...)
		out.Raw += inv.Raw
		out.PerRaw = append(out.PerRaw, inv.PerRaw...)
		if inv.ReadyUS > out.ReadyUS {
			out.ReadyUS = inv.ReadyUS
		}
	}
	return out
}
