package serve

import (
	"fmt"
	"strconv"
	"strings"

	"evedge/internal/nn"
	"evedge/internal/obs"
	"evedge/internal/pipeline"
	"evedge/internal/sched"
)

// pendingInv is one pooled scheduler submission: the request, whose
// Payload is the pendingInv itself, what it carries through the
// scheduler to dispatch — the invocation (ready time already shifted
// into engine virtual time) and a snapshot of the plan it priced
// under — and the completion closure live in a single recycled struct,
// so the steady-state execute path allocates none of them. The Done
// closure is bound once, at the struct's first use, and captures only
// the struct pointer; resets preserve it.
type pendingInv struct {
	srv  *Server
	sess *Session
	req  sched.Request
	inv  *pipeline.Invocation
	net  *nn.Network
	plan pipeline.ExecPlan
	// trackH is the submitting session's cached trace-ring handle (nil,
	// a no-op, when tracing is off).
	trackH *obs.Track
}

// newPending borrows a submission unit and ensures its one-time
// self-referential bindings are in place. The pool may have served an
// earlier server, so the unit is bound to this one on every borrow.
func (s *Server) newPending() *pendingInv {
	p := s.pendPool.Get()
	p.srv = s
	if p.req.Done == nil {
		p.req.Payload = p
		p.req.Done = func(end float64) {
			p.srv.complete(p.sess, p.inv.PerRaw, end)
		}
	}
	return p
}

// resetPending is the pending pool's reset hook: a borrowed unit
// keeps only its bindings.
func resetPending(p *pendingInv) {
	p.sess = nil
	p.req.Session = ""
	p.req.Key = sched.Key{}
	p.req.Units = 0
	p.inv = nil
	p.net = nil
	p.plan = pipeline.ExecPlan{}
	p.trackH = nil
}

// releaseRequest is the scheduler's Release hook: after a request's
// batch dispatched and every callback ran, its raw frames — a
// dispatched bucket's members and the frames DSFA shed since its
// previous dispatch, which the stepper and the aggregator only read —
// go back to the arena, the invocation to the invocation pool, and the
// submission unit to the pending pool. A frame that entered the
// stepper goes back to the arena here and nowhere else.
func (s *Server) releaseRequest(r *sched.Request) {
	p := r.Payload.(*pendingInv)
	inv := p.inv
	for _, f := range inv.Frames {
		s.arena.Frames.Put(f)
	}
	s.invPool.Put(inv)
	s.pendPool.Put(p)
}

// dispatchScratch is the per-dispatch merge state (pooled: workers
// pumping the scheduler dispatch for different devices concurrently).
type dispatchScratch struct {
	inv  pipeline.Invocation
	invs []*pipeline.Invocation
	ids  []string
}

// planSig fingerprints a plan's pricing-relevant identity — device and
// precision per layer, sparse path, framing overhead — so the
// scheduler coalesces only invocations that cost identically.
func planSig(p *pipeline.ExecPlan) string {
	return fmt.Sprintf("%v|%v|%v|%d", p.Device, p.Prec, p.Sparse, p.FramingOps)
}

// execute submits the one invocation the session's stepper releases,
// if any, to the execution scheduler. It runs under the session lock,
// so whenever that lock is free every frame in is held, in the
// aggregator or counted done or dropped — a close's final snapshot
// never misses frames a worker holds. flush ends the stream (session
// close): open aggregator buckets go too. Execution is asynchronous:
// completion lands in complete, which records latencies, reports the
// completion to the stepper and re-schedules the session while it
// holds frames.
// Invocation-side counters (invocs, rawDone, batched) advance at
// submission — the frames have irrevocably left the stepper — so frame
// conservation holds at every scheduler-quiescent point.
func (s *Server) execute(sess *Session, flush bool) {
	traced := s.tracer != nil
	sess.mu.Lock()
	// A worker scheduled before CloseSession can still get here after
	// the close's final flush ran. A tallied session holds nothing (the
	// close took its finals only once nothing was held or in flight),
	// so it returns before the retune controller can move a counter the
	// finals no longer see; a closing one serves in flush mode, so what
	// it finds is not stranded in open aggregator buckets.
	if sess.tallied {
		sess.mu.Unlock()
		return
	}
	if sess.closed {
		flush = true
	}
	// The control plane swaps plans and DSFA tunings only at this
	// boundary: queued frames are never dropped by an adaptation, they
	// simply execute under the new decision.
	s.adaptLocked(sess)
	released := sess.stepper.Clock()
	inv := sess.stepper.Release(flush)
	if traced {
		// Queue-wait spans: a frame became available at its T1 and left
		// the hold at the later of T1 and the clock that released it.
		// Bulk direct-write API: per-frame volume is the hot spot.
		left := sess.stepper.Left()
		sess.trackH.SpansFunc(obs.StageQueue, "queue", len(left),
			func(i int) (float64, float64, int64) {
				t1 := float64(left[i].T1)
				return t1 + sess.epochUS, max(released-t1, 0), 1
			})
	}
	var p *pendingInv
	if inv != nil {
		plan := sess.plan.Load()
		if traced && len(inv.PerRaw) > 0 {
			// DSFA bucket residency: earliest member frame ready to the
			// invocation's release.
			first := inv.PerRaw[0].ReadyUS
			for _, rr := range inv.PerRaw {
				first = min(first, rr.ReadyUS)
			}
			sess.trackH.Span(obs.StageAgg, "agg", first+sess.epochUS, inv.ReadyUS+sess.epochUS, int64(inv.Raw))
		}
		// Shift the invocation into the engine's virtual timeline; the
		// completion path attributes latencies back in stream time
		// (PerRaw keeps unshifted ready times). The stepper handed the
		// invocation over, so the shift mutates in place — no copy. The
		// plan is snapshotted by value so a later SetFramingOps cannot
		// race the worker that dispatches this invocation.
		inv.ReadyUS += sess.epochUS
		for _, d := range plan.Device {
			sess.usedDevs.add(d)
		}
		sess.invocs++
		sess.batched += uint64(len(inv.Inputs))
		sess.rawDone += uint64(inv.Raw)
		if sess.sigPlan != plan {
			// Plan swaps install a new pointer; FramingOps is fixed before
			// the first invocation, so pointer identity keys the cache.
			sess.sigPlan, sess.planSig = plan, planSig(plan)
		}
		p = s.newPending()
		p.sess = sess
		p.inv = inv
		p.net = sess.Net
		p.plan = *plan
		p.trackH = sess.trackH
		p.req.Session = sess.ID
		p.req.Key = sched.Key{Device: plan.Device[0], Net: sess.Net.Name, Sig: sess.planSig}
		p.req.Units = inv.Raw
	}
	if traced {
		// DSFA shed marks: the aggregator's bounded inference queue
		// dropped raw frames since the last pass.
		if drops := uint64(sess.stepper.Stats().DroppedFrames); drops > sess.lastDSFADrops {
			sess.trackH.Instant(obs.StageAgg, "dsfa-drop",
				sess.stepper.Clock()+sess.epochUS, int64(drops-sess.lastDSFADrops))
			sess.lastDSFADrops = drops
		}
	}
	sess.mu.Unlock()
	// Submit outside sess.mu: the pump that follows completes requests
	// on this goroutine, and complete re-acquires the session lock. The
	// pending struct is NOT returned here — the scheduler's Release hook
	// recycles it after its batch completes.
	if p != nil {
		s.sched.Submit(&p.req)
	}
}

// dispatchBatch executes one scheduler micro-batch: compatible
// invocations (same network, identical plan) merge into a single
// batched inference priced once on the shared engine. All members
// complete at the batch end — early members pay the coalescing delay,
// which is exactly the latency/throughput trade MaxBatch bounds.
func (s *Server) dispatchBatch(batch []*sched.Request) float64 {
	first := batch[0].Payload.(*pendingInv)
	inv := first.inv
	// Span tags only matter when someone records them; with tracing and
	// engine recording both off the join would be a per-dispatch
	// allocation nobody reads.
	named := s.tracer != nil || s.engine.Recording()
	tag := batch[0].Session
	var scr *dispatchScratch
	if len(batch) > 1 {
		scr = s.dispatchScr.Get().(*dispatchScratch)
		scr.invs = scr.invs[:0]
		for _, r := range batch {
			scr.invs = append(scr.invs, r.Payload.(*pendingInv).inv)
		}
		scr.inv.Inputs = scr.inv.Inputs[:0]
		scr.inv.PerRaw = scr.inv.PerRaw[:0]
		scr.inv.Raw, scr.inv.ReadyUS = 0, 0
		inv = pipeline.MergeInvocationsInto(&scr.inv, scr.invs)
		if named {
			scr.ids = scr.ids[:0]
			for _, r := range batch {
				scr.ids = append(scr.ids, r.Session)
			}
			tag = strings.Join(scr.ids, "+")
		}
		defer func() {
			for i := range scr.invs {
				scr.invs[i] = nil
			}
			s.dispatchScr.Put(scr)
		}()
	}
	// Traced dispatch: the execution observer folds the per-layer
	// callbacks into one busy span per device (first layer start to
	// last layer end on that device, Count = layers) plus the UM-bus
	// transfers; afterwards each batch member gets a coalesce-wait
	// span from its own readiness to the batch's first engine start
	// (early members pay the coalescing delay — exactly the
	// latency/throughput trade MaxBatch bounds). Untraced, observe
	// stays nil and execStart negative.
	var devs []devExtent
	execStart := -1.0
	var observe pipeline.ExecObserver
	if s.tracer != nil {
		devs = make([]devExtent, len(s.devTrackH))
		observe = func(dev int, name string, startUS, endUS float64, um bool) {
			if um {
				s.umTrack.Span(obs.StageComms, name, startUS, endUS, 0)
				return
			}
			if execStart < 0 || startUS < execStart {
				execStart = startUS
			}
			d := &devs[dev]
			if d.layers == 0 || startUS < d.start {
				d.start = startUS
			}
			if endUS > d.end {
				d.end = endUS
			}
			d.layers++
		}
	}
	end := pipeline.ScheduleOnEngine(s.engine, s.model, first.net, &first.plan, inv, tag, observe)
	if execStart >= 0 {
		name := "batch:" + tag
		for i := range devs {
			if devs[i].layers > 0 {
				s.devTrackH[i].Span(obs.StageExec, name, devs[i].start, devs[i].end, devs[i].layers)
			}
		}
		for _, r := range batch {
			p := r.Payload.(*pendingInv)
			p.trackH.Span(obs.StageBatch, name, p.inv.ReadyUS, execStart, int64(r.Units))
		}
	}
	return end
}

// devExtent accumulates one device's busy extent across a dispatch's
// per-layer execution callbacks.
type devExtent struct {
	start, end float64
	layers     int64
}

// observeDispatch is the scheduler's post-dispatch hook under tracing:
// one instant per micro-batch on the scheduler track, carrying the
// member count in its name and the raw-frame units in Count — the
// occupancy signal, span-aligned with the exec spans it produced.
func (s *Server) observeDispatch(batch []*sched.Request, endUS float64) {
	var units int64
	for _, r := range batch {
		units += int64(r.Units)
	}
	s.schedTrack.Instant(obs.StageCtl, dispatchName(len(batch)), endUS, units)
}

// dispatchNames caches the scheduler-instant labels for common batch
// sizes so observeDispatch never formats in the dispatch path.
var dispatchNames = [...]string{
	"dispatch[0]", "dispatch[1]", "dispatch[2]", "dispatch[3]",
	"dispatch[4]", "dispatch[5]", "dispatch[6]", "dispatch[7]",
	"dispatch[8]", "dispatch[9]", "dispatch[10]", "dispatch[11]",
	"dispatch[12]", "dispatch[13]", "dispatch[14]", "dispatch[15]",
	"dispatch[16]",
}

func dispatchName(n int) string {
	if n >= 0 && n < len(dispatchNames) {
		return dispatchNames[n]
	}
	return "dispatch[" + strconv.Itoa(n) + "]"
}

// complete is the scheduler's completion callback for one session
// submission: attribute per-raw-frame latencies in stream time, report
// the completion to the stepper, and re-schedule the session while it
// holds frames, so its next invocation goes. It never meets a tallied
// session: the close takes the finals only once nothing is in flight,
// and Stepper.Done runs in this same lock hold.
func (s *Server) complete(sess *Session, perRaw []pipeline.RawRef, engEnd float64) {
	sess.mu.Lock()
	end := engEnd - sess.epochUS
	var dCount uint64
	var dSum float64
	for _, rr := range perRaw {
		lat := end - rr.ReadyUS
		for k := 0; k < rr.N; k++ {
			sess.lat.observe(lat)
		}
		dCount += uint64(rr.N)
		dSum += lat * float64(rr.N)
	}
	if s.tracer != nil {
		// End-to-end frame spans: stream readiness to completion, in
		// engine time so they nest under the session's other lanes.
		sess.trackH.SpansFunc(obs.StageFrame, "frame", len(perRaw),
			func(i int) (float64, float64, int64) {
				rr := perRaw[i]
				return rr.ReadyUS + sess.epochUS, end - rr.ReadyUS, int64(rr.N)
			})
	}
	sess.stepper.Done(end)
	pending := sess.stepper.Pending() > 0
	var resultEv ResultEvent
	var resultAck uint64
	if sess.journal != nil && dCount > 0 {
		// One journaled result per completed batch: completion instant in
		// stream time, mean per-raw latency, raw frames served. The
		// append wakes SSE subscribers; the ack sweep keeps the chunk
		// watermark fresh for replica trimming.
		resultEv = ResultEvent{DoneUS: end, LatUS: dSum / float64(dCount), Frames: int(dCount)}
		resultEv.Seq = sess.journal.appendResult(resultEv.DoneUS, resultEv.LatUS, resultEv.Frames)
		resultAck = sess.journal.ack(sess.completedLocked())
	}
	sess.mu.Unlock()
	if resultEv.Seq > 0 && s.cfg.OnResult != nil {
		// Outside sess.mu: the hook takes cluster-side locks to ship the
		// result to the buddy node.
		s.cfg.OnResult(sess.ID, resultEv, resultAck)
	}
	if pending {
		s.schedule(sess)
	}
}

// adaptLocked runs one retune decision for the session; callers hold
// sess.mu. Decisions are rate-limited by the controller itself
// (DecideEveryUS of stream time), so calling per invocation is cheap.
func (s *Server) adaptLocked(sess *Session) {
	if sess.retuner == nil {
		return
	}
	if cfg, ok := sess.retuner.Observe(sess.sampleLocked()); ok {
		// The derived tuning is valid by construction; a failed retune
		// would leave the old tuning in place, which is safe.
		if sess.stepper.Retune(cfg) == nil {
			s.ctlTrack.Instant(obs.StageCtl, "retune:"+sess.ID, sess.stepper.Clock()+sess.epochUS, 1)
		}
	}
}
