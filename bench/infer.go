package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"evedge"
	"evedge/internal/nn"
	"evedge/internal/pipeline"
	"evedge/internal/sparse"
)

// inferWorkload is infer_numeric: numeric inference with nn.Runtime on
// real E2SF output. Conversion, densification and cropping happen in
// set-up; a pass is Forward calls only, so E2SF, DSFA, NMP, sched and
// serve are outside the timed region.
type inferWorkload struct {
	seed  int64
	tasks []*inferTask
	dense *inferTask // DenseExec DOTIE over the first frames of its sparse twin
	// ref holds the first pass's output checksum per task: every later
	// pass must reproduce it bit for bit.
	ref map[string]uint64
	// coherent holds consecutive DOTIE sparse frames for the rulebook
	// probe (temporal coherence needs neighbours, not a spaced sample).
	coherent []*sparse.Frame
	trace    *tracer // last traced phase
}

// inferTask is one network's runtime and its input tensors.
type inferTask struct {
	name   string
	rt     *nn.Runtime
	inputs []*sparse.Tensor
	events []float64 // raw events behind each input frame
}

const (
	inferDiv  = 2 // spatialDiv: 256x256 networks run at 128x128
	inferSide = 256 / inferDiv
)

// inferPlan is the frame budget per network, sized so the three sparse
// networks take similar host time (≈7 / 8 / 1 ms per frame).
var inferPlan = []struct {
	net    string
	frames int
}{
	{evedge.SpikeFlowNet, 20},
	{evedge.AdaptiveSpikeNet, 18},
	{evedge.DOTIE, 100},
}

const inferDenseFrames = 10

func (w *inferWorkload) lastTrace() *tracer  { return w.trace }
func (w *inferWorkload) deterministic() bool { return true }
func (w *inferWorkload) close()              {}

func (w *inferWorkload) setup(seed int64) error {
	w.seed = seed
	w.tasks = w.tasks[:0]
	w.ref = map[string]uint64{}
	nets := make([]*evedge.Network, len(inferPlan))
	specs := make([]streamSpec, len(inferPlan))
	for i, p := range inferPlan {
		net, err := evedge.LoadNetwork(p.net)
		if err != nil {
			return err
		}
		nets[i] = net
		specs[i] = streamSpec{net.Input.Preset, seed}
	}
	streams, err := genStreams(specs)
	if err != nil {
		return err
	}
	for i, p := range inferPlan {
		frames, _, err := pipeline.ConvertStream(nets[i], streams[i], streamDurUS)
		if err != nil {
			return err
		}
		n := min(p.frames, len(frames))
		if n == 0 {
			return fmt.Errorf("%s: stream made no frames", p.net)
		}
		rt, err := nn.NewRuntime(nets[i], nn.SparseExec, seed, inferDiv)
		if err != nil {
			return err
		}
		task := &inferTask{name: p.net, rt: rt}
		// Evenly spaced frames, so the inputs span the whole sequence.
		for k := 0; k < n; k++ {
			f := frames[k*len(frames)/n]
			task.inputs = append(task.inputs, cropDense(f))
			task.events = append(task.events, f.EventCount())
		}
		w.tasks = append(w.tasks, task)
		if p.net == evedge.DOTIE {
			w.coherent = frames[:min(len(frames), 256)]
		}
	}
	dotie := w.tasks[len(w.tasks)-1]
	rt, err := nn.NewRuntime(dotie.rt.Net, nn.DenseExec, seed, inferDiv)
	if err != nil {
		return err
	}
	nd := min(inferDenseFrames, len(dotie.inputs))
	w.dense = &inferTask{name: dotie.name, rt: rt, inputs: dotie.inputs[:nd], events: dotie.events[:nd]}
	return nil
}

// cropDense densifies a sparse frame and centre-crops it to the
// runtime's 2 x inferSide x inferSide input.
func cropDense(f *sparse.Frame) *sparse.Tensor {
	full := sparse.NewTensor(2, f.H, f.W)
	f.DenseInto(full)
	out := sparse.NewTensor(2, inferSide, inferSide)
	y0, x0 := (f.H-inferSide)/2, (f.W-inferSide)/2
	for c := 0; c < 2; c++ {
		for y := 0; y < inferSide; y++ {
			src := full.Data[(c*f.H+y0+y)*f.W+x0:]
			copy(out.Data[(c*inferSide+y)*inferSide:(c*inferSide+y+1)*inferSide], src[:inferSide])
		}
	}
	return out
}

// forward runs one frame and folds the terminal outputs' float bits
// into an FNV-1a checksum.
func (k *inferTask) forward(in *sparse.Tensor, sum *uint64) (map[int]*sparse.Tensor, error) {
	outs, err := k.rt.Forward(map[int]*sparse.Tensor{0: in})
	if err != nil {
		return nil, err
	}
	h := fnv.New64a()
	var b [4]byte
	for _, id := range k.rt.OutputLayerIDs() {
		for _, v := range outs[id].Data {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			_, _ = h.Write(b[:]) // hash.Hash.Write never fails
		}
	}
	*sum = *sum*1099511628211 ^ h.Sum64()
	return outs, nil
}

// run forwards every input of the task and returns the checksum.
func (k *inferTask) run(tr *tracer, root int, span string, t *tally, opMS *[]float64, out *passOut) (sum uint64, last map[int]*sparse.Tensor) {
	for i, in := range k.inputs {
		t0 := time.Now()
		sp := tr.start(span, root)
		outs, err := k.forward(in, &sum)
		tr.finish(sp)
		if opMS != nil {
			*opMS = append(*opMS, msSince(t0))
		}
		if !t.call("Forward "+k.name, err) {
			continue
		}
		out.frames++
		out.events += int64(k.events[i])
		last = outs
	}
	return sum, last
}

func (w *inferWorkload) pass(tr *tracer, t *tally, opMS *[]float64) passOut {
	tr.nextPass()
	root := tr.start("pass", -1)
	defer tr.finish(root)
	out := passOut{extra: map[string]float64{}}
	var sparseLast map[int]*sparse.Tensor
	for _, k := range w.tasks {
		sum, last := k.run(tr, root, "nn.forward_"+spanName(k.name), t, opMS, &out)
		w.checkSum(t, k.name, sum)
		sparseLast = last
	}
	// DenseExec on DOTIE's first frames; its last output must match the
	// sparse path's on the same input.
	sum, denseLast := w.dense.run(tr, root, "nn.forward_dense_"+spanName(w.dense.name), t, opMS, &out)
	w.checkSum(t, "dense/"+w.dense.name, sum)
	if denseLast != nil && sparseLast != nil {
		dotie := w.tasks[len(w.tasks)-1]
		var s uint64
		again, err := dotie.forward(w.dense.inputs[len(w.dense.inputs)-1], &s)
		if t.call("Forward "+dotie.name, err) {
			for _, id := range dotie.rt.OutputLayerIDs() {
				d := sparse.MaxAbsDiff(again[id], denseLast[id])
				t.check(d < 1e-4, "DOTIE SparseExec vs DenseExec differ by %g", d)
			}
		}
	}
	return out
}

// checkSum pins each task's output checksum to its first pass.
func (w *inferWorkload) checkSum(t *tally, key string, sum uint64) {
	ref, ok := w.ref[key]
	if !ok {
		w.ref[key] = sum
		return
	}
	t.check(ref == sum, "%s: output checksum %016x, first pass gave %016x", key, sum, ref)
}
