package nn

import (
	"fmt"
	"math/rand"

	"evedge/internal/par"
	"evedge/internal/sparse"
)

// ExecMode selects the arithmetic path of the numeric runtime.
type ExecMode int

// Execution modes.
const (
	// DenseExec runs plain dense convolutions — the all-GPU baseline's
	// arithmetic.
	DenseExec ExecMode = iota
	// SparseExec runs gather-scatter sparse convolutions whose work is
	// proportional to active sites — the E2SF-enabled path.
	SparseExec
)

// Runtime instantiates a Network with concrete (randomly initialized)
// weights and executes it numerically. It exists for functional tests,
// examples and the numeric benchmark: the experiment harness uses the
// analytic profiles, not this runtime, exactly as the paper's search
// consumes profiled layer times rather than re-running inference.
//
// A Runtime owns one output tensor per layer and reuses it on every
// Forward, so a warm Forward allocates nothing; it is not safe for
// concurrent use.
type Runtime struct {
	Net     *Network
	Mode    ExecMode
	VThresh float32 // LIF firing threshold
	Leak    float32 // LIF leak factor per timestep (0 = IF)

	// spatialDiv scales down the spatial extent so tests stay fast;
	// channel counts are preserved.
	spatialDiv int

	// pool/shards shard the convolution kernels when a worker pool is
	// wired in via SetParallel. Sharded kernels are bit-identical to the
	// serial ones, so the runtime's outputs do not depend on whether or
	// how wide parallelism is enabled.
	pool   *par.Pool
	shards int

	layers              []layerState
	outs                map[int]*sparse.Tensor // what Forward returns: every layer's out
	inputIDs, outputIDs []int
	scratch             sparse.SiteScratch
	operands            []sparse.SiteInput // the current layer's inputs, reused
}

// layerState is one layer's weights and the memory Forward reuses for
// it.
type layerState struct {
	filter *sparse.Filter   // conv/deconv weights, for the dense kernel
	sites  *sparse.SiteConv // the same weights packed for site-list execution
	act    func(row []float32)
	out    *sparse.Tensor
	// active lists the sites of out that hold a nonzero value, in
	// row-major order. It is the site list the next layer scatters from
	// and the undo list that clears out before this layer's next run.
	active []int32
	// tracked says out is zero everywhere outside active. A volume
	// kernel overwrites out wholesale and clears it.
	tracked bool
	inSites []int32        // input layers: the site list of the caller's tensor
	cat     *sparse.Tensor // channel concatenation of the predecessors, for the dense kernel
}

// NewRuntime builds a runtime with weights drawn from seed. spatialDiv
// >= 1 divides the spatial resolution (1 = native 256x256). Shapes are
// chained and checked here, so Forward can only fail on its inputs.
func NewRuntime(net *Network, mode ExecMode, seed int64, spatialDiv int) (*Runtime, error) {
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if spatialDiv < 1 {
		return nil, fmt.Errorf("nn: spatialDiv must be >= 1, got %d", spatialDiv)
	}
	r := rand.New(rand.NewSource(seed))
	rt := &Runtime{
		Net: net, Mode: mode, VThresh: 0.5, Leak: 0.9,
		spatialDiv: spatialDiv,
		layers:     make([]layerState, len(net.Layers)),
		outs:       make(map[int]*sparse.Tensor, len(net.Layers)),
	}
	succs := net.Succs()
	for i, l := range net.Layers {
		st := &rt.layers[i]
		st.tracked = true
		c, h, w := rt.InputShape(i)
		if preds := net.Preds[i]; len(preds) == 0 {
			rt.inputIDs = append(rt.inputIDs, i)
		} else {
			first := rt.layers[preds[0]].out
			c, h, w = 0, first.H, first.W
			for _, p := range preds {
				o := rt.layers[p].out
				if o.H != h || o.W != w {
					return nil, fmt.Errorf("nn: layer %s: concat spatial mismatch %dx%d vs %dx%d", l.Name, o.H, o.W, h, w)
				}
				c += o.C
			}
		}
		if len(succs[i]) == 0 {
			rt.outputIDs = append(rt.outputIDs, i)
		}
		if c != l.InC {
			return nil, fmt.Errorf("nn: layer %s: input channels %d != filter %d", l.Name, c, l.InC)
		}
		f := sparse.NewFilter(l.OutC, l.InC, l.K, l.Stride, l.Pad)
		f.Deconv = l.Kind == Deconv
		// Uniform in ±3/(InC·K²). With VThresh 0.5 this is far too
		// small to carry activity through a stack: on real E2SF
		// frames every layer after the first outputs all zeros (see
		// EXPERIMENTS.md, "Numeric runtime activity").
		scale := float32(1.0) / float32(l.InC*l.K*l.K)
		for i := range f.Weights {
			f.Weights[i] = (r.Float32()*2 - 1) * scale * 3
		}
		// No bias: a site no input reaches must come out as act(0) = 0
		// for the site path's untouched outputs to be exact.
		st.filter, st.sites = f, sparse.NewSiteConv(f)
		st.act = relu
		if l.Domain == SNN {
			T := l.Timesteps
			st.act = func(row []float32) { rt.lif(row, T) }
		}
		oh, ow := f.OutShape(h, w)
		if h <= 0 || w <= 0 || oh <= 0 || ow <= 0 {
			return nil, fmt.Errorf("nn: layer %s: %dx%d input gives an empty %dx%d output", l.Name, h, w, oh, ow)
		}
		st.out = sparse.NewTensor(l.OutC, oh, ow)
		rt.outs[i] = st.out
	}
	return rt, nil
}

// InputShape returns the (C, H, W) the runtime expects for the given
// input layer.
func (rt *Runtime) InputShape(layerID int) (c, h, w int) {
	l := rt.Net.Layers[layerID]
	return l.InC, l.InH / rt.spatialDiv, l.InW / rt.spatialDiv
}

// InputLayerIDs returns the IDs of layers with no predecessors, in
// order. The slice is the runtime's own: read-only.
func (rt *Runtime) InputLayerIDs() []int { return rt.inputIDs }

// OutputLayerIDs returns the IDs of layers with no successors, in
// order. The slice is the runtime's own: read-only.
func (rt *Runtime) OutputLayerIDs() []int { return rt.outputIDs }

// Forward executes the network on the given inputs (one tensor per
// input layer, keyed by layer ID) and returns every layer's output.
// The map and its tensors belong to the runtime and are valid until
// its next Forward; the same map is returned every call.
//
// In SparseExec a frame costs what its activity costs: each input is
// scanned once into a site list, every conv/deconv scatters from the
// sites listed for its inputs (sparse.SiteConv.Apply), and hands the
// sites it left nonzero to its successors. DenseExec runs convolutions
// over the whole volume; its transposed convolutions are scatters
// either way and take the same path from a scanned list.
func (rt *Runtime) Forward(inputs map[int]*sparse.Tensor) (map[int]*sparse.Tensor, error) {
	for i, l := range rt.Net.Layers {
		st := &rt.layers[i]
		ops := rt.operands[:0]
		if preds := rt.Net.Preds[i]; len(preds) == 0 {
			x, ok := inputs[i]
			if !ok {
				return nil, fmt.Errorf("nn: missing input for layer %d (%s)", i, l.Name)
			}
			wantC, wantH, wantW := rt.InputShape(i)
			if x.C != wantC || x.H != wantH || x.W != wantW {
				return nil, fmt.Errorf("nn: input for %s is %dx%dx%d, want %dx%dx%d",
					l.Name, x.C, x.H, x.W, wantC, wantH, wantW)
			}
			ops = append(ops, sparse.SiteInput{T: x})
		} else {
			for _, p := range preds {
				ops = append(ops, sparse.SiteInput{T: rt.layers[p].out})
			}
		}
		rt.operands = ops
		var err error
		if l.Kind == Deconv || rt.Mode == SparseExec {
			err = rt.execSites(i, ops)
		} else {
			err = sparse.Conv2DTiledInto(st.out, rt.concat(st, ops), st.filter, rt.pool, rt.shards)
			st.act(st.out.Data)
			st.tracked = false
		}
		if err != nil {
			return nil, fmt.Errorf("nn: layer %s: %w", l.Name, err)
		}
	}
	return rt.outs, nil
}

// execSites runs conv/deconv layer i from site lists. An operand that
// is another layer's tracked output brings its list; anything else (a
// caller's tensor, the output of a volume kernel) is scanned.
func (rt *Runtime) execSites(i int, ops []sparse.SiteInput) error {
	st := &rt.layers[i]
	for j, p := range rt.Net.Preds[i] {
		ps := &rt.layers[p]
		if !ps.tracked {
			ps.active = rt.scratch.Sites(ps.active[:0], ps.out)
		}
		ops[j].Sites = ps.active
	}
	if len(rt.Net.Preds[i]) == 0 {
		st.inSites = rt.scratch.Sites(st.inSites[:0], ops[0].T)
		ops[0].Sites = st.inSites
	}
	if st.tracked {
		plane := st.out.H * st.out.W
		for c := 0; c < st.out.C; c++ {
			ch := st.out.Data[c*plane : (c+1)*plane]
			for _, site := range st.active {
				ch[site] = 0
			}
		}
	} else {
		st.out.Zero()
		st.tracked = true
	}
	var err error
	st.active, err = st.sites.Apply(st.out, &rt.scratch, ops, st.act, st.active[:0], rt.pool, rt.shards)
	return err
}

// concat returns the layer's input as one tensor for a volume kernel:
// the single operand itself, or the operands copied channel after
// channel into the layer's concat buffer.
func (rt *Runtime) concat(st *layerState, ops []sparse.SiteInput) *sparse.Tensor {
	if len(ops) == 1 {
		return ops[0].T
	}
	if st.cat == nil {
		c := 0
		for _, op := range ops {
			c += op.T.C
		}
		st.cat = sparse.NewTensor(c, ops[0].T.H, ops[0].T.W)
	}
	off := 0
	for _, op := range ops {
		off += copy(st.cat.Data[off:], op.T.Data)
	}
	return st.cat
}

// SetParallel wires a worker pool into the runtime's convolution
// kernels. shards is the work-partition count per dispatch (<= 0 uses
// twice the pool width, which keeps shards fine enough to balance
// uneven rows). A nil pool restores the serial path. Outputs are
// bit-identical either way.
func (rt *Runtime) SetParallel(pool *par.Pool, shards int) {
	if shards <= 0 {
		shards = 2 * pool.Size()
	}
	rt.pool, rt.shards = pool, shards
}

// lif replaces each drive in row by the mean spike rate of a leaky
// integrate-and-fire neuron held at that drive for T timesteps — a
// real thresholding nonlinearity that produces genuinely sparse
// activations. The membrane potential and spike count of one element
// live in registers; no state outlasts the call.
func (rt *Runtime) lif(row []float32, T int) {
	leak, thresh := rt.Leak, rt.VThresh
	perStep := 1 / float32(T)
	for i, drive := range row {
		var v, spikes float32
		for t := 0; t < T; t++ {
			v = v*leak + drive
			if v >= thresh {
				spikes++
				v -= thresh
			}
		}
		row[i] = spikes * perStep
	}
}

func relu(row []float32) {
	for i, v := range row {
		if v < 0 {
			row[i] = 0
		}
	}
}
