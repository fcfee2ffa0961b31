package nmp

import (
	"fmt"

	"evedge/internal/hw"
	"evedge/internal/nn"
	"evedge/internal/taskgraph"
)

// Baseline scheduling policies the paper compares against. Round-robin
// policies cycle over the neural accelerators (GPU and the two DLAs);
// the CPU is left to the runtime, as is conventional for inference
// serving on Jetson-class boards. The baselines deploy at FP16 — the
// same precision as the all-GPU implementation — since they are
// *scheduling* baselines and do not search precision.

// accelerators returns GPU and DLA devices in platform order.
func accelerators(p *hw.Platform) []*hw.Device {
	var out []*hw.Device
	for _, d := range p.Devices {
		if d.Kind == hw.GPU || d.Kind == hw.DLA {
			out = append(out, d)
		}
	}
	return out
}

// searchPrecisions lists, per device ID, the precisions a search may
// give a layer on that device: the device's own in its order (an index
// into the list is what the search's random stream selects), minus
// INT8 when fullOnly — unless that would leave the device none.
func searchPrecisions(p *hw.Platform, fullOnly bool) [][]nn.Precision {
	out := make([][]nn.Precision, len(p.Devices))
	for i, d := range p.Devices {
		ps := d.Precisions()
		if fullOnly {
			full := ps[:0:0]
			for _, prec := range ps {
				if prec != nn.INT8 {
					full = append(full, prec)
				}
			}
			if len(full) > 0 {
				ps = full
			}
		}
		out[i] = ps
	}
	return out
}

// AllGPU maps every layer of every task to the GPU at the given
// precision — the paper's single-task baseline implementation.
func AllGPU(nets []*nn.Network, p *hw.Platform, prec nn.Precision) (*taskgraph.Assignment, error) {
	gpu := p.GPUDevice()
	if gpu == nil {
		return nil, fmt.Errorf("nmp: platform %q has no GPU", p.Name)
	}
	if !gpu.Supports(prec) {
		return nil, fmt.Errorf("nmp: GPU does not support %v", prec)
	}
	asg := taskgraph.NewAssignment(nets)
	for t := range nets {
		for l := range nets[t].Layers {
			asg.Device[t][l] = gpu.ID
			asg.Prec[t][l] = prec
		}
	}
	return asg, nil
}

// RRNetwork is the coarse-grained round-robin policy: network t is
// assigned wholesale to accelerator t mod N ("each network is assigned
// to a processing element and the rest of the networks are distributed
// in a cyclic manner").
func RRNetwork(nets []*nn.Network, p *hw.Platform) (*taskgraph.Assignment, error) {
	return RRNetworkFrom(nil, nets, p)
}

// RRNetworkFrom is RRNetwork reusing prev's rows (prev may be nil): a
// round-robin row depends only on its task's position and layer count,
// so where prev's row at the same position already maps that many
// layers to the same device and precision, the result shares it
// instead of building it. A serving node re-placing its sessions on
// every create and close thus builds only the rows of sessions that
// moved. Shared rows must not be changed in place; Clone first.
func RRNetworkFrom(prev *taskgraph.Assignment, nets []*nn.Network, p *hw.Platform) (*taskgraph.Assignment, error) {
	accs := accelerators(p)
	if len(accs) == 0 {
		return nil, fmt.Errorf("nmp: platform %q has no accelerators", p.Name)
	}
	asg := &taskgraph.Assignment{
		Device: make([][]int, len(nets)),
		Prec:   make([][]nn.Precision, len(nets)),
	}
	for t, net := range nets {
		d := accs[t%len(accs)]
		prec := deployPrec(d)
		if prev != nil && t < len(prev.Device) && t < len(prev.Prec) && uniformRow(prev.Device[t], prev.Prec[t], len(net.Layers), d.ID, prec) {
			asg.Device[t], asg.Prec[t] = prev.Device[t], prev.Prec[t]
			continue
		}
		asg.Device[t] = make([]int, len(net.Layers))
		asg.Prec[t] = make([]nn.Precision, len(net.Layers))
		for l := range net.Layers {
			asg.Device[t][l], asg.Prec[t][l] = d.ID, prec
		}
	}
	return asg, nil
}

// uniformRow reports whether a row maps exactly n layers, every one to
// device d at precision prec.
func uniformRow(dev []int, precs []nn.Precision, n, d int, prec nn.Precision) bool {
	if len(dev) != n || len(precs) != n {
		return false
	}
	for l := range dev {
		if dev[l] != d || precs[l] != prec {
			return false
		}
	}
	return true
}

// deployPrec is the non-quantized deployment precision: FP16 where
// supported (all Xavier accelerators), else the most precise type.
func deployPrec(d *hw.Device) nn.Precision {
	if d.Supports(nn.FP16) {
		return nn.FP16
	}
	return d.FullPrecision()
}

// RRLayer is the fine-grained round-robin policy: consecutive layers
// cycle over the accelerators ("each layer is assigned to a processing
// element").
func RRLayer(nets []*nn.Network, p *hw.Platform) (*taskgraph.Assignment, error) {
	accs := accelerators(p)
	if len(accs) == 0 {
		return nil, fmt.Errorf("nmp: platform %q has no accelerators", p.Name)
	}
	asg := taskgraph.NewAssignment(nets)
	i := 0
	for t := range nets {
		for l := range nets[t].Layers {
			d := accs[i%len(accs)]
			asg.Device[t][l] = d.ID
			asg.Prec[t][l] = deployPrec(d)
			i++
		}
	}
	return asg, nil
}

// EvaluatePolicy runs a fixed assignment through the same fitness
// machinery as the search, so baselines report comparable numbers.
func (mp *Mapper) EvaluatePolicy(asg *taskgraph.Assignment) (*Result, error) {
	ev, err := mp.Evaluate(asg)
	if err != nil {
		return nil, err
	}
	res := &Result{Evaluations: 1}
	return mp.finish(res, asg, ev), nil
}
