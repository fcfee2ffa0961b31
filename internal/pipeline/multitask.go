package pipeline

import (
	"fmt"
	"sort"

	"evedge/internal/events"
	"evedge/internal/hw"
	"evedge/internal/nn"
	"evedge/internal/perf"
	"evedge/internal/scene"
	"evedge/internal/sparse"
	"evedge/internal/taskgraph"
)

// MultiTaskConfig describes a streaming run of several concurrently
// executing networks sharing one platform — the deployment scenario of
// the paper's Sec. 6 multi-task evaluation, but with live frame
// streams instead of a single static schedule.
type MultiTaskConfig struct {
	Nets     []*nn.Network
	Platform *hw.Platform
	// Assignment maps every layer to a device and precision (from the
	// Network Mapper or a round-robin baseline).
	Assignment *taskgraph.Assignment
	Scale      scene.Scale
	DurUS      int64
	Seed       int64
	// Streams optionally overrides the per-task scene generation.
	Streams []*events.Stream
}

// TaskReport summarizes one task of a multi-task run.
type TaskReport struct {
	MeanLatencyUS float64
}

// MultiTaskReport summarizes a streaming multi-task run.
type MultiTaskReport struct {
	Tasks []TaskReport
	// MaxMeanLatencyUS is the slowest task's mean latency — the
	// streaming analogue of the Eq. 2 objective.
	MaxMeanLatencyUS float64
	// DeviceBusyUS records per-device busy time.
	DeviceBusyUS map[string]float64
}

// invocationJob is one task's inference becoming ready at a known time.
type invocationJob struct {
	task    int
	frame   *sparse.Frame
	readyUS float64
}

// RunMultiTask streams every task's frames through the shared platform
// under the given assignment. Each frame triggers one inference whose
// layers execute on their assigned devices through per-device FIFO
// queues (Eq. 3 semantics, now with cross-task contention): tasks
// interleave wherever their layers land on different devices and queue
// behind each other wherever they collide.
func RunMultiTask(cfg MultiTaskConfig) (*MultiTaskReport, error) {
	if len(cfg.Nets) == 0 {
		return nil, fmt.Errorf("pipeline: no networks")
	}
	if cfg.Platform == nil {
		cfg.Platform = hw.Xavier()
	}
	if cfg.DurUS <= 0 {
		cfg.DurUS = 1_000_000
	}
	if cfg.Assignment == nil {
		return nil, fmt.Errorf("pipeline: no assignment")
	}
	if err := cfg.Assignment.Validate(cfg.Nets, cfg.Platform); err != nil {
		return nil, err
	}
	if cfg.Streams != nil && len(cfg.Streams) != len(cfg.Nets) {
		return nil, fmt.Errorf("pipeline: %d streams for %d networks", len(cfg.Streams), len(cfg.Nets))
	}

	model := perf.NewModel(cfg.Platform)
	// Convert every task's stream into timed frames, borrowed as Run
	// borrows them and returned once the jobs have run (or on an error
	// exit, the frames of the tasks converted so far).
	var jobs []invocationJob
	pools := idleRunPools.Get()
	defer func() {
		for _, job := range jobs {
			pools.frames.Put(job.frame)
		}
		idleRunPools.Put(pools)
	}()
	rep := &MultiTaskReport{
		Tasks:        make([]TaskReport, len(cfg.Nets)),
		DeviceBusyUS: map[string]float64{},
	}
	for t, net := range cfg.Nets {
		stream := (*events.Stream)(nil)
		if cfg.Streams != nil {
			stream = cfg.Streams[t]
		}
		if stream == nil {
			seq, err := scene.NewSequence(net.Input.Preset, cfg.Scale, cfg.Seed+int64(t))
			if err != nil {
				return nil, err
			}
			stream, err = seq.Generate(cfg.DurUS)
			if err != nil {
				return nil, err
			}
		}
		frames, err := convertStream(net, stream, cfg.DurUS, pools.frames, convertShards())
		if err != nil {
			return nil, fmt.Errorf("pipeline: task %d (%s): %w", t, net.Name, err)
		}
		for _, f := range frames {
			jobs = append(jobs, invocationJob{task: t, frame: f, readyUS: float64(f.T1)})
		}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].readyUS < jobs[j].readyUS })

	engine := hw.NewEngine(cfg.Platform, false)
	plans := make([]*ExecPlan, len(cfg.Nets))
	for t := range cfg.Nets {
		p, err := PlanFromAssignment(cfg.Assignment, t, true)
		if err != nil {
			return nil, err
		}
		plans[t] = p
	}
	// One inference per frame, dispatched in ready order straight onto
	// the engine: the paper's one-inference-per-frame schedule, with
	// per-device FIFO contention coming from the engine's queues.
	sums := make([]float64, len(cfg.Nets))
	counts := make([]int, len(cfg.Nets))
	for _, job := range jobs {
		net := cfg.Nets[job.task]
		inv := fillSingleFrameInv(pools.invs.Get(), job.frame)
		end := ScheduleOnEngine(engine, model, net, plans[job.task], inv, net.Name, nil)
		pools.invs.Put(inv)
		sums[job.task] += end - job.readyUS
		counts[job.task]++
	}
	for t := range cfg.Nets {
		if counts[t] > 0 {
			rep.Tasks[t].MeanLatencyUS = sums[t] / float64(counts[t])
		}
		if rep.Tasks[t].MeanLatencyUS > rep.MaxMeanLatencyUS {
			rep.MaxMeanLatencyUS = rep.Tasks[t].MeanLatencyUS
		}
	}
	for _, d := range cfg.Platform.Devices {
		rep.DeviceBusyUS[d.Name] = engine.BusyTime(d)
	}
	return rep, nil
}
