package perf

import (
	"fmt"
	"sort"

	"evedge/internal/hw"
	"evedge/internal/nn"
)

// LayerRef identifies one layer of one task in a multi-task workload.
type LayerRef struct {
	Task  int // index of the network in the workload
	Layer int // layer ID within the network
}

// ProfileKey addresses one measured configuration.
type ProfileKey struct {
	Ref       LayerRef
	Device    int // device ID
	Precision nn.Precision
}

// ProfileDB holds pre-measured layer execution times — the offline
// profiling step the paper performs with TensorRT before the
// evolutionary search. Lookups during the search are O(1) map reads,
// keeping candidate evaluation fast.
type ProfileDB struct {
	platform *hw.Platform
	networks []*nn.Network
	times    map[ProfileKey]float64
}

// BuildProfileDB profiles every (layer, device, precision) combination
// for the given networks. If sparseExec is true the networks run the
// E2SF path with the given per-task input event densities (density of
// the event frames feeding each network's first layers) and each entry
// records the *faster* of the dense and sparse kernels — the tactic
// selection a TensorRT-style runtime performs, and what the streaming
// executor actually runs. Pass nil densities to profile fully dense.
func BuildProfileDB(m *Model, networks []*nn.Network, sparseExec bool, inputDensity []float64) (*ProfileDB, error) {
	if inputDensity != nil && len(inputDensity) != len(networks) {
		return nil, fmt.Errorf("perf: %d densities for %d networks", len(inputDensity), len(networks))
	}
	// One precision list per device and both tables at their final
	// size: a serving node builds a DB per session create and close.
	devices := m.Platform().Devices
	precs := make([][]nn.Precision, len(devices))
	configs, layers := 0, 0
	for i, dev := range devices {
		precs[i] = dev.Precisions()
		configs += len(precs[i])
	}
	for _, net := range networks {
		layers += len(net.Layers)
	}
	db := &ProfileDB{
		platform: m.Platform(),
		networks: networks,
		times:    make(map[ProfileKey]float64, layers*configs),
	}
	for ti, net := range networks {
		den := 1.0
		if inputDensity != nil {
			den = inputDensity[ti]
		}
		for li, l := range net.Layers {
			ref := LayerRef{Task: ti, Layer: li}
			d := den
			if len(net.Preds[li]) > 0 {
				d = producerDensity(net, li)
			}
			for i, dev := range devices {
				for _, p := range precs[i] {
					t, err := m.LayerTimeUS(l, dev, p, ExecOpts{})
					if err != nil {
						return nil, err
					}
					if sparseExec {
						sp, err := m.LayerTimeUS(l, dev, p, ExecOpts{
							Sparse:       true,
							InputDensity: d,
						})
						if err != nil {
							return nil, err
						}
						if sp < t {
							t = sp
						}
					}
					db.times[ProfileKey{Ref: ref, Device: dev.ID, Precision: p}] = t
				}
			}
		}
	}
	return db, nil
}

// TimeUS looks up a profiled time.
func (db *ProfileDB) TimeUS(ref LayerRef, deviceID int, p nn.Precision) (float64, bool) {
	t, ok := db.times[ProfileKey{Ref: ref, Device: deviceID, Precision: p}]
	return t, ok
}

// Networks returns the profiled workload.
func (db *ProfileDB) Networks() []*nn.Network { return db.networks }

// Platform returns the profiled platform.
func (db *ProfileDB) Platform() *hw.Platform { return db.platform }

// Len returns the number of profiled entries.
func (db *ProfileDB) Len() int { return len(db.times) }

// Row is one line of a profile dump.
type Row struct {
	Network   string
	Layer     string
	Device    string
	Precision nn.Precision
	TimeUS    float64
}

// Rows returns the full profile sorted by (task, layer, device,
// precision) for reporting (cmd/evprof).
func (db *ProfileDB) Rows() []Row {
	keys := make([]ProfileKey, 0, len(db.times))
	for k := range db.times {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Ref.Task != b.Ref.Task {
			return a.Ref.Task < b.Ref.Task
		}
		if a.Ref.Layer != b.Ref.Layer {
			return a.Ref.Layer < b.Ref.Layer
		}
		if a.Device != b.Device {
			return a.Device < b.Device
		}
		return a.Precision < b.Precision
	})
	out := make([]Row, 0, len(keys))
	for _, k := range keys {
		net := db.networks[k.Ref.Task]
		out = append(out, Row{
			Network:   net.Name,
			Layer:     net.Layers[k.Ref.Layer].Name,
			Device:    db.platform.Devices[k.Device].Name,
			Precision: k.Precision,
			TimeUS:    db.times[k],
		})
	}
	return out
}
