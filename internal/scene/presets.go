package scene

import (
	"fmt"

	"evedge/internal/events"
)

// Preset identifies one of the dataset-like synthetic sequences.
type Preset string

// Presets shaped after the paper's evaluation sequences.
const (
	// IndoorFlying1: gentle indoor drone flight (MVSEC). Sparse frames,
	// low-to-moderate density. Used by Fig. 1 (Adaptive-SpikeNet).
	IndoorFlying1 Preset = "indoorflying1"
	// IndoorFlying2: flight with two aggressive maneuvers producing the
	// strong temporal-density variance of the paper's Fig. 5.
	IndoorFlying2 Preset = "indoorflying2"
	// IndoorFlying3: slow hover, very sparse.
	IndoorFlying3 Preset = "indoorflying3"
	// OutdoorDay1: daytime driving (MVSEC), fast lateral texture motion,
	// densest frames.
	OutdoorDay1 Preset = "outdoorday1"
	// Town10: DENSE synthetic town sequence (depth estimation).
	Town10 Preset = "town10"
	// HighSpeedSpin: a single fast orbiting object on a dim background,
	// the DOTIE object-tracking workload.
	HighSpeedSpin Preset = "highspeedspin"
)

// AllPresets lists every named preset.
func AllPresets() []Preset {
	return []Preset{IndoorFlying1, IndoorFlying2, IndoorFlying3, OutdoorDay1, Town10, HighSpeedSpin}
}

// Sequence couples a camera and world ready to generate a stream.
type Sequence struct {
	cam *camera
}

// Generate runs the sequence for durUS microseconds starting at t=0.
func (s *Sequence) Generate(durUS int64) (*events.Stream, error) {
	return s.cam.Run(0, durUS)
}

// Scale selects the simulation resolution. Full is DAVIS346; Half is
// used by unit tests to keep them fast. Density statistics are nearly
// resolution-independent.
type Scale int

// Scale values.
const (
	Full Scale = iota
	Half
)

func dims(sc Scale) (int, int) {
	if sc == Half {
		return 173, 130
	}
	return 346, 260
}

// NewSequence builds a preset sequence at the given scale with a seed
// controlling all stochastic elements.
func NewSequence(p Preset, sc Scale, seed int64) (*Sequence, error) {
	w, h := dims(sc)
	cfg := defaultConfig()
	cfg.Width, cfg.Height = w, h
	cfg.Seed = seed
	var world *World
	switch p {
	case IndoorFlying1:
		world = &World{
			Texture: NewTexture(w, h, 0.55, seed+100),
			Path: &SmoothPath{
				VX: 18, VY: 6,
				AmpX: 8, AmpY: 5, FreqX: 0.4, FreqY: 0.3,
				RotAmp: 0.02, RotFreq: 0.25,
				// Moderate maneuvers; IndoorFlying2 is the aggressive
				// sequence.
				Bursts: []Burst{
					{T0: 700_000, T1: 850_000, Gain: 3},
					{T0: 1_300_000, T1: 1_480_000, Gain: 4},
				},
			},
			Blobs: []Blob{
				{CX: float64(w) * 0.3, CY: float64(h) * 0.4, VX: 12, VY: 4, Radius: 7, Contrast: -0.35},
			},
			TextureGain: 0.55,
		}
	case IndoorFlying2:
		world = &World{
			Texture: NewTexture(w, h, 0.6, seed+200),
			Path: &SmoothPath{
				VX: 14, VY: 8,
				AmpX: 10, AmpY: 6, FreqX: 0.5, FreqY: 0.35,
				RotAmp: 0.03, RotFreq: 0.3,
				// Several aggressive maneuvers -> the Fig. 5 bursts.
				Bursts: []Burst{
					{T0: 450_000, T1: 650_000, Gain: 4},
					{T0: 900_000, T1: 1_150_000, Gain: 6},
					{T0: 1_400_000, T1: 1_600_000, Gain: 5},
					{T0: 2_300_000, T1: 2_550_000, Gain: 6},
					{T0: 2_750_000, T1: 2_950_000, Gain: 4},
				},
			},
			Blobs: []Blob{
				{CX: float64(w) * 0.6, CY: float64(h) * 0.5, VX: -15, VY: 6, Radius: 8, Contrast: -0.3},
			},
			TextureGain: 0.6,
		}
	case IndoorFlying3:
		world = &World{
			Texture: NewTexture(w, h, 0.4, seed+300),
			Path: &SmoothPath{
				VX: 4, VY: 2,
				AmpX: 4, AmpY: 3, FreqX: 0.3, FreqY: 0.2,
			},
			TextureGain: 0.4,
		}
	case OutdoorDay1:
		world = &World{
			Texture: NewTexture(w, h, 0.8, seed+400),
			Path: &SmoothPath{
				VX: 160, VY: 4, // fast forward driving
				AmpX: 3, AmpY: 6, FreqX: 1.2, FreqY: 0.8,
				RotAmp: 0.01, RotFreq: 0.5,
				// A fast turn mid-sequence.
				Bursts: []Burst{{T0: 1_000_000, T1: 1_350_000, Gain: 3}},
			},
			Blobs: []Blob{
				{CX: float64(w) * 0.8, CY: float64(h) * 0.55, VX: -90, VY: 0, Radius: 10, Contrast: -0.4},
				{CX: float64(w) * 0.1, CY: float64(h) * 0.6, VX: 70, VY: -2, Radius: 9, Contrast: 0.35},
			},
			TextureGain: 0.85,
		}
	case Town10:
		world = &World{
			Texture: NewTexture(w, h, 0.65, seed+500),
			Path: &SmoothPath{
				VX: 55, VY: 2,
				AmpX: 5, AmpY: 4, FreqX: 0.6, FreqY: 0.4,
				RotAmp: 0.015, RotFreq: 0.35,
				Bursts: []Burst{{T0: 1_400_000, T1: 1_700_000, Gain: 3}},
			},
			Blobs: []Blob{
				{CX: float64(w) * 0.5, CY: float64(h) * 0.5, VX: -30, VY: 3, Radius: 8, Contrast: -0.3},
			},
			TextureGain: 0.7,
		}
	case HighSpeedSpin:
		world = &World{
			Texture: NewTexture(w, h, 0.2, seed+600),
			Path:    &SmoothPath{}, // static camera
			Blobs: []Blob{
				{
					CX: float64(w) / 2, CY: float64(h) / 2,
					OrbitR: float64(h) * 0.3, OrbitHz: 6,
					Radius: 6, Contrast: 0.45,
				},
			},
			TextureGain: 0.15,
		}
	default:
		return nil, fmt.Errorf("scene: unknown preset %q", p)
	}
	cam, err := newCamera(cfg, world)
	if err != nil {
		return nil, err
	}
	return &Sequence{cam: cam}, nil
}

// DatasetOf maps a preset to the dataset it stands in for.
func DatasetOf(p Preset) string {
	switch p {
	case Town10:
		return "DENSE"
	default:
		return "MVSEC"
	}
}
