// Package scene is a procedural Dynamic Vision Sensor simulator. It
// substitutes for the DAVIS346 camera and the MVSEC / DENSE recordings
// used by the paper, which are not available offline.
//
// The simulator renders a procedural luminance field (a textured
// background under ego-motion plus moving foreground blobs), tracks
// per-pixel log-intensity memory, and emits an event whenever the log
// intensity change since the pixel's last event crosses the contrast
// threshold — the standard ESIM-style event camera model:
//
//	||log(I(t+1)) - log(I(t))|| >= theta  =>  event{x, y, t, p}
//
// Presets shaped after the paper's sequences (IndoorFlying1/2/3,
// OutdoorDay1, DENSE Town10) reproduce the spatio-temporal statistics
// Ev-Edge depends on: per-frame spatial density between ~0.1% and ~30%
// (paper Figs. 1 and 3) and strongly bursty temporal density (Fig. 5).
//
// A pixel's events depend on its own luminance and memory alone, so the
// camera splits the sensor rows into one band per core and steps each
// band through the whole interval on its own goroutine, while the
// calling goroutine draws the background noise. It then lays the
// events out as one serial pass over the frame would have appended
// them, so a stream is bit for bit the same at any core count and
// depends on the seed alone. The texture wraps a coordinate within two
// periods of it by one exact subtraction or addition instead of
// math.Mod, with the same result, and a tiny negative coordinate that
// rounds to the period itself wraps to 0.
//
// At the presets' densities almost no pixel crosses the threshold in a
// step, so the camera takes a log only where one can. Beside its log
// memory mem each pixel keeps a quiet interval of linear luminance,
// (exp(mem-theta)·(1+d), exp(mem+theta)·(1-d)) for a relative margin d
// of 1e-9, refreshed by one helper wherever mem is written: at the
// first frame and after a fire. A pixel whose luminance, raised to the
// floor, lies strictly inside is skipped. That is exact: exp, log and
// the subtraction are each within a few ulps of mem's magnitude
// (below 1e-13 for any float32 luminance), far inside d, so such a
// pixel's log change is strictly between -theta and theta and the
// log-every-pixel loop would skip it too. Every other pixel runs that
// loop's code, so the stream does not change.
//
// The render skips the texture the same way, one layer further up. A
// World keeps, for each texel cell (x0, y0), the least and greatest of
// its four texels (the neighbours wrapped as Texture.Sample wraps
// them), each shaded as the render shades a sample,
// float32(0.5 + (s-0.5)·gain), built once per texture and gain. At a
// pixel outside every blob's 3-sigma box whose two shaded bounds, each
// raised to the floor, lie strictly inside its quiet interval, the
// render writes the low bound and skips the bilinear sample. That is
// exact. The bilinear weights are products of numbers in [0, 1] and
// the texels are not negative (NewTexture's are at least 0.02), so the
// float64 blend lies within a relative 1e-15 of [least, greatest]
// texel, far below float32 spacing, and rounded to float32 it lies in
// [least, greatest]. Shading, its float32 rounding and the floor are
// each monotone, so the pixel's clamped luminance lies between the
// clamped shaded bounds, strictly inside the interval: the camera
// skips the pixel at its true luminance and at the low bound alike,
// so the stream does not change. A pixel inside a blob's box, and
// every pixel of the first frame, takes the full render.
package scene

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"evedge/internal/events"
)

// config sets the sensor model parameters.
type config struct {
	Width, Height int
	// Theta is the log-intensity contrast threshold; typical DVS
	// values are 0.1-0.3.
	Theta float64
	// RefractoryUS suppresses events from a pixel for this long after
	// it fires.
	RefractoryUS int64
	// NoiseHz is the per-pixel background-activity event rate.
	NoiseHz float64
	// StepUS is the simulation step; luminance is sampled at this
	// granularity and event timestamps interpolated inside the step.
	StepUS int64
	// MaxEventsPerStep bounds events emitted by one pixel in one step
	// (sensor readout saturation).
	MaxEventsPerStep int
	Seed             int64
}

// defaultConfig returns a DAVIS346-like sensor: 346 x 260, theta 0.18,
// 1 ms refractory, 0.05 Hz noise, 1 ms steps.
func defaultConfig() config {
	return config{
		Width: 346, Height: 260,
		Theta:            0.18,
		RefractoryUS:     300,
		NoiseHz:          0.05,
		StepUS:           1000,
		MaxEventsPerStep: 6,
		Seed:             1,
	}
}

// renderer produces the scene luminance (values in (0, 1]) at an
// absolute time, one band of sensor rows at a time.
type renderer interface {
	// renderRows fills dst (len w*(y1-y0), row-major) with the
	// luminance of rows [y0, y1) of a w x h sensor at time t. quiet,
	// nil or the band's quiet intervals, lets it write any value whose
	// clamped luminance lies strictly inside a pixel's interval in
	// place of the pixel's luminance, since the camera skips both
	// alike; ignoring quiet is always correct.
	renderRows(dst []float32, quiet []quietRange, w, h, y0, y1 int, tUS int64)
}

// camera simulates a DVS over a renderer.
type camera struct {
	cfg config
	r   renderer
	rng *rand.Rand

	mem         []float64    // per-pixel log intensity at last event
	quiet       []quietRange // per-pixel luminances that cannot fire, set with mem
	refrUntil   []int64      // per-pixel refractory end
	frame       []float32    // scratch luminance buffer
	initialized bool
}

// quietRange is the open interval of clamped linear luminance strictly
// inside which a pixel's log change since its last event stays below
// the threshold: a pixel there cannot fire, so the camera skips its log.
type quietRange struct{ lo, hi float64 }

// quietMargin is the relative margin d that shrinks a quiet interval
// inside (exp(mem-theta), exp(mem+theta)); the package doc gives the
// exactness argument.
const quietMargin = 1e-9

// newCamera validates the config and builds a camera over the renderer.
func newCamera(cfg config, r renderer) (*camera, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("scene: invalid sensor %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.Theta <= 0 {
		return nil, fmt.Errorf("scene: threshold must be positive, got %g", cfg.Theta)
	}
	if cfg.StepUS <= 0 {
		return nil, fmt.Errorf("scene: step must be positive, got %d", cfg.StepUS)
	}
	if cfg.MaxEventsPerStep <= 0 {
		cfg.MaxEventsPerStep = 4
	}
	n := cfg.Width * cfg.Height
	return &camera{
		cfg:       cfg,
		r:         r,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		mem:       make([]float64, n),
		quiet:     make([]quietRange, n),
		refrUntil: make([]int64, n),
		frame:     make([]float32, n),
	}, nil
}

const lumFloor = 1e-3 // avoid log(0) for dark pixels

// clampLum is the luminance the camera takes the log of: v, raised to
// lumFloor. It is max(v, lumFloor), NaN included, written as one
// compare: the max builtin's handling of signed zeros costs the render
// and the camera loop, which call it on every pixel.
func clampLum(v float32) float64 {
	if f := float64(v); !(f < lumFloor) {
		return f
	}
	return lumFloor
}

func logLum(v float32) float64 { return math.Log(clampLum(v)) }

// remember sets pixel i's log memory to m and its quiet interval to
// match, so the two never disagree.
func (c *camera) remember(i int, m float64) {
	c.mem[i] = m
	c.quiet[i] = quietRange{
		lo: math.Exp(m-c.cfg.Theta) * (1 + quietMargin),
		hi: math.Exp(m+c.cfg.Theta) * (1 - quietMargin),
	}
}

// Run simulates [t0, t1) and returns the sorted event stream, its
// sensor rows split into one band per core.
func (c *camera) Run(t0, t1 int64) (*events.Stream, error) {
	return c.run(t0, t1, min(runtime.GOMAXPROCS(0), c.cfg.Height))
}

// run simulates [t0, t1) over nb bands of rows (1 <= nb <= height).
// Each band steps through the interval on its own goroutine: a pixel
// never reads another pixel's state, so the bands are independent.
// The calling goroutine draws the background noise meanwhile, then
// appends each step's events band by band in row order and that
// step's noise last: the append order of one pass over the frame, so
// the stable sort returns the same stream for any nb.
func (c *camera) run(t0, t1 int64, nb int) (*events.Stream, error) {
	if t1 <= t0 {
		return nil, fmt.Errorf("scene: empty interval [%d, %d)", t0, t1)
	}
	var ends []int64 // the end of every step; step k spans [ends[k-1], ends[k])
	for t := t0; t < t1; {
		t = min(t+c.cfg.StepUS, t1)
		ends = append(ends, t)
	}
	h := c.cfg.Height
	bands := make([]stepEvents, nb)
	var wg sync.WaitGroup
	for b := range bands {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bands[b] = c.runRows(t0, ends, b*h/nb, (b+1)*h/nb)
		}()
	}
	noise := c.noise(t0, ends)
	wg.Wait()
	c.initialized = true

	total := len(noise.ev)
	for _, b := range bands {
		total += len(b.ev)
	}
	out := events.NewStream(c.cfg.Width, h)
	out.Events = make([]events.Event, 0, total)
	for k := range ends {
		for _, b := range bands {
			out.Events = append(out.Events, b.step(k)...)
		}
		out.Events = append(out.Events, noise.step(k)...)
	}
	out.Sort()
	return out, nil
}

// stepEvents holds the events of consecutive steps in one list; end[k]
// is where step k's events end.
type stepEvents struct {
	ev  []events.Event
	end []int
}

// endStep marks the end of the current step's events.
func (s *stepEvents) endStep() { s.end = append(s.end, len(s.ev)) }

// step returns the events of step k.
func (s *stepEvents) step(k int) []events.Event {
	lo := 0
	if k > 0 {
		lo = s.end[k-1]
	}
	return s.ev[lo:s.end[k]]
}

// runRows steps sensor rows [y0, y1) through the steps ending at ends,
// starting at t0.
func (c *camera) runRows(t0 int64, ends []int64, y0, y1 int) stepEvents {
	w := c.cfg.Width
	lo, hi := y0*w, y1*w
	frame, mem, quiet, refrUntil := c.frame[lo:hi], c.mem[lo:hi], c.quiet[lo:hi], c.refrUntil[lo:hi]
	// Initialize memory from the first frame so startup does not flood
	// events.
	if !c.initialized {
		c.r.renderRows(frame, nil, w, c.cfg.Height, y0, y1, t0)
		for i, v := range frame {
			c.remember(lo+i, logLum(v))
		}
	}
	out := stepEvents{end: make([]int, 0, len(ends))}
	prevT := t0
	for _, t := range ends {
		c.r.renderRows(frame, quiet, w, c.cfg.Height, y0, y1, t)
		dt := t - prevT
		for i, v := range frame {
			f := clampLum(v)
			if q := quiet[i]; f > q.lo && f < q.hi {
				continue
			}
			delta := math.Log(f) - mem[i]
			if delta < c.cfg.Theta && delta > -c.cfg.Theta {
				continue
			}
			if refrUntil[i] > t {
				continue
			}
			pol := events.On
			sign := 1.0
			if delta < 0 {
				pol = events.Off
				sign = -1.0
			}
			n := int(math.Abs(delta) / c.cfg.Theta)
			if n > c.cfg.MaxEventsPerStep {
				n = c.cfg.MaxEventsPerStep
			}
			x, y := uint16((lo+i)%w), uint16((lo+i)/w)
			for k := 1; k <= n; k++ {
				// Linear interpolation of the crossing time inside the step.
				frac := float64(k) / float64(n+1)
				ts := prevT + int64(frac*float64(dt))
				out.ev = append(out.ev, events.Event{X: x, Y: y, TS: ts, Pol: pol})
			}
			c.remember(lo+i, mem[i]+sign*float64(n)*c.cfg.Theta)
			refrUntil[i] = prevT + c.cfg.RefractoryUS
		}
		out.endStep()
		prevT = t
	}
	return out
}

// noise draws the background activity of the steps ending at ends,
// starting at t0: a global Poisson process thinned over pixels, from
// the camera's RNG.
func (c *camera) noise(t0 int64, ends []int64) stepEvents {
	w, h := c.cfg.Width, c.cfg.Height
	out := stepEvents{end: make([]int, 0, len(ends))}
	prevT := t0
	for _, t := range ends {
		dt := t - prevT
		if c.cfg.NoiseHz > 0 {
			lambda := c.cfg.NoiseHz * float64(w*h) * float64(dt) * 1e-6
			for nn := poisson(c.rng, lambda); nn > 0; nn-- {
				i := c.rng.Intn(w * h)
				pol := events.On
				if c.rng.Intn(2) == 0 {
					pol = events.Off
				}
				out.ev = append(out.ev, events.Event{
					X: uint16(i % w), Y: uint16(i / w),
					TS: prevT + c.rng.Int63n(dt), Pol: pol,
				})
			}
		}
		out.endStep()
		prevT = t
	}
	return out
}

// poisson draws from a Poisson distribution (Knuth for small lambda,
// normal approximation above 30).
func poisson(r *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// GenerateUniform returns a uniform Poisson event stream: rateHz events
// per second spread uniformly over the sensor — a cheap deterministic
// source for unit tests in other packages.
func GenerateUniform(w, h int, rateHz float64, durUS int64, seed int64) *events.Stream {
	rng := rand.New(rand.NewSource(seed))
	s := events.NewStream(w, h)
	n := int(rateHz * float64(durUS) * 1e-6)
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = rng.Int63n(durUS)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	for _, t := range ts {
		pol := events.On
		if rng.Intn(2) == 0 {
			pol = events.Off
		}
		s.Append(events.Event{
			X: uint16(rng.Intn(w)), Y: uint16(rng.Intn(h)), TS: t, Pol: pol,
		})
	}
	return s
}
