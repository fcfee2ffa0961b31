package scene

import (
	"math"
	"math/rand"
)

// Texture is a tileable procedural luminance image sampled bilinearly
// with wraparound, used as the static world the camera moves over.
type Texture struct {
	W, H int
	Data []float32
}

// NewTexture synthesizes a w x h texture as a sum of value-noise
// octaves; contrast in (0, 1] scales the luminance variation around
// 0.5. High-contrast textures produce dense event fields under motion.
func NewTexture(w, h int, contrast float64, seed int64) *Texture {
	rng := rand.New(rand.NewSource(seed))
	t := &Texture{W: w, H: h, Data: make([]float32, w*h)}
	// Base octaves: random grids upsampled bilinearly.
	octaves := []int{4, 8, 16, 32}
	weights := []float64{0.45, 0.3, 0.15, 0.1}
	for o, cells := range octaves {
		grid := make([]float64, (cells+1)*(cells+1))
		for i := range grid {
			grid[i] = rng.Float64()
		}
		for y := 0; y < h; y++ {
			gy := float64(y) / float64(h) * float64(cells)
			y0 := int(gy)
			fy := gy - float64(y0)
			for x := 0; x < w; x++ {
				gx := float64(x) / float64(w) * float64(cells)
				x0 := int(gx)
				fx := gx - float64(x0)
				v00 := grid[y0*(cells+1)+x0]
				v01 := grid[y0*(cells+1)+x0+1]
				v10 := grid[(y0+1)*(cells+1)+x0]
				v11 := grid[(y0+1)*(cells+1)+x0+1]
				v := v00*(1-fx)*(1-fy) + v01*fx*(1-fy) + v10*(1-fx)*fy + v11*fx*fy
				t.Data[y*w+x] += float32(v * weights[o])
			}
		}
	}
	// Normalize to mean 0.5 with the requested contrast.
	var mean float64
	for _, v := range t.Data {
		mean += float64(v)
	}
	mean /= float64(len(t.Data))
	for i, v := range t.Data {
		t.Data[i] = float32(0.5 + (float64(v)-mean)*contrast*2)
		if t.Data[i] < 0.02 {
			t.Data[i] = 0.02
		}
		if t.Data[i] > 1 {
			t.Data[i] = 1
		}
	}
	return t
}

// Sample returns the bilinear wraparound sample at (u, v) in pixels.
func (t *Texture) Sample(u, v float64) float32 {
	u, v = wrap(u, float64(t.W)), wrap(v, float64(t.H))
	x0, y0 := int(u), int(v)
	fx, fy := u-float64(x0), v-float64(y0)
	x1, y1 := x0+1, y0+1
	if x1 == t.W {
		x1 = 0
	}
	if y1 == t.H {
		y1 = 0
	}
	v00 := float64(t.Data[y0*t.W+x0])
	v01 := float64(t.Data[y0*t.W+x1])
	v10 := float64(t.Data[y1*t.W+x0])
	v11 := float64(t.Data[y1*t.W+x1])
	return float32(v00*(1-fx)*(1-fy) + v01*fx*(1-fy) + v10*(1-fx)*fy + v11*fx*fy)
}

// wrap returns x modulo n in [0, n): the remainder of math.Mod(x, n),
// plus n when negative. For |x| < 2n that remainder is x, x-n or x+n,
// each exact (Sterbenz), so only farther coordinates and NaN pay for
// math.Mod. A negative remainder so small that adding n rounds to n
// wraps to 0, not onto the texel past the row's end.
func wrap(x, n float64) float64 {
	switch {
	case !(x > -2*n && x < 2*n): // farther out, or NaN
		x = math.Mod(x, n)
	case x >= n:
		x -= n
	case x < -n:
		x += n
	}
	if x < 0 {
		if x += n; x == n {
			x = 0
		}
	}
	return x
}

// MotionSample is one instant of the ego-motion path.
type MotionSample struct {
	TX, TY float64 // translation in pixels
	Angle  float64 // rotation in radians
	Zoom   float64 // scale factor (1 = none)
}

// MotionPath yields the camera pose at a given time.
type MotionPath interface {
	At(tUS int64) MotionSample
}

// Burst is a high-activity segment of a motion profile: between T0 and
// T1 the base translational speed is multiplied by Gain (an aggressive
// maneuver in the IndoorFlying sequences, a passing car in OutdoorDay).
type Burst struct {
	T0, T1 int64
	Gain   float64
}

// SmoothPath is a sum-of-sinusoids ego-motion with optional bursts —
// enough to model hovering (small amplitudes), forward driving (large
// linear velocity) and aggressive flight (bursts).
type SmoothPath struct {
	VX, VY     float64 // linear velocity, pixels/second
	AmpX, AmpY float64 // oscillation amplitude, pixels
	FreqX      float64 // oscillation frequency, Hz
	FreqY      float64
	RotAmp     float64 // rotation amplitude, radians
	RotFreq    float64
	Bursts     []Burst
}

// At evaluates the pose. Bursts scale the linear-velocity contribution
// by integrating gain over elapsed burst time so position is continuous.
func (p *SmoothPath) At(tUS int64) MotionSample {
	t := float64(tUS) * 1e-6
	// Effective elapsed "motion time" accounting for bursts.
	mt := t
	for _, b := range p.Bursts {
		t0 := float64(b.T0) * 1e-6
		t1 := float64(b.T1) * 1e-6
		if t <= t0 {
			continue
		}
		end := math.Min(t, t1)
		mt += (end - t0) * (b.Gain - 1)
	}
	s := MotionSample{Zoom: 1}
	s.TX = p.VX*mt + p.AmpX*math.Sin(2*math.Pi*p.FreqX*t)
	s.TY = p.VY*mt + p.AmpY*math.Sin(2*math.Pi*p.FreqY*t)
	s.Angle = p.RotAmp * math.Sin(2*math.Pi*p.RotFreq*t)
	return s
}

// Blob is a moving Gaussian foreground object (a tracked drone, a
// pedestrian, the DOTIE high-speed target).
type Blob struct {
	CX, CY   float64 // initial center
	VX, VY   float64 // velocity, pixels/second
	OrbitR   float64 // optional circular orbit radius
	OrbitHz  float64 // orbit frequency
	Radius   float64 // Gaussian sigma
	Contrast float64 // luminance delta (may be negative = dark object)
}

func (b *Blob) center(tUS int64) (float64, float64) {
	t := float64(tUS) * 1e-6
	cx := b.CX + b.VX*t
	cy := b.CY + b.VY*t
	if b.OrbitR > 0 {
		cx += b.OrbitR * math.Cos(2*math.Pi*b.OrbitHz*t)
		cy += b.OrbitR * math.Sin(2*math.Pi*b.OrbitHz*t)
	}
	return cx, cy
}

// World is the composite renderer: a texture under ego-motion plus
// foreground blobs. It implements renderer.
type World struct {
	Texture *Texture
	Path    MotionPath
	Blobs   []Blob
	// TextureGain in [0,1] dims the background (lower gain = fewer
	// background events, isolating foreground objects).
	TextureGain float64
}

// renderRows fills dst with the scene luminance of sensor rows
// [y0, y1) at time t. Every pixel depends on its own coordinates
// alone, so a band renders exactly what the whole frame holds there.
func (wd *World) renderRows(dst []float32, w, h, y0, y1 int, tUS int64) {
	pose := MotionSample{Zoom: 1}
	if wd.Path != nil {
		pose = wd.Path.At(tUS)
	}
	gain := wd.TextureGain
	if gain == 0 {
		gain = 1
	}
	cx, cy := float64(w)/2, float64(h)/2
	cosA, sinA := math.Cos(pose.Angle), math.Sin(pose.Angle)
	zoom := pose.Zoom
	if zoom == 0 {
		zoom = 1
	}
	if wd.Texture != nil {
		for y := y0; y < y1; y++ {
			dy := (float64(y) - cy) * zoom
			row := dst[(y-y0)*w : (y-y0+1)*w]
			for x := range row {
				dx := (float64(x) - cx) * zoom
				u := cosA*dx + sinA*dy + cx + pose.TX
				v := -sinA*dx + cosA*dy + cy + pose.TY
				lum := float64(wd.Texture.Sample(u, v))
				row[x] = float32(0.5 + (lum-0.5)*gain)
			}
		}
	} else {
		for i := range dst {
			dst[i] = 0.5
		}
	}
	// Blobs composite additively within a 3-sigma bounding box.
	for i := range wd.Blobs {
		b := &wd.Blobs[i]
		bx, by := b.center(tUS)
		r := 3 * b.Radius
		bx0, bx1 := max(int(math.Floor(bx-r)), 0), min(int(math.Ceil(bx+r)), w-1)
		by0, by1 := max(int(math.Floor(by-r)), y0), min(int(math.Ceil(by+r)), y1-1)
		inv2s2 := 1 / (2 * b.Radius * b.Radius)
		for y := by0; y <= by1; y++ {
			dy := float64(y) - by
			row := dst[(y-y0)*w : (y-y0+1)*w]
			for x := bx0; x <= bx1; x++ {
				dx := float64(x) - bx
				g := math.Exp(-(dx*dx + dy*dy) * inv2s2)
				v := float64(row[x]) + b.Contrast*g
				if v < 0.02 {
					v = 0.02
				}
				if v > 1 {
					v = 1
				}
				row[x] = float32(v)
			}
		}
	}
}
