package scene

import (
	"math"
	"math/rand"
	"sync"
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
// A coordinate already in range takes wrap's fast path, so the render
// wraps once and samples the wrapped coordinates.
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

// shade maps a texture sample to scene luminance under a texture gain.
func shade(s float32, gain float64) float32 { return float32(0.5 + (float64(s)-0.5)*gain) }

// cellRange bounds the shaded samples of one texel cell.
type cellRange struct{ lo, hi float32 }

// shadeCells returns, for each texel cell (x0, y0) of t, the least and
// greatest shaded value of the four texels a sample inside it blends,
// the neighbours wrapped as Sample wraps them: at wrapped (u, v),
// shade(Sample(u, v), gain) lies in the range of cell (int(u), int(v))
// (package doc). The argument needs texels that are not negative, so
// a cell with a negative or NaN texel gets a NaN range, which the cull
// never takes.
func shadeCells(t *Texture, gain float64) []cellRange {
	cells := make([]cellRange, len(t.Data))
	for y0 := range t.H {
		y1 := (y0 + 1) % t.H
		for x0 := range t.W {
			x1 := (x0 + 1) % t.W
			a, b := t.Data[y0*t.W+x0], t.Data[y0*t.W+x1]
			c, d := t.Data[y1*t.W+x0], t.Data[y1*t.W+x1]
			if !(min(a, b, c, d) >= 0) {
				nan := float32(math.NaN())
				cells[y0*t.W+x0] = cellRange{nan, nan}
				continue
			}
			a, b, c, d = shade(a, gain), shade(b, gain), shade(c, gain), shade(d, gain)
			cells[y0*t.W+x0] = cellRange{min(a, b, c, d), max(a, b, c, d)}
		}
	}
	return cells
}

// wrap returns x modulo n in [0, n). A coordinate already in range is
// returned as is; any other goes to wrapFar.
func wrap(x, n float64) float64 {
	if x >= 0 && x < n {
		return x
	}
	return wrapFar(x, n)
}

// wrapFar is wrap outside [0, n): the remainder of math.Mod(x, n), plus
// n when negative. For |x| < 2n that remainder is x, x-n or x+n, each
// exact (Sterbenz), so only farther coordinates and NaN pay for
// math.Mod. A negative remainder so small that adding n rounds to n
// wraps to 0, not onto the texel past the row's end.
func wrapFar(x, n float64) float64 {
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
	// TextureGain in (0,1] dims the background (lower gain = fewer
	// background events, isolating foreground objects); 0, the unset
	// value, means 1.
	TextureGain float64

	// mu guards shaded, the render's cache of shadeCells for the
	// texture under the gain. Texture.Data must not change once it is
	// built.
	mu     sync.Mutex
	shaded *shadedTexture
}

// shadedTexture is the shaded cell ranges of one texture under one gain.
type shadedTexture struct {
	tex   *Texture
	gain  float64
	cells []cellRange
}

// shadedCells returns shadeCells(tex, gain) from wd's cache, building
// it on first use and whenever the texture or the gain changed. The
// bands of one camera call it at once; one of them builds it.
func (wd *World) shadedCells(tex *Texture, gain float64) []cellRange {
	wd.mu.Lock()
	defer wd.mu.Unlock()
	if st := wd.shaded; st == nil || st.tex != tex || math.Float64bits(st.gain) != math.Float64bits(gain) {
		wd.shaded = &shadedTexture{tex: tex, gain: gain, cells: shadeCells(tex, gain)}
	}
	return wd.shaded.cells
}

// blobBox is a blob's 3-sigma box within a band: columns x0..x1 and
// rows y0..y1 around the center (cx, cy).
type blobBox struct {
	b              *Blob
	cx, cy         float64
	x0, x1, y0, y1 int
}

// box returns b's box at time t within rows [y0, y1) of a w-wide sensor.
func (b *Blob) box(tUS int64, w, y0, y1 int) blobBox {
	bx, by := b.center(tUS)
	r := 3 * b.Radius
	return blobBox{
		b: b, cx: bx, cy: by,
		x0: max(int(math.Floor(bx-r)), 0), x1: min(int(math.Ceil(bx+r)), w-1),
		y0: max(int(math.Floor(by-r)), y0), y1: min(int(math.Ceil(by+r)), y1-1),
	}
}

// covered reports whether pixel (x, y) lies in one of the boxes, each
// of them non-empty.
func covered(boxes []blobBox, x, y int) bool {
	for i := range boxes {
		bb := &boxes[i]
		if uint(x-bb.x0) <= uint(bb.x1-bb.x0) && uint(y-bb.y0) <= uint(bb.y1-bb.y0) {
			return true
		}
	}
	return false
}

// renderRows fills dst with the scene luminance of sensor rows
// [y0, y1) at time t. Every pixel depends on its own coordinates
// alone, so a band renders exactly what the whole frame holds there.
// Given the band's quiet intervals, a pixel outside every blob's box
// whose shaded texel-cell bounds lie strictly inside its interval
// takes the low bound in place of the bilinear sample: the camera
// skips it either way (package doc). A nil quiet renders every pixel.
func (wd *World) renderRows(dst []float32, quiet []quietRange, w, h, y0, y1 int, tUS int64) {
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
	// The blobs' boxes that reach into the band; up to len(buf) of
	// them stay off the heap.
	var buf [8]blobBox
	boxes := buf[:0]
	for i := range wd.Blobs {
		if bb := wd.Blobs[i].box(tUS, w, y0, y1); bb.x0 <= bb.x1 && bb.y0 <= bb.y1 {
			boxes = append(boxes, bb)
		}
	}
	if tex := wd.Texture; tex != nil {
		var cells []cellRange
		if quiet != nil {
			cells = wd.shadedCells(tex, gain)
		}
		tw, th := float64(tex.W), float64(tex.H)
		for y := y0; y < y1; y++ {
			dy := (float64(y) - cy) * zoom
			sdy, cdy := sinA*dy, cosA*dy
			row := dst[(y-y0)*w : (y-y0+1)*w]
			var q []quietRange
			hx0, hx1 := w, -1 // the columns the boxes on this row span
			if quiet != nil {
				q = quiet[(y-y0)*w : (y-y0+1)*w]
				for _, bb := range boxes {
					if y >= bb.y0 && y <= bb.y1 {
						hx0, hx1 = min(hx0, bb.x0), max(hx1, bb.x1)
					}
				}
			}
			for x := range row {
				dx := (float64(x) - cx) * zoom
				u := wrap(cosA*dx+sdy+cx+pose.TX, tw)
				v := wrap(-sinA*dx+cdy+cy+pose.TY, th)
				if q != nil && !(x >= hx0 && x <= hx1 && covered(boxes, x, y)) {
					if c := cells[int(v)*tex.W+int(u)]; clampLum(c.lo) > q[x].lo && clampLum(c.hi) < q[x].hi {
						row[x] = c.lo
						continue
					}
				}
				row[x] = shade(tex.Sample(u, v), gain)
			}
		}
	} else {
		for i := range dst {
			dst[i] = 0.5
		}
	}
	// Blobs composite additively within their boxes.
	for _, bb := range boxes {
		b := bb.b
		inv2s2 := 1 / (2 * b.Radius * b.Radius)
		for y := bb.y0; y <= bb.y1; y++ {
			dy := float64(y) - bb.cy
			row := dst[(y-y0)*w : (y-y0+1)*w]
			for x := bb.x0; x <= bb.x1; x++ {
				dx := float64(x) - bb.cx
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
