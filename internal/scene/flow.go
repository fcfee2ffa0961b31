package scene

import "math"

// Ground-truth apparent motion. Because the world is procedural, the
// simulator knows the true optical flow at every pixel — what MVSEC
// provides via LiDAR/IMU post-processing. The flow evaluator
// (internal/flow) consumes these fields to compute the AEE metric the
// optical-flow networks report.

// FlowField is a dense per-pixel motion field in pixels per dtUS.
type FlowField struct {
	W, H int
	U, V []float32 // x- and y-displacement per pixel
}

// NewFlowField allocates a zero field.
func NewFlowField(w, h int) *FlowField {
	return &FlowField{W: w, H: h, U: make([]float32, w*h), V: make([]float32, w*h)}
}

// GroundTruthFlow computes the apparent motion of the world between
// tUS and tUS+dtUS for every pixel: the background moves with the
// inverse of the ego-motion warp, and pixels dominated by a foreground
// blob move with the blob. dtUS must be positive.
func (wd *World) GroundTruthFlow(w, h int, tUS, dtUS int64) *FlowField {
	f := NewFlowField(w, h)
	if dtUS <= 0 {
		return f
	}
	pose0 := MotionSample{Zoom: 1}
	pose1 := MotionSample{Zoom: 1}
	if wd.Path != nil {
		pose0 = wd.Path.At(tUS)
		pose1 = wd.Path.At(tUS + dtUS)
	}
	cx, cy := float64(w)/2, float64(h)/2
	// A scene point that projects to pixel p at time t projects at
	// time t+dt to the pixel whose *texture* coordinate matches:
	// warp(p, t) == warp(p', t+dt). Solve p' = warp^{-1}(warp(p, t), t+dt).
	cos0, sin0 := math.Cos(pose0.Angle), math.Sin(pose0.Angle)
	cos1, sin1 := math.Cos(pose1.Angle), math.Sin(pose1.Angle)
	z0, z1 := pose0.Zoom, pose1.Zoom
	if z0 == 0 {
		z0 = 1
	}
	if z1 == 0 {
		z1 = 1
	}
	for y := 0; y < h; y++ {
		dy := (float64(y) - cy) * z0
		for x := 0; x < w; x++ {
			dx := (float64(x) - cx) * z0
			// Texture coordinate under pose0.
			u := cos0*dx + sin0*dy + cx + pose0.TX
			v := -sin0*dx + cos0*dy + cy + pose0.TY
			// Invert pose1: first remove translation, then rotation/zoom.
			du := u - cx - pose1.TX
			dv := v - cy - pose1.TY
			ix := (cos1*du - sin1*dv) / z1
			iy := (sin1*du + cos1*dv) / z1
			f.U[y*w+x] = float32(ix + cx - float64(x))
			f.V[y*w+x] = float32(iy + cy - float64(y))
		}
	}
	// Foreground blobs override the background within 2 sigma.
	for i := range wd.Blobs {
		b := &wd.Blobs[i]
		bx0, by0 := b.center(tUS)
		bx1, by1 := b.center(tUS + dtUS)
		vx, vy := float32(bx1-bx0), float32(by1-by0)
		r := 2 * b.Radius
		x0, x1 := int(math.Floor(bx0-r)), int(math.Ceil(bx0+r))
		y0, y1 := int(math.Floor(by0-r)), int(math.Ceil(by0+r))
		if x0 < 0 {
			x0 = 0
		}
		if y0 < 0 {
			y0 = 0
		}
		if x1 > w-1 {
			x1 = w - 1
		}
		if y1 > h-1 {
			y1 = h - 1
		}
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				ddx, ddy := float64(x)-bx0, float64(y)-by0
				if ddx*ddx+ddy*ddy <= r*r {
					f.U[y*w+x] = vx
					f.V[y*w+x] = vy
				}
			}
		}
	}
	return f
}

// MeanMagnitude returns the average flow magnitude in pixels.
func (f *FlowField) MeanMagnitude() float64 {
	var s float64
	for i := range f.U {
		s += math.Hypot(float64(f.U[i]), float64(f.V[i]))
	}
	return s / float64(len(f.U))
}
