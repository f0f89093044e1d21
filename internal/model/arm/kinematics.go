// Package arm implements the paper's robotic-arm tracking application
// (§VII-A): an industrial arm with N independently controlled joints —
// one rotational degree of freedom at the base plus planar pitch joints —
// carrying a camera at the end-effector that observes an object moving on
// a fixed x–y plane. Joint angle sensors and the camera provide the
// measurement vector; the camera equation is the "highly non-linear
// rotation-translation function" h(x) that motivates particle filtering.
//
// State:        x = (θ₀, …, θ_{J-1}, x, y, vx, vy), dimension J+4
// Measurement:  z = (x_C, y_C, θ̂₀, …, θ̂_{J-1}),    dimension J+2
//
// With the paper's default of 5 joints the state dimension is 9, matching
// Table II.
package arm

import "math"

// Vec3 is a 3-D vector.
type Vec3 [3]float64

// Sub returns v - o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v[0] - o[0], v[1] - o[1], v[2] - o[2]} }

// Dot returns the dot product.
func (v Vec3) Dot(o Vec3) float64 { return v[0]*o[0] + v[1]*o[1] + v[2]*o[2] }

// CameraPose computes the camera (end-effector) world position and
// orientation from the joint angles via the forward-kinematic chain:
// theta[0] is the base yaw about the world z-axis; theta[1:] are pitch
// joints in the arm's vertical plane, each followed by a link of length
// linkLen. The camera frame is returned as three orthonormal world-space
// axes: xc along the final link direction, yc the in-plane "up", zc the
// lateral axis.
//
// Each angle costs one math.Sincos, whose results are bit-identical to
// separate math.Sin and math.Cos calls for every non-NaN input; only the
// NaN payload can differ (Sin returns a NaN input as is, Sincos returns
// the canonical NaN).
func CameraPose(theta []float64, linkLen float64) (pos Vec3, xc, yc, zc Vec3) {
	sy, cy := math.Sincos(theta[0])
	// Accumulate the chain in the vertical plane (radial r, height z).
	// (sp, cp) ends as the final pitch's sine and cosine, which orient
	// the camera; it starts at pitch 0 for the single-joint stub.
	r, z := 0.0, 0.0
	pitch, sp, cp := 0.0, 0.0, 1.0
	for _, t := range theta[1:] {
		pitch += t
		sp, cp = math.Sincos(pitch)
		r += linkLen * cp
		z += linkLen * sp
	}
	if len(theta) == 1 {
		// Degenerate single-joint arm: a stub of one link pointing
		// horizontally, so the camera still has a well-defined pose.
		r = linkLen
	}
	pos = Vec3{r * cy, r * sy, z}
	xc = Vec3{cp * cy, cp * sy, sp}
	yc = Vec3{-sp * cy, -sp * sy, cp}
	zc = Vec3{sy, -cy, 0}
	return pos, xc, yc, zc
}

// CameraProject returns the tracked object's position in the camera
// frame: the object sits at world (ox, oy, 0) and the returned (xC, yC)
// are the components of the camera-relative vector along the camera's
// forward (xc) and lateral (zc) axes — the two directions that span the
// observed plane, i.e. the image coordinates of an end-effector camera
// looking down at the working plane (its optical axis is yc). This is
// the paper's measurement function h(x) of Eq. (1): a pure
// rotation-translation of the object position into the camera's moving
// frame. Observability of the plane degrades only when the cumulative
// pitch approaches ±90° (the camera edge-on to the plane).
func CameraProject(theta []float64, linkLen, ox, oy float64) (xC, yC float64) {
	pos, xc, _, zc := CameraPose(theta, linkLen)
	v := Vec3{ox, oy, 0}.Sub(pos)
	return v.Dot(xc), v.Dot(zc)
}
