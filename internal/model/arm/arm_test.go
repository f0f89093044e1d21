package arm

import (
	"math"
	"testing"

	"esthera/internal/mat"
	"esthera/internal/model"
	"esthera/internal/rng"
)

func defaultModel(t *testing.T) *Model {
	t.Helper()
	m, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestDefaultDimensionsMatchTableII(t *testing.T) {
	m := defaultModel(t)
	if m.StateDim() != 9 {
		t.Fatalf("state dim = %d, want 9 (Table II)", m.StateDim())
	}
	if m.Config().Joints != 5 {
		t.Fatalf("joints = %d, want 5", m.Config().Joints)
	}
	if m.MeasurementDim() != 7 {
		t.Fatalf("measurement dim = %d, want 7 (camera 2 + 5 sensors)", m.MeasurementDim())
	}
	if m.ControlDim() != 5 {
		t.Fatalf("control dim = %d, want 5", m.ControlDim())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Joints: -1}); err == nil {
		t.Fatal("negative joints must error")
	}
	if _, err := New(Config{ArmLength: -1}); err == nil {
		t.Fatal("negative arm length must error")
	}
	if _, err := New(Config{Hs: -0.1}); err == nil {
		t.Fatal("negative sampling time must error")
	}
	if _, err := New(Config{InitMean: make([]float64, 3)}); err == nil {
		t.Fatal("wrong InitMean length must error")
	}
	// A negative or NaN noise sigma would make every log-likelihood NaN.
	for _, v := range []float64{-0.05, math.Inf(-1), math.NaN(), 0.5} {
		for _, cfg := range []Config{
			{SigmaThetaRate: v}, {SigmaPos: v}, {SigmaVel: v}, {SigmaThetaMeas: v},
			{SigmaCam: v}, {InitSigmaTheta: v}, {InitSigmaPos: v}, {InitSigmaVel: v},
		} {
			if _, err := New(cfg); (err != nil) != !(v > 0) {
				t.Errorf("New(%+v): err = %v", cfg, err)
			}
		}
	}
}

// cameraPoseRef is CameraPose as formulated before it switched to
// math.Sincos: separate Cos and Sin calls for the yaw, each cumulative
// pitch, and again for the final pitch's camera axes.
func cameraPoseRef(theta []float64, linkLen float64) (pos Vec3, xc, yc, zc Vec3) {
	yaw := theta[0]
	cy, sy := math.Cos(yaw), math.Sin(yaw)
	r, z := 0.0, 0.0
	pitch := 0.0
	for _, t := range theta[1:] {
		pitch += t
		r += linkLen * math.Cos(pitch)
		z += linkLen * math.Sin(pitch)
	}
	if len(theta) == 1 {
		r = linkLen
	}
	pos = Vec3{r * cy, r * sy, z}
	cp, sp := math.Cos(pitch), math.Sin(pitch)
	xc = Vec3{cp * cy, cp * sy, sp}
	yc = Vec3{-sp * cy, -sp * sy, cp}
	zc = Vec3{sy, -cy, 0}
	return pos, xc, yc, zc
}

// TestCameraPoseMatchesRef pins CameraPose bit for bit to cameraPoseRef
// for J = 1…8, with angles uniform in ±4π and about one in a hundred near
// 1e9, where Sin/Cos switch to Payne–Hanek argument reduction.
func TestCameraPoseMatchesRef(t *testing.T) {
	const vectors = 100000
	r := rng.New(rng.NewPhilox(3))
	for nj := 1; nj <= 8; nj++ {
		theta := make([]float64, nj)
		for trial := 0; trial < vectors; trial++ {
			for i := range theta {
				theta[i] = (r.Float64() - 0.5) * 8 * math.Pi
				if r.Intn(100) == 0 {
					theta[i] += 1e9
				}
			}
			gp, gx, gy, gz := CameraPose(theta, 0.25)
			wp, wx, wy, wz := cameraPoseRef(theta, 0.25)
			got, want := [4]Vec3{gp, gx, gy, gz}, [4]Vec3{wp, wx, wy, wz}
			for v := range got {
				for c := range got[v] {
					if math.Float64bits(got[v][c]) != math.Float64bits(want[v][c]) {
						t.Fatalf("J=%d theta=%v: output %d component %d = %v, ref %v",
							nj, theta, v, c, got[v][c], want[v][c])
					}
				}
			}
		}
	}
}

func TestCameraPoseOrthonormal(t *testing.T) {
	r := rng.New(rng.NewPhilox(1))
	for trial := 0; trial < 200; trial++ {
		nj := 1 + r.Intn(8)
		theta := make([]float64, nj)
		for i := range theta {
			theta[i] = (r.Float64() - 0.5) * 2 * math.Pi
		}
		_, xc, yc, zc := CameraPose(theta, 0.25)
		checkUnit := func(v Vec3, name string) {
			if math.Abs(v.Dot(v)-1) > 1e-9 {
				t.Fatalf("trial %d: %s not unit: %v", trial, name, v)
			}
		}
		checkUnit(xc, "xc")
		checkUnit(yc, "yc")
		checkUnit(zc, "zc")
		if math.Abs(xc.Dot(yc)) > 1e-9 || math.Abs(xc.Dot(zc)) > 1e-9 || math.Abs(yc.Dot(zc)) > 1e-9 {
			t.Fatalf("trial %d: camera axes not orthogonal", trial)
		}
	}
}

func TestCameraPoseStraightArm(t *testing.T) {
	// All angles zero: arm stretched along +x, camera at (L, 0, 0),
	// looking along +x.
	theta := make([]float64, 5)
	pos, xc, _, _ := CameraPose(theta, 0.25)
	if math.Abs(pos[0]-1.0) > 1e-12 || math.Abs(pos[1]) > 1e-12 || math.Abs(pos[2]) > 1e-12 {
		t.Fatalf("straight-arm camera at %v, want (1,0,0)", pos)
	}
	if math.Abs(xc[0]-1) > 1e-12 {
		t.Fatalf("straight-arm view direction %v, want +x", xc)
	}
}

func TestCameraPoseBaseRotation(t *testing.T) {
	// Base rotated 90°: camera moves to +y.
	theta := make([]float64, 5)
	theta[0] = math.Pi / 2
	pos, _, _, _ := CameraPose(theta, 0.25)
	if math.Abs(pos[0]) > 1e-9 || math.Abs(pos[1]-1.0) > 1e-9 {
		t.Fatalf("rotated-base camera at %v, want (0,1,0)", pos)
	}
}

func TestCameraPoseVerticalFold(t *testing.T) {
	// First pitch joint at 90°: the whole arm points up.
	theta := make([]float64, 3)
	theta[1] = math.Pi / 2
	pos, xc, _, _ := CameraPose(theta, 0.5)
	if math.Abs(pos[2]-1.0) > 1e-9 || math.Abs(pos[0]) > 1e-9 {
		t.Fatalf("vertical arm camera at %v, want (0,0,1)", pos)
	}
	if math.Abs(xc[2]-1) > 1e-9 {
		t.Fatalf("vertical arm view %v, want +z", xc)
	}
}

func TestCameraProjectIsRigid(t *testing.T) {
	// Distances are preserved: |h(x; p1) - h(x; p2)| <= |p1 - p2| with
	// equality when both objects are in the camera's x-y plane... but in
	// general projection loses the lateral (zc) component, so the camera-
	// frame distance never exceeds the world distance.
	r := rng.New(rng.NewPhilox(3))
	theta := make([]float64, 5)
	for trial := 0; trial < 100; trial++ {
		for i := range theta {
			theta[i] = (r.Float64() - 0.5) * 3
		}
		ox1, oy1 := r.Float64()*2-1, r.Float64()*2-1
		ox2, oy2 := r.Float64()*2-1, r.Float64()*2-1
		x1, y1 := CameraProject(theta, 0.25, ox1, oy1)
		x2, y2 := CameraProject(theta, 0.25, ox2, oy2)
		dCam := math.Hypot(x2-x1, y2-y1)
		dWorld := math.Hypot(ox2-ox1, oy2-oy1)
		if dCam > dWorld+1e-9 {
			t.Fatalf("trial %d: camera-frame distance %v exceeds world distance %v", trial, dCam, dWorld)
		}
	}
}

func TestModelContract(t *testing.T) {
	m := defaultModel(t)
	r := rng.New(rng.NewPhilox(4))
	x := make([]float64, m.StateDim())
	m.InitParticle(x, r)
	u := make([]float64, m.ControlDim())
	dst := make([]float64, m.StateDim())
	m.Step(dst, x, u, 1, r)
	z := make([]float64, m.MeasurementDim())
	m.Measure(z, dst, r)
	ll := m.LogLikelihood(dst, z)
	if math.IsNaN(ll) || math.IsInf(ll, 1) {
		t.Fatalf("log-likelihood = %v", ll)
	}
	// The generating state should beat a translated one.
	off := append([]float64(nil), dst...)
	off[m.Config().Joints] += 3
	if m.LogLikelihood(off, z) >= ll {
		t.Fatal("offset state at least as likely as generating state")
	}
	px, py := m.TrackedPosition(dst)
	if px != dst[5] || py != dst[6] {
		t.Fatalf("TrackedPosition = (%v,%v), want state[5:7]", px, py)
	}
}

func TestStepMeanDeterministicPart(t *testing.T) {
	m := defaultModel(t)
	src := make([]float64, m.StateDim())
	src[5] = 0.3  // x
	src[7] = 1.0  // vx
	src[8] = -2.0 // vy
	u := []float64{1, 0, 0, 0, 0}
	dst := make([]float64, m.StateDim())
	m.StepMean(dst, src, u, 0)
	h := m.Config().Hs
	if math.Abs(dst[0]-h) > 1e-12 {
		t.Fatalf("joint 0 = %v, want %v", dst[0], h)
	}
	if math.Abs(dst[5]-(0.3+h*1.0)) > 1e-12 {
		t.Fatalf("x = %v, want %v", dst[5], 0.3+h)
	}
	if math.Abs(dst[6]-(-2.0*h)) > 1e-12 {
		t.Fatalf("y = %v, want %v", dst[6], -2*h)
	}
	if dst[7] != 1.0 || dst[8] != -2.0 {
		t.Fatal("velocities must be preserved by the mean dynamics")
	}
}

func TestJacobiansConsistent(t *testing.T) {
	m := defaultModel(t)
	r := rng.New(rng.NewPhilox(6))
	x := make([]float64, m.StateDim())
	m.InitParticle(x, r)
	u := make([]float64, m.ControlDim())

	jac := mat.NewMatrix(m.StateDim(), m.StateDim())
	m.StepJacobian(jac, x, u, 0)
	num := mat.NewMatrix(m.StateDim(), m.StateDim())
	model.NumericalJacobian(num, func(dst, xx []float64) { m.StepMean(dst, xx, u, 0) }, x)
	for i := range jac.Data {
		if math.Abs(jac.Data[i]-num.Data[i]) > 1e-5 {
			t.Fatalf("step jacobian[%d]: %v vs numeric %v", i, jac.Data[i], num.Data[i])
		}
	}

	mj := mat.NewMatrix(m.MeasurementDim(), m.StateDim())
	m.MeasureJacobian(mj, x)
	// Angle-sensor rows are exact: ∂θ̂_i/∂θ_i = 1.
	for i := 0; i < m.Config().Joints; i++ {
		if math.Abs(mj.At(2+i, i)-1) > 1e-5 {
			t.Fatalf("sensor jacobian (%d,%d) = %v, want 1", 2+i, i, mj.At(2+i, i))
		}
	}
}

func TestCovariancesSPD(t *testing.T) {
	m := defaultModel(t)
	if _, err := m.ProcessCov().Cholesky(); err != nil {
		t.Fatalf("process covariance not SPD: %v", err)
	}
	if _, err := m.MeasureCov().Cholesky(); err != nil {
		t.Fatalf("measurement covariance not SPD: %v", err)
	}
}

func TestLemniscateGeometry(t *testing.T) {
	l := DefaultLemniscate()
	// s=0: rightmost point (A, 0).
	x, y := l.At(0)
	if math.Abs(x-l.A) > 1e-12 || math.Abs(y) > 1e-12 {
		t.Fatalf("lemniscate start (%v,%v), want (%v,0)", x, y, l.A)
	}
	// "Heading up from the right side": y increases just after s=0.
	_, y2 := l.At(0.05)
	if y2 <= 0 {
		t.Fatalf("path heads down from the start: y(0.05) = %v", y2)
	}
	// Closed curve: period 2π.
	x3, y3 := l.At(2 * math.Pi)
	if math.Abs(x3-x) > 1e-9 || math.Abs(y3-y) > 1e-9 {
		t.Fatal("lemniscate not closed")
	}
	// Symmetric figure: the center is crossed.
	xm, ym := l.At(math.Pi / 2)
	if math.Abs(xm) > 1e-9 || math.Abs(ym) > 1e-9 {
		t.Fatalf("center crossing at (%v,%v), want (0,0)", xm, ym)
	}
	// Pos() wraps the parameterization.
	px, py := l.Pos(l.Period)
	if math.Abs(px-x) > 1e-9 || math.Abs(py-y) > 1e-9 {
		t.Fatal("Pos(Period) != Pos(0)")
	}
}

func TestLemniscateVelocityConsistent(t *testing.T) {
	l := DefaultLemniscate()
	hs := 0.05
	// The analytic velocity must match the finite difference of Pos.
	for _, k := range []int{0, 17, 50, 133} {
		vx, vy := l.Vel(k, hs)
		x1, y1 := l.Pos(k - 1)
		x2, y2 := l.Pos(k + 1)
		fdx := (x2 - x1) / (2 * hs)
		fdy := (y2 - y1) / (2 * hs)
		if math.Abs(vx-fdx) > 0.05*(1+math.Abs(fdx)) || math.Abs(vy-fdy) > 0.05*(1+math.Abs(fdy)) {
			t.Fatalf("k=%d: velocity (%v,%v) vs finite diff (%v,%v)", k, vx, vy, fdx, fdy)
		}
	}
}

func TestScenarioTruth(t *testing.T) {
	m, sc, err := NewScenario(Config{}, DefaultLemniscate())
	if err != nil {
		t.Fatal(err)
	}
	if sc.Model() != model.Model(m) {
		t.Fatal("scenario model mismatch")
	}
	x := make([]float64, m.StateDim())
	sc.TrueState(0, x)
	// Object starts at the lemniscate start, joints at zero.
	if math.Abs(x[5]-0.6) > 1e-9 || math.Abs(x[6]) > 1e-9 {
		t.Fatalf("truth object at (%v,%v), want (0.6,0)", x[5], x[6])
	}
	for i := 0; i < 5; i++ {
		if x[i] != 0 {
			t.Fatalf("truth joint %d = %v at k=0, want 0", i, x[i])
		}
	}
	// Angles follow the integrated control: check against explicit
	// numerical integration.
	u := make([]float64, m.ControlDim())
	angles := make([]float64, m.ControlDim())
	for k := 1; k <= 40; k++ {
		sc.Control(k, u)
		for i := range angles {
			angles[i] += m.Config().Hs * u[i]
		}
	}
	sc.TrueState(40, x)
	for i := range angles {
		if math.Abs(x[i]-angles[i]) > 1e-9 {
			t.Fatalf("closed-form angle %d = %v, numeric %v", i, x[i], angles[i])
		}
	}
	// Prior is offset from truth (object guessed at the center).
	mean := m.Config().InitMean
	if mean == nil || mean[5] != 0 || mean[6] != 0 {
		t.Fatalf("scenario prior mean = %v, want object at center", mean)
	}
}

func TestLikelihoodPeaksNearTruth(t *testing.T) {
	// Sanity for the whole measurement pipeline: among candidate object
	// positions, the true one has the highest likelihood on average.
	m, sc, err := NewScenario(Config{}, DefaultLemniscate())
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(rng.NewPhilox(10))
	truth := make([]float64, m.StateDim())
	z := make([]float64, m.MeasurementDim())
	wins := 0
	const trials = 200
	for trial := 0; trial < trials; trial++ {
		sc.TrueState(trial%100, truth)
		m.Measure(z, truth, r)
		llTrue := m.LogLikelihood(truth, z)
		cand := append([]float64(nil), truth...)
		cand[5] += 0.4
		cand[6] -= 0.4
		if llTrue > m.LogLikelihood(cand, z) {
			wins++
		}
	}
	if wins < trials*3/4 {
		t.Fatalf("truth beat a 0.57m-offset candidate only %d/%d times", wins, trials)
	}
}
