package arm

import (
	"fmt"

	"esthera/internal/mat"
	"esthera/internal/model"
	"esthera/internal/rng"
)

// Config holds the arm model parameters. The defaults follow Table II of
// the paper; the noise magnitudes print illegibly in the available text
// (all as "N(0, 0.x)"), so the values below are the assumed magnitudes,
// recorded in EXPERIMENTS.md and chosen so that the qualitative behaviour
// of Figs. 6–9 reproduces (high-particle filters converge to the
// lemniscate, very small ones do not).
type Config struct {
	// Joints is the number of controllable angles including the base
	// rotation (Table II default: 5, giving state dimension 9).
	Joints int
	// ArmLength is the total arm length in meters (Table II: 1).
	ArmLength float64
	// Hs is the sampling time in seconds.
	Hs float64
	// SigmaThetaRate is the joint process noise in rad/s (applied as
	// SigmaThetaRate·Hs per step), Table II's w_θ.
	SigmaThetaRate float64
	// SigmaPos / SigmaVel are the object process noises per step (m, m/s).
	SigmaPos, SigmaVel float64
	// SigmaThetaMeas is the joint angle sensor noise (rad), Table II's ŵ_θ.
	SigmaThetaMeas float64
	// SigmaCam is the camera measurement noise (m), Table II's w_C.
	SigmaCam float64
	// InitMean is the prior mean state (length Joints+4); nil means zero
	// angles, object at (ArmLength, 0) at rest.
	InitMean []float64
	// InitSigmaTheta / InitSigmaPos / InitSigmaVel spread the prior.
	InitSigmaTheta, InitSigmaPos, InitSigmaVel float64
	// SinglePrecision rounds particle states and likelihood evaluations
	// through float32, emulating the paper's all-single-precision GPU
	// kernels (§VI: "we compared delivered estimates with those from our
	// double precision reference and found that it does not improve our
	// estimation accuracy by a meaningful amount"). Exposed as the
	// precision ablation.
	SinglePrecision bool
}

// DefaultConfig returns the Table II defaults (with the assumed noise
// magnitudes described above).
func DefaultConfig() Config {
	return Config{
		Joints:         5,
		ArmLength:      1,
		Hs:             0.05,
		SigmaThetaRate: 0.1,
		SigmaPos:       0.01,
		SigmaVel:       0.02,
		SigmaThetaMeas: 0.05,
		SigmaCam:       0.05,
		InitSigmaTheta: 0.2,
		InitSigmaPos:   0.3,
		InitSigmaVel:   0.1,
	}
}

// Model is the robotic-arm system. Create it with New.
type Model struct {
	cfg     Config
	linkLen float64
}

// New validates cfg (zero fields replaced by defaults) and returns the
// model.
func New(cfg Config) (*Model, error) {
	def := DefaultConfig()
	if cfg.Joints == 0 {
		cfg.Joints = def.Joints
	}
	if cfg.Joints < 1 {
		return nil, fmt.Errorf("arm: need at least 1 joint, got %d", cfg.Joints)
	}
	if cfg.ArmLength == 0 {
		cfg.ArmLength = def.ArmLength
	}
	if cfg.ArmLength <= 0 {
		return nil, fmt.Errorf("arm: non-positive arm length %v", cfg.ArmLength)
	}
	if cfg.Hs == 0 {
		cfg.Hs = def.Hs
	}
	if cfg.Hs <= 0 {
		return nil, fmt.Errorf("arm: non-positive sampling time %v", cfg.Hs)
	}
	for _, s := range []struct {
		name string
		dst  *float64
		def  float64
	}{
		{"SigmaThetaRate", &cfg.SigmaThetaRate, def.SigmaThetaRate},
		{"SigmaPos", &cfg.SigmaPos, def.SigmaPos},
		{"SigmaVel", &cfg.SigmaVel, def.SigmaVel},
		{"SigmaThetaMeas", &cfg.SigmaThetaMeas, def.SigmaThetaMeas},
		{"SigmaCam", &cfg.SigmaCam, def.SigmaCam},
		{"InitSigmaTheta", &cfg.InitSigmaTheta, def.InitSigmaTheta},
		{"InitSigmaPos", &cfg.InitSigmaPos, def.InitSigmaPos},
		{"InitSigmaVel", &cfg.InitSigmaVel, def.InitSigmaVel},
	} {
		if *s.dst == 0 {
			*s.dst = s.def
		}
		if !(*s.dst > 0) {
			return nil, fmt.Errorf("arm: negative or NaN %s %v", s.name, *s.dst)
		}
	}
	m := &Model{cfg: cfg}
	links := cfg.Joints - 1
	if links < 1 {
		links = 1
	}
	m.linkLen = cfg.ArmLength / float64(links)
	if cfg.InitMean != nil && len(cfg.InitMean) != m.StateDim() {
		return nil, fmt.Errorf("arm: InitMean length %d, want %d", len(cfg.InitMean), m.StateDim())
	}
	return m, nil
}

// Config returns the (default-filled) configuration.
func (m *Model) Config() Config { return m.cfg }

// LinkLen returns the per-link length.
func (m *Model) LinkLen() float64 { return m.linkLen }

// Name implements model.Model.
func (m *Model) Name() string { return fmt.Sprintf("arm-%dj", m.cfg.Joints) }

// StateDim implements model.Model: J angles + (x, y, vx, vy).
func (m *Model) StateDim() int { return m.cfg.Joints + 4 }

// MeasurementDim implements model.Model: camera (2) + J angle sensors.
func (m *Model) MeasurementDim() int { return m.cfg.Joints + 2 }

// ControlDim implements model.Model: one angular-rate command per joint.
func (m *Model) ControlDim() int { return m.cfg.Joints }

// initMean returns the prior mean (default: zero angles, object at
// (ArmLength, 0) at rest).
func (m *Model) initMean() []float64 {
	if m.cfg.InitMean != nil {
		return m.cfg.InitMean
	}
	mean := make([]float64, m.StateDim())
	mean[m.cfg.Joints] = m.cfg.ArmLength
	return mean
}

// InitParticle implements model.Model.
func (m *Model) InitParticle(x []float64, r *rng.Rand) {
	mean := m.initMean()
	j := m.cfg.Joints
	for i := 0; i < j; i++ {
		x[i] = mean[i] + r.Normal(0, m.cfg.InitSigmaTheta)
	}
	x[j] = mean[j] + r.Normal(0, m.cfg.InitSigmaPos)
	x[j+1] = mean[j+1] + r.Normal(0, m.cfg.InitSigmaPos)
	x[j+2] = mean[j+2] + r.Normal(0, m.cfg.InitSigmaVel)
	x[j+3] = mean[j+3] + r.Normal(0, m.cfg.InitSigmaVel)
}

// StepMean implements model.Linearizable: the deterministic part of the
// single-integrator joint dynamics and double-integrator object dynamics
// of §VII-A.
func (m *Model) StepMean(dst, src, u []float64, _ int) {
	j := m.cfg.Joints
	h := m.cfg.Hs
	for i := 0; i < j; i++ {
		ui := 0.0
		if i < len(u) {
			ui = u[i]
		}
		dst[i] = src[i] + h*ui
	}
	dst[j] = src[j] + h*src[j+2]
	dst[j+1] = src[j+1] + h*src[j+3]
	dst[j+2] = src[j+2]
	dst[j+3] = src[j+3]
}

// Step implements model.Model.
func (m *Model) Step(dst, src, u []float64, k int, r *rng.Rand) {
	m.StepMean(dst, src, u, k)
	j := m.cfg.Joints
	sTheta := m.cfg.SigmaThetaRate * m.cfg.Hs
	for i := 0; i < j; i++ {
		dst[i] += r.Normal(0, sTheta)
	}
	dst[j] += r.Normal(0, m.cfg.SigmaPos)
	dst[j+1] += r.Normal(0, m.cfg.SigmaPos)
	dst[j+2] += r.Normal(0, m.cfg.SigmaVel)
	dst[j+3] += r.Normal(0, m.cfg.SigmaVel)
	if m.cfg.SinglePrecision {
		for i := range dst {
			dst[i] = float64(float32(dst[i]))
		}
	}
}

// MeasureMean implements model.Linearizable: z = (h(x), θ) without noise.
func (m *Model) MeasureMean(z, x []float64) {
	j := m.cfg.Joints
	xC, yC := CameraProject(x[:j], m.linkLen, x[j], x[j+1])
	z[0], z[1] = xC, yC
	copy(z[2:], x[:j])
}

// Measure implements model.Model.
func (m *Model) Measure(z, x []float64, r *rng.Rand) {
	m.MeasureMean(z, x)
	z[0] += r.Normal(0, m.cfg.SigmaCam)
	z[1] += r.Normal(0, m.cfg.SigmaCam)
	for i := 2; i < len(z); i++ {
		z[i] += r.Normal(0, m.cfg.SigmaThetaMeas)
	}
}

// LogLikelihood implements model.Model: independent Gaussian channels for
// the camera components and each joint sensor.
func (m *Model) LogLikelihood(x, z []float64) float64 {
	j := m.cfg.Joints
	xC, yC := CameraProject(x[:j], m.linkLen, x[j], x[j+1])
	if m.cfg.SinglePrecision {
		xC = float64(float32(xC))
		yC = float64(float32(yC))
	}
	ll := model.LogNormPDF(z[0], xC, m.cfg.SigmaCam) +
		model.LogNormPDF(z[1], yC, m.cfg.SigmaCam)
	for i := 0; i < j; i++ {
		ll += model.LogNormPDF(z[2+i], x[i], m.cfg.SigmaThetaMeas)
	}
	if m.cfg.SinglePrecision {
		ll = float64(float32(ll))
	}
	return ll
}

// TrackedPosition implements model.Model: the tracked object's (x, y).
func (m *Model) TrackedPosition(x []float64) (float64, float64) {
	j := m.cfg.Joints
	return x[j], x[j+1]
}

// StepJacobian implements model.Linearizable (the dynamics are linear).
func (m *Model) StepJacobian(jac *mat.Matrix, _, _ []float64, _ int) {
	n := m.StateDim()
	j := m.cfg.Joints
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			jac.Set(a, b, 0)
		}
		jac.Set(a, a, 1)
	}
	jac.Set(j, j+2, m.cfg.Hs)
	jac.Set(j+1, j+3, m.cfg.Hs)
}

// MeasureJacobian implements model.Linearizable via central differences
// (the camera channel has no convenient closed-form Jacobian; the paper
// never needs one, but the EKF baseline does).
func (m *Model) MeasureJacobian(jac *mat.Matrix, x []float64) {
	model.NumericalJacobian(jac, m.MeasureMean, x)
}

// ProcessCov implements model.Linearizable.
func (m *Model) ProcessCov() *mat.Matrix {
	n := m.StateDim()
	j := m.cfg.Joints
	d := make([]float64, n)
	st := m.cfg.SigmaThetaRate * m.cfg.Hs
	for i := 0; i < j; i++ {
		d[i] = st * st
	}
	d[j] = m.cfg.SigmaPos * m.cfg.SigmaPos
	d[j+1] = d[j]
	d[j+2] = m.cfg.SigmaVel * m.cfg.SigmaVel
	d[j+3] = d[j+2]
	return mat.Diag(d)
}

// MeasureCov implements model.Linearizable.
func (m *Model) MeasureCov() *mat.Matrix {
	d := make([]float64, m.MeasurementDim())
	d[0] = m.cfg.SigmaCam * m.cfg.SigmaCam
	d[1] = d[0]
	for i := 2; i < len(d); i++ {
		d[i] = m.cfg.SigmaThetaMeas * m.cfg.SigmaThetaMeas
	}
	return mat.Diag(d)
}

var _ model.Linearizable = (*Model)(nil)
