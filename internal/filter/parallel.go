package filter

import (
	"fmt"

	"esthera/internal/device"
	"esthera/internal/exchange"
	"esthera/internal/kernels"
	"esthera/internal/model"
	"esthera/internal/resample"
)

// Parallel is the many-core distributed particle filter — the paper's
// contribution (Algorithm 2) — running on the device substrate with one
// work-group per sub-filter and the six kernels of §VI (see
// internal/kernels). It is the toolkit's only implementation of the
// algorithm: the public API, serving, sharding and every experiment run
// it.
type Parallel struct {
	p    *kernels.Pipeline
	dim  int
	k    int
	seed uint64
	// adapt is the resolved ESS-driven allocator config (Every == 0 when
	// disabled); essScratch is its reused SubESSFrac buffer.
	adapt      AdaptConfig
	essScratch []float64
}

// ParallelConfig collects the distributed-filter parameters of Table I
// plus the algorithmic choices of §IV, mapped onto the kernel pipeline.
type ParallelConfig struct {
	// SubFilters (N), ParticlesPer (m), Scheme (X), ExchangeCount (t):
	// the Table I parameters.
	SubFilters    int
	ParticlesPer  int
	Scheme        exchange.Scheme
	ExchangeCount int
	// Resampler selects the resampling kernel (default RWS, the faster
	// choice at sub-filter sizes per Fig. 5).
	Resampler kernels.Algo
	// Policy defaults to Always.
	Policy resample.Policy
	// Streams selects "philox" (default) or "mtgp" sub-filter streams.
	Streams string
	// Estimator selects the global-estimate reduction (default
	// MaxWeight; WeightedMean uses the weighted-average kernel).
	Estimator Estimator
	// Adapt enables ESS-driven adaptive particle allocation when
	// Adapt.Every > 0: every k rounds the per-sub-filter windows are
	// re-divided by degeneracy (see AdaptConfig).
	Adapt AdaptConfig
}

// NewParallel builds the filter on dev.
func NewParallel(dev *device.Device, m model.Model, cfg ParallelConfig, seed uint64) (*Parallel, error) {
	scheme := cfg.Scheme
	if cfg.ExchangeCount == 0 {
		scheme = exchange.None
	}
	top, err := exchange.NewTopology(scheme, cfg.SubFilters)
	if err != nil {
		return nil, err
	}
	pipe, err := kernels.New(dev, m, kernels.Config{
		SubFilters:    cfg.SubFilters,
		ParticlesPer:  cfg.ParticlesPer,
		ExchangeCount: cfg.ExchangeCount,
		Topology:      top,
		Resampler:     cfg.Resampler,
		Policy:        cfg.Policy,
		Streams:       cfg.Streams,
		MeanEstimate:  cfg.Estimator == WeightedMean,
	}, seed)
	if err != nil {
		return nil, err
	}
	f := &Parallel{p: pipe, dim: m.StateDim(), seed: seed}
	if cfg.Adapt.Every > 0 {
		f.adapt = cfg.Adapt.withDefaults(cfg.ParticlesPer, pipe.MinWindowFloor())
	}
	return f, nil
}

// Name implements Filter.
func (f *Parallel) Name() string { return "parallel" }

// Reset implements Filter.
func (f *Parallel) Reset(seed uint64) {
	f.seed = seed
	f.k = 0
	f.p.Reset(seed)
}

// Step implements Filter. It drives the fused round (kernels.Pipeline.
// RoundFused): bit-identical to the unfused kernel-per-launch sequence,
// but with the group-local phases collapsed into one launch.
func (f *Parallel) Step(u, z []float64) Estimate {
	f.k++
	state, lw := f.p.RoundFused(u, z, f.k)
	f.maybeAdapt()
	// The pipeline reuses its estimate buffer; the Estimate escapes to
	// the caller, so copy.
	return Estimate{State: append([]float64(nil), state...), LogWeight: lw}
}

// Pipeline exposes the kernel pipeline (for the profiler-driven
// breakdown experiments and the serve layer's batch scheduler).
func (f *Parallel) Pipeline() *kernels.Pipeline { return f.p }

// StepIndex returns the number of rounds stepped since the last Reset.
func (f *Parallel) StepIndex() int { return f.k }

// Seed returns the seed of the last Reset (or construction).
func (f *Parallel) Seed() uint64 { return f.seed }

// ParallelSnapshot is a deep copy of a Parallel filter's state: the step
// counter plus the pipeline snapshot. Restoring it into a filter with the
// same configuration resumes the run bit-identically.
type ParallelSnapshot struct {
	Seed uint64            `json:"seed"`
	Step int               `json:"step"`
	Pipe *kernels.Snapshot `json:"pipe"`
}

// Snapshot captures the filter's state. Not safe to call concurrently
// with Step or Reset.
func (f *Parallel) Snapshot() *ParallelSnapshot {
	return &ParallelSnapshot{Seed: f.seed, Step: f.k, Pipe: f.p.Snapshot()}
}

// RestoreSnapshot overwrites the filter's state from a snapshot taken
// from an identically configured filter. Not safe to call concurrently
// with Step or Reset.
func (f *Parallel) RestoreSnapshot(s *ParallelSnapshot) error {
	if s == nil || s.Pipe == nil {
		return fmt.Errorf("filter: nil parallel snapshot")
	}
	if s.Step < 0 {
		return fmt.Errorf("filter: negative snapshot step %d", s.Step)
	}
	if err := f.p.Restore(s.Pipe); err != nil {
		return err
	}
	f.seed = s.Seed
	f.k = s.Step
	return nil
}

// BatchStepper steps many filters built on one device through a round
// each, coalescing their per-sub-filter kernels into shared launches. It
// carries the reusable scratch of the batched stepping path: the
// kernels.Batcher (merged-launch tables and closures) and the BatchRound
// entries with their estimate buffers. Steady-state batches allocate
// only the returned estimates. Not safe for concurrent use.
type BatchStepper struct {
	batcher *kernels.Batcher
	entries []kernels.BatchRound
	batch   []*kernels.BatchRound
}

// NewBatchStepper returns a stepper for filters built on dev.
func NewBatchStepper(dev *device.Device) *BatchStepper {
	return &BatchStepper{batcher: kernels.NewBatcher(dev)}
}

// StepBatch steps every filter in fs through one round with its own
// (u, z) inputs. Every filter must have been built on the stepper's
// device. Results are returned in input order; a rejected batch leaves
// every filter unstepped.
func (bs *BatchStepper) StepBatch(fs []*Parallel, us, zs [][]float64) ([]Estimate, error) {
	if len(fs) != len(us) || len(fs) != len(zs) {
		return nil, fmt.Errorf("filter: batch length mismatch: %d filters, %d controls, %d measurements",
			len(fs), len(us), len(zs))
	}
	// Grow before taking entry pointers: append may move the backing
	// array, and the existing entries carry reusable State buffers.
	for len(bs.entries) < len(fs) {
		bs.entries = append(bs.entries, kernels.BatchRound{})
	}
	bs.batch = bs.batch[:0]
	for i, f := range fs {
		f.k++
		e := &bs.entries[i]
		e.P, e.U, e.Z, e.K = f.p, us[i], zs[i], f.k
		bs.batch = append(bs.batch, e)
	}
	if err := bs.batcher.Round(bs.batch); err != nil {
		// Roll the step counters back so a rejected batch is a no-op.
		for _, f := range fs {
			f.k--
		}
		return nil, err
	}
	out := make([]Estimate, len(fs))
	for i := range fs {
		e := &bs.entries[i]
		// Adaptive filters resize between rounds on this path too, so a
		// batched run tracks the solo Step sequence exactly. (The batcher
		// re-partitions by group size each round, so diverging window
		// shapes across filters are fine.)
		fs[i].maybeAdapt()
		// The entry's State buffer is reused next batch; the Estimate
		// escapes to the caller, so copy.
		out[i] = Estimate{State: append([]float64(nil), e.State...), LogWeight: e.LogW}
	}
	return out, nil
}

// TotalParticles returns N·m.
func (f *Parallel) TotalParticles() int {
	c := f.p.Config()
	return c.SubFilters * c.ParticlesPer
}
