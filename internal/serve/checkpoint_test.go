package serve

import (
	"encoding/json"
	"math"
	"testing"
)

// TestCheckpointDeterminism is the checkpoint/restore acceptance test:
// run a session, snapshot it mid-run, keep stepping the original while
// feeding the same observations to a restore into a *fresh* server, and
// require the two estimate series to be bit-identical. The checkpoint
// travels through JSON on the way, so the wire format itself is proven
// bit-exact.
func TestCheckpointDeterminism(t *testing.T) {
	spec := FilterSpec{
		Model:        "ungm",
		SubFilters:   8,
		ParticlesPer: 32,
		Streams:      "philox",
		Seed:         42,
	}
	const cut = 12   // checkpoint after this many steps
	const total = 40 // compare estimates up to here

	a := newTestServer(t, Config{Workers: 4})
	idA, err := a.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= cut; k++ {
		if _, err := a.Step(idA, nil, obs(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := a.Checkpoint(idA)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Step != cut {
		t.Fatalf("checkpoint at step %d, want %d", cp.Step, cut)
	}

	// Roundtrip the checkpoint through its JSON wire format.
	wire, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var cp2 Checkpoint
	if err := json.Unmarshal(wire, &cp2); err != nil {
		t.Fatal(err)
	}

	// Restore into a fresh server — nothing shared with a but the bytes.
	b := newTestServer(t, Config{Workers: 3})
	idB, err := b.Restore(&cp2)
	if err != nil {
		t.Fatal(err)
	}
	estB, err := b.Estimate(idB)
	if err != nil {
		t.Fatal(err)
	}
	estA, err := a.Estimate(idA)
	if err != nil {
		t.Fatal(err)
	}
	if estB.Step != cut {
		t.Fatalf("restored session reports step %d, want %d", estB.Step, cut)
	}
	if math.Float64bits(estB.LogWeight) != math.Float64bits(estA.LogWeight) {
		t.Fatalf("restored log-weight %x != original %x",
			math.Float64bits(estB.LogWeight), math.Float64bits(estA.LogWeight))
	}
	for d := range estA.State {
		if math.Float64bits(estB.State[d]) != math.Float64bits(estA.State[d]) {
			t.Fatalf("restored estimate dim %d: %v != %v", d, estB.State[d], estA.State[d])
		}
	}

	// Resume both and require bit-identical estimate series.
	for k := cut + 1; k <= total; k++ {
		z := obs(0, k)
		ra, err := a.Step(idA, nil, z)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Step(idB, nil, z)
		if err != nil {
			t.Fatal(err)
		}
		if ra.Step != rb.Step {
			t.Fatalf("step index diverged: %d vs %d", ra.Step, rb.Step)
		}
		if math.Float64bits(ra.LogWeight) != math.Float64bits(rb.LogWeight) {
			t.Fatalf("step %d: log-weights diverged: %v vs %v", k, ra.LogWeight, rb.LogWeight)
		}
		for d := range ra.State {
			if math.Float64bits(ra.State[d]) != math.Float64bits(rb.State[d]) {
				t.Fatalf("step %d dim %d: estimates diverged: %v vs %v", k, d, ra.State[d], rb.State[d])
			}
		}
	}
}

// TestCheckpointDeterminismMTGP repeats the roundtrip with the MTGP
// stream family, whose state machine (block-filled buffer over a
// Mersenne-Twister master) is the hardest to serialize exactly.
func TestCheckpointDeterminismMTGP(t *testing.T) {
	spec := FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 32, Streams: "mtgp", Seed: 7}
	a := newTestServer(t, Config{Workers: 2})
	idA, err := a.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 9; k++ {
		if _, err := a.Step(idA, nil, obs(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := a.Checkpoint(idA)
	if err != nil {
		t.Fatal(err)
	}
	b := newTestServer(t, Config{Workers: 2})
	idB, err := b.Restore(cp)
	if err != nil {
		t.Fatal(err)
	}
	for k := 10; k <= 24; k++ {
		z := obs(0, k)
		ra, err := a.Step(idA, nil, z)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Step(idB, nil, z)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ra.State[0]) != math.Float64bits(rb.State[0]) ||
			math.Float64bits(ra.LogWeight) != math.Float64bits(rb.LogWeight) {
			t.Fatalf("step %d diverged: (%v,%v) vs (%v,%v)", k, ra.State[0], ra.LogWeight, rb.State[0], rb.LogWeight)
		}
	}
}

func TestRestoreRejectsBadCheckpoints(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	id, err := s.Create(FilterSpec{Model: "ungm", SubFilters: 4, ParticlesPer: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(id, nil, obs(0, 1)); err != nil {
		t.Fatal(err)
	}
	good, err := s.Checkpoint(id)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := s.Restore(nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
	bad := *good
	bad.Version = 99
	if _, err := s.Restore(&bad); err == nil {
		t.Error("wrong version accepted")
	}
	bad = *good
	bad.Spec.Model = "no-such-model"
	if _, err := s.Restore(&bad); err == nil {
		t.Error("unknown model accepted")
	}
	bad = *good
	bad.SubFilters = 8 // shape no longer matches the spec
	if _, err := s.Restore(&bad); err == nil {
		t.Error("shape mismatch accepted")
	}
	bad = *good
	bad.Particles = bad.Particles[:len(bad.Particles)-8]
	if _, err := s.Restore(&bad); err == nil {
		t.Error("truncated particle array accepted")
	}
	bad = *good
	bad.Rands = bad.Rands[:len(bad.Rands)-1]
	if _, err := s.Restore(&bad); err == nil {
		t.Error("missing random-stream state accepted")
	}
	bad = *good
	bad.Spec.SubFilters, bad.Spec.ParticlesPer = 1<<30, 1<<30
	bad.SubFilters, bad.ParticlesPer = 1<<30, 1<<30 // consistent, but unallocatable
	if _, err := s.Restore(&bad); err == nil {
		t.Error("oversized grid accepted")
	}
	if got := len(s.Sessions()); got != 1 {
		t.Errorf("%d sessions after rejected restores, want 1", got)
	}

	// The good checkpoint still restores after all the rejects.
	if _, err := s.Restore(good); err != nil {
		t.Fatalf("good checkpoint rejected after bad attempts: %v", err)
	}
}

// TestCheckpointDeterminismAdaptive repeats the roundtrip with the
// ESS-driven adaptive allocator enabled (and the Metropolis resampler,
// so the collective-free scheme is covered over the wire too). The
// checkpoint carries the reallocated window layout and the round
// counter, so the restored session must replay the same reallocation
// cadence bit-exactly — and the original session must actually have
// reallocated, or the test proves nothing.
func TestCheckpointDeterminismAdaptive(t *testing.T) {
	spec := FilterSpec{
		Model:        "ungm",
		SubFilters:   8,
		ParticlesPer: 16,
		Resampler:    "metropolis",
		Seed:         42,
		AdaptEvery:   3,
	}
	a := newTestServer(t, Config{Workers: 4})
	idA, err := a.Create(spec)
	if err != nil {
		t.Fatal(err)
	}
	const cut = 10
	for k := 1; k <= cut; k++ {
		if _, err := a.Step(idA, nil, obs(0, k)); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := a.Checkpoint(idA)
	if err != nil {
		t.Fatal(err)
	}
	b := newTestServer(t, Config{Workers: 2})
	idB, err := b.Restore(cp)
	if err != nil {
		t.Fatal(err)
	}
	for k := cut + 1; k <= 30; k++ {
		z := obs(0, k)
		ra, err := a.Step(idA, nil, z)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Step(idB, nil, z)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(ra.State[0]) != math.Float64bits(rb.State[0]) ||
			math.Float64bits(ra.LogWeight) != math.Float64bits(rb.LogWeight) {
			t.Fatalf("step %d diverged: (%v,%v) vs (%v,%v)", k, ra.State[0], ra.LogWeight, rb.State[0], rb.LogWeight)
		}
	}
	// The allocator must have fired, and its count must surface in the
	// session health sample (the /metrics reallocations counter source).
	var got int64
	for _, sess := range a.Stats().Sessions {
		if sess.ID == idA && sess.Health != nil {
			got = sess.Health.Reallocations
		}
	}
	if got == 0 {
		t.Fatal("adaptive session never reallocated (or health sample missing the count)")
	}
}
