package rng

import (
	"fmt"
	"math"
)

// State is a serializable capture of a generator's complete position: the
// words a generator needs to resume exactly where it stopped, plus the
// states of any wrapped sources. It is plain data (JSON-marshalable,
// copyable with Clone) and is the unit the checkpoint/restore machinery
// of internal/serve persists per stream: a checkpointed filter restored
// from a State replays bit-identically to an uninterrupted run.
//
// Kind identifies the concrete generator ("philox", "mtgp", "mt19937",
// "buffer", "rand"); RestoreState rejects a mismatched Kind so a
// checkpoint cannot be silently restored into the wrong stream family.
type State struct {
	Kind  string   `json:"kind"`
	Words []uint32 `json:"words,omitempty"`
	Sub   []State  `json:"sub,omitempty"`
}

// Clone returns a deep copy of the state.
func (s State) Clone() State {
	out := State{Kind: s.Kind}
	if len(s.Words) > 0 {
		out.Words = append([]uint32(nil), s.Words...)
	}
	for _, sub := range s.Sub {
		out.Sub = append(out.Sub, sub.Clone())
	}
	return out
}

// Stateful is a Source whose exact stream position can be captured and
// restored. All toolkit generators used by the device pipeline satisfy
// it.
type Stateful interface {
	// SaveState captures the complete generator state.
	SaveState() State
	// RestoreState repositions the generator; it fails if st was saved
	// from a different generator kind or has the wrong shape.
	RestoreState(st State) error
}

func checkState(st State, kind string, words int) error {
	if st.Kind != kind {
		return fmt.Errorf("rng: cannot restore %q state into %s stream", st.Kind, kind)
	}
	if len(st.Words) != words {
		return fmt.Errorf("rng: %s state has %d words, want %d", kind, len(st.Words), words)
	}
	return nil
}

// SaveState implements Stateful: key, counter, output buffer and unread
// count (11 words).
func (p *Philox4x32) SaveState() State {
	w := make([]uint32, 0, 11)
	w = append(w, p.key[0], p.key[1])
	w = append(w, p.ctr[0], p.ctr[1], p.ctr[2], p.ctr[3])
	w = append(w, p.buf[0], p.buf[1], p.buf[2], p.buf[3])
	w = append(w, uint32(p.n))
	return State{Kind: "philox", Words: w}
}

// RestoreState implements Stateful.
func (p *Philox4x32) RestoreState(st State) error {
	if err := checkState(st, "philox", 11); err != nil {
		return err
	}
	if st.Words[10] > 4 {
		return fmt.Errorf("rng: philox state has %d unread words, max 4", st.Words[10])
	}
	p.key[0], p.key[1] = st.Words[0], st.Words[1]
	copy(p.ctr[:], st.Words[2:6])
	copy(p.buf[:], st.Words[6:10])
	p.n = int(st.Words[10])
	return nil
}

// SaveState implements Stateful: the full twister state plus index
// (625 words).
func (m *MT19937) SaveState() State {
	w := make([]uint32, mtN+1)
	copy(w, m.state[:])
	w[mtN] = uint32(m.index)
	return State{Kind: "mt19937", Words: w}
}

// RestoreState implements Stateful.
func (m *MT19937) RestoreState(st State) error {
	if err := checkState(st, "mt19937", mtN+1); err != nil {
		return err
	}
	if st.Words[mtN] > mtN {
		return fmt.Errorf("rng: mt19937 state index %d out of range", st.Words[mtN])
	}
	copy(m.state[:], st.Words[:mtN])
	m.index = int(st.Words[mtN])
	return nil
}

// SaveState implements Stateful: stream id, master seed and per-stream
// tempering constants, with the underlying twister as a sub-state.
func (g *MTGP) SaveState() State {
	w := []uint32{
		uint32(g.stream), uint32(g.stream >> 32),
		uint32(g.master), uint32(g.master >> 32),
		g.t0, g.t1,
	}
	return State{Kind: "mtgp", Words: w, Sub: []State{g.mt.SaveState()}}
}

// RestoreState implements Stateful.
func (g *MTGP) RestoreState(st State) error {
	if err := checkState(st, "mtgp", 6); err != nil {
		return err
	}
	if len(st.Sub) != 1 {
		return fmt.Errorf("rng: mtgp state has %d sub-states, want 1", len(st.Sub))
	}
	var mt MT19937
	if err := mt.RestoreState(st.Sub[0]); err != nil {
		return err
	}
	g.stream = uint64(st.Words[0]) | uint64(st.Words[1])<<32
	g.master = uint64(st.Words[2]) | uint64(st.Words[3])<<32
	g.t0, g.t1 = st.Words[4], st.Words[5]
	g.mt = mt
	return nil
}

// SaveState implements Stateful: the read position followed by the whole
// buffered block, with the fallback stream as a sub-state. The block must
// be captured verbatim — it was generated before the fallback's saved
// position, so it cannot be regenerated from the sub-state alone. Lazy
// materialization is forced to completion first, so the saved bytes (and
// the fallback's saved position) are exactly what eager generation would
// have produced.
func (b *Buffer) SaveState() State {
	b.materializeTo(len(b.bits))
	w := make([]uint32, 0, len(b.bits)+1)
	w = append(w, uint32(b.pos))
	w = append(w, b.bits...)
	st := State{Kind: "buffer", Words: w}
	if sf, ok := b.fallback.(Stateful); ok {
		st.Sub = []State{sf.SaveState()}
	}
	return st
}

// RestoreState implements Stateful. The buffer's capacity must match the
// saved block length.
func (b *Buffer) RestoreState(st State) error {
	if st.Kind != "buffer" {
		return fmt.Errorf("rng: cannot restore %q state into buffer", st.Kind)
	}
	if len(st.Words) != len(b.bits)+1 {
		return fmt.Errorf("rng: buffer state block is %d words, buffer capacity %d",
			len(st.Words)-1, len(b.bits))
	}
	pos := int(st.Words[0])
	if pos < 0 || pos > len(b.bits) {
		return fmt.Errorf("rng: buffer state position %d out of range [0,%d]", pos, len(b.bits))
	}
	if len(st.Sub) > 0 {
		sf, ok := b.fallback.(Stateful)
		if !ok {
			return fmt.Errorf("rng: buffer fallback %T cannot restore state", b.fallback)
		}
		if err := sf.RestoreState(st.Sub[0]); err != nil {
			return err
		}
	}
	copy(b.bits, st.Words[1:])
	b.pos = pos
	b.gen = len(b.bits) // the restored block is fully materialized
	return nil
}

// SaveState implements Stateful: the Box-Muller spare cache, with the
// wrapped source as a sub-state. Word 3 is reserved and always 0; it
// keeps the 4-word layout existing checkpoints use.
func (r *Rand) SaveState() State {
	w := make([]uint32, 4)
	if r.haveSpare {
		w[0] = 1
	}
	bits := math.Float64bits(r.spare)
	w[1] = uint32(bits)
	w[2] = uint32(bits >> 32)
	st := State{Kind: "rand", Words: w}
	if sf, ok := r.src.(Stateful); ok {
		st.Sub = []State{sf.SaveState()}
	}
	return st
}

// RestoreState implements Stateful. A nonzero reserved word 3 selected
// a normal sampler other than Box-Muller, which cannot be resumed.
func (r *Rand) RestoreState(st State) error {
	if err := checkState(st, "rand", 4); err != nil {
		return err
	}
	if st.Words[3] != 0 {
		return fmt.Errorf("rng: rand state reserved word 3 is %d, want 0", st.Words[3])
	}
	if len(st.Sub) > 0 {
		sf, ok := r.src.(Stateful)
		if !ok {
			return fmt.Errorf("rng: source %T cannot restore state", r.src)
		}
		if err := sf.RestoreState(st.Sub[0]); err != nil {
			return err
		}
	}
	r.haveSpare = st.Words[0] != 0
	r.spare = math.Float64frombits(uint64(st.Words[1]) | uint64(st.Words[2])<<32)
	return nil
}

var (
	_ Stateful = (*Philox4x32)(nil)
	_ Stateful = (*MT19937)(nil)
	_ Stateful = (*MTGP)(nil)
	_ Stateful = (*Buffer)(nil)
	_ Stateful = (*Rand)(nil)
)
