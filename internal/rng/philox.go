package rng

// Philox4x32 implements the Philox4x32-10 counter-based generator of
// Salmon et al. (SC'11, the Random123 family). Counter-based generators
// are the modern answer to the problem the paper solves with MTGP: every
// work-item can compute its own random numbers from (key, counter) with no
// shared state, no warm-up, and O(1) jump-ahead, which is ideal for
// many-core execution. The toolkit offers Philox as the default per-
// sub-filter stream and MTGP for fidelity with the paper.
type Philox4x32 struct {
	key [2]uint32
	ctr [4]uint32
	buf [4]uint32
	n   int // unread words remaining in buf
}

const (
	philoxM0 = 0xD2511F53
	philoxM1 = 0xCD9E8D57
	philoxW0 = 0x9E3779B9 // golden ratio
	philoxW1 = 0xBB67AE85 // sqrt(3)-1
)

// NewPhilox returns a Philox4x32-10 stream with the key derived from seed
// and the counter at zero.
func NewPhilox(seed uint64) *Philox4x32 {
	p := &Philox4x32{}
	p.Seed(seed)
	return p
}

// NewPhiloxStream returns a stream for (master, stream id): the id is
// folded into the key so that streams are independent by construction.
func NewPhiloxStream(master uint64, stream int) *Philox4x32 {
	p := &Philox4x32{}
	p.Seed(StreamSeed(master, stream))
	return p
}

// Seed sets the 64-bit key and resets the counter.
func (p *Philox4x32) Seed(seed uint64) {
	p.key[0] = uint32(seed)
	p.key[1] = uint32(seed >> 32)
	p.ctr = [4]uint32{}
	p.n = 0
}

// SetCounter positions the stream at an absolute 128-bit counter value,
// given as four 32-bit words (little-endian significance). This is the
// jump-ahead facility: disjoint counter ranges never overlap.
func (p *Philox4x32) SetCounter(c0, c1, c2, c3 uint32) {
	p.ctr = [4]uint32{c0, c1, c2, c3}
	p.n = 0
}

// Round4x32 applies the full 10-round Philox4x32 bijection to ctr under
// key and returns the four output words. It is exposed (rather than kept
// private) so the device kernels can generate numbers positionally.
//
//esthera:hotpath noalloc bce
func Round4x32(key [2]uint32, ctr [4]uint32) [4]uint32 {
	k0, k1 := key[0], key[1]
	// The counter words live in scalars so the ten rounds stay in
	// registers instead of round-tripping through an array temporary.
	c0, c1, c2, c3 := ctr[0], ctr[1], ctr[2], ctr[3]
	for round := 0; round < 10; round++ {
		hi0, lo0 := mul32(philoxM0, c0)
		hi1, lo1 := mul32(philoxM1, c2)
		c0, c1, c2, c3 = hi1^c1^k0, lo1, hi0^c3^k1, lo0
		k0 += philoxW0
		k1 += philoxW1
	}
	return [4]uint32{c0, c1, c2, c3}
}

// round4x32x2 returns Round4x32(key, ctr) and Round4x32(key, ctr+1),
// where the +1 goes into ctr[0] alone: the caller guarantees ctr[0] !=
// 0xFFFFFFFF, so the pair never carries inside itself. The ten rounds of
// one counter form a serial multiply chain; running two independent
// chains interleaved lets them overlap in the pipeline.
//
//esthera:hotpath noalloc bce
func round4x32x2(key [2]uint32, ctr [4]uint32) (x, y [4]uint32) {
	k0, k1 := key[0], key[1]
	a0, a1, a2, a3 := ctr[0], ctr[1], ctr[2], ctr[3]
	b0, b1, b2, b3 := a0+1, a1, a2, a3
	for round := 0; round < 10; round++ {
		ahi0, alo0 := mul32(philoxM0, a0)
		ahi1, alo1 := mul32(philoxM1, a2)
		bhi0, blo0 := mul32(philoxM0, b0)
		bhi1, blo1 := mul32(philoxM1, b2)
		a0, a1, a2, a3 = ahi1^a1^k0, alo1, ahi0^a3^k1, alo0
		b0, b1, b2, b3 = bhi1^b1^k0, blo1, bhi0^b3^k1, blo0
		k0 += philoxW0
		k1 += philoxW1
	}
	return [4]uint32{a0, a1, a2, a3}, [4]uint32{b0, b1, b2, b3}
}

// refill produces the next 4-word block and advances the counter.
//
//esthera:hotpath noalloc bce
func (p *Philox4x32) refill() {
	p.buf = Round4x32(p.key, p.ctr)
	// 128-bit increment.
	for i := 0; i < 4; i++ {
		p.ctr[i]++
		if p.ctr[i] != 0 {
			break
		}
	}
	p.n = 4
}

// Uint32 returns the next 32-bit output.
//
//esthera:hotpath noalloc bce
func (p *Philox4x32) Uint32() uint32 {
	if p.n == 0 {
		p.refill()
	}
	v := p.buf[4-p.n]
	p.n--
	return v
}

// Uint64 packs two 32-bit outputs, satisfying Source.
//
//esthera:hotpath noalloc bce
func (p *Philox4x32) Uint64() uint64 {
	hi := uint64(p.Uint32())
	lo := uint64(p.Uint32())
	return hi<<32 | lo
}

// Block fills dst with consecutive outputs, satisfying BlockSource. The
// stream is identical to len(dst) Uint32 calls: buffered leftovers are
// drained first, whole 4-word blocks are then generated straight into
// dst (skipping the internal buffer and its per-word bookkeeping), and
// any tail goes through Uint32 so the leftover state matches. Blocks are
// generated two counters per pass (round4x32x2) while 8 words remain and
// ctr[0] is not all-ones; the remainder, and the pass that would carry
// inside a pair, fall back to one counter at a time.
//
//esthera:hotpath noalloc bce
func (p *Philox4x32) Block(dst []uint32) {
	i := 0
	for p.n > 0 && i < len(dst) {
		dst[i] = p.buf[4-p.n]
		p.n--
		i++
	}
	// Walking a shrinking sub-slice lets the prover drop every bounds
	// check on the 8 stores; slicing dst[i:i+8] retains one per pass.
	rest := dst[i:]
	for len(rest) >= 8 && p.ctr[0] != 0xFFFFFFFF {
		x, y := round4x32x2(p.key, p.ctr)
		p.ctr[0] += 2
		if p.ctr[0] == 0 {
			for w := 1; w < 4; w++ {
				p.ctr[w]++
				if p.ctr[w] != 0 {
					break
				}
			}
		}
		r := rest[:8:8]
		r[0], r[1], r[2], r[3] = x[0], x[1], x[2], x[3]
		r[4], r[5], r[6], r[7] = y[0], y[1], y[2], y[3]
		rest = rest[8:]
	}
	i = len(dst) - len(rest)
	for ; i+4 <= len(dst); i += 4 {
		b := Round4x32(p.key, p.ctr)
		for w := 0; w < 4; w++ {
			p.ctr[w]++
			if p.ctr[w] != 0 {
				break
			}
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = b[0], b[1], b[2], b[3]
	}
	for ; i < len(dst); i++ {
		dst[i] = p.Uint32()
	}
}

// mul32 returns the 64-bit product of a and b split as (hi, lo) 32-bit
// halves.
func mul32(a, b uint32) (hi, lo uint32) {
	prod := uint64(a) * uint64(b)
	return uint32(prod >> 32), uint32(prod)
}

var _ BlockSource = (*Philox4x32)(nil)
