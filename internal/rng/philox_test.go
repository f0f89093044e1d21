package rng

import (
	"testing"
	"testing/quick"
)

// TestPhiloxKnownAnswer checks the three philox4x32-10 known-answer test
// vectors from the Random123 distribution, through Round4x32 and through
// the two-counter round4x32x2 (each vector as either counter of the pair).
func TestPhiloxKnownAnswer(t *testing.T) {
	for _, tc := range []struct {
		key       [2]uint32
		ctr, want [4]uint32
	}{
		{[2]uint32{0, 0}, [4]uint32{0, 0, 0, 0},
			[4]uint32{0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8}},
		{[2]uint32{0xFFFFFFFF, 0xFFFFFFFF}, [4]uint32{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF},
			[4]uint32{0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD}},
		{[2]uint32{0xA4093822, 0x299F31D0}, [4]uint32{0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344},
			[4]uint32{0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1}},
	} {
		if got := Round4x32(tc.key, tc.ctr); got != tc.want {
			t.Errorf("philox4x32-10(%08x, %08x) = %08x, want %08x", tc.key, tc.ctr, got, tc.want)
		}
		if tc.ctr[0] != 0xFFFFFFFF {
			if x, _ := round4x32x2(tc.key, tc.ctr); x != tc.want {
				t.Errorf("round4x32x2 first(%08x, %08x) = %08x, want %08x", tc.key, tc.ctr, x, tc.want)
			}
		}
		if tc.ctr[0] != 0 {
			prev := tc.ctr
			prev[0]--
			if _, y := round4x32x2(tc.key, prev); y != tc.want {
				t.Errorf("round4x32x2 second(%08x, %08x) = %08x, want %08x", tc.key, prev, y, tc.want)
			}
		}
	}
}

// TestPhiloxBijection exercises the property that Philox is a bijection on
// counters for a fixed key: distinct counters map to distinct outputs.
func TestPhiloxBijection(t *testing.T) {
	key := [2]uint32{0xDEADBEEF, 0xCAFEF00D}
	seen := make(map[[4]uint32][4]uint32, 1<<14)
	for i := uint32(0); i < 1<<14; i++ {
		out := Round4x32(key, [4]uint32{i, 0, 0, 0})
		if prev, dup := seen[out]; dup {
			t.Fatalf("collision: counters %v and %v both map to %v", prev, [4]uint32{i, 0, 0, 0}, out)
		}
		seen[out] = [4]uint32{i, 0, 0, 0}
	}
}

// TestPhiloxCounterSensitivity: flipping any single counter bit changes
// roughly half of the output bits (avalanche).
func TestPhiloxCounterSensitivity(t *testing.T) {
	key := [2]uint32{1, 2}
	base := Round4x32(key, [4]uint32{10, 20, 30, 40})
	totalFlipped := 0
	cases := 0
	for word := 0; word < 4; word++ {
		for bit := uint(0); bit < 32; bit++ {
			ctr := [4]uint32{10, 20, 30, 40}
			ctr[word] ^= 1 << bit
			out := Round4x32(key, ctr)
			flipped := 0
			for w := 0; w < 4; w++ {
				x := out[w] ^ base[w]
				for x != 0 {
					flipped += int(x & 1)
					x >>= 1
				}
			}
			totalFlipped += flipped
			cases++
			if flipped < 20 {
				t.Fatalf("weak avalanche: word %d bit %d flipped only %d output bits", word, bit, flipped)
			}
		}
	}
	avg := float64(totalFlipped) / float64(cases)
	if avg < 58 || avg > 70 { // expect ≈ 64 of 128
		t.Fatalf("average avalanche %0.1f bits, want ≈ 64", avg)
	}
}

func TestPhiloxStreamIndependence(t *testing.T) {
	// Adjacent streams must not be correlated: compare 64-bit outputs of
	// streams 0 and 1 and count matching bits; expect ≈ 50%.
	a := NewPhiloxStream(42, 0)
	b := NewPhiloxStream(42, 1)
	match := 0
	const n = 10000
	for i := 0; i < n; i++ {
		x := a.Uint64() ^ b.Uint64()
		for x != 0 {
			match += int(x & 1)
			x >>= 1
		}
	}
	frac := float64(match) / float64(n*64)
	if frac < 0.49 || frac > 0.51 {
		t.Fatalf("inter-stream bit-difference fraction %v, want ≈ 0.5", frac)
	}
}

func TestPhiloxSetCounter(t *testing.T) {
	p := NewPhilox(7)
	// Consume 8 words = 2 blocks.
	for i := 0; i < 8; i++ {
		p.Uint32()
	}
	third := p.Uint32()
	q := NewPhilox(7)
	q.SetCounter(2, 0, 0, 0)
	if got := q.Uint32(); got != third {
		t.Fatalf("SetCounter(2): got %x, want %x", got, third)
	}
}

func TestPhiloxCounterCarry(t *testing.T) {
	p := NewPhilox(1)
	p.SetCounter(0xFFFFFFFF, 0xFFFFFFFF, 0, 0)
	p.refill()
	if p.ctr != [4]uint32{0, 0, 1, 0} {
		t.Fatalf("counter carry wrong: %v", p.ctr)
	}
}

// TestPhiloxBlockMatchesScalar pins Block to the Uint32 stream across the
// two-counter pass, its one-counter fallback and the Uint32 tail: start
// counters where ctr[0] carries inside or right after a pair (and the
// full 128-bit wrap), leftover words buffered before the call, and block
// lengths around the 8-word pass. The 8 words drawn after the block
// check that the counter and leftover state match too.
func TestPhiloxBlockMatchesScalar(t *testing.T) {
	starts := [][4]uint32{
		{0, 0, 0, 0},
		{0xFFFFFFFE, 0, 0, 0},
		{0xFFFFFFFF, 0, 0, 0},
		{0xFFFFFFFF, 0xFFFFFFFF, 0, 0},
		{0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF, 0xFFFFFFFF},
	}
	for _, ctr := range starts {
		for pre := 0; pre < 4; pre++ {
			for _, n := range []int{0, 1, 7, 8, 9, 16, 1003} {
				a := NewPhilox(123)
				b := NewPhilox(123)
				a.SetCounter(ctr[0], ctr[1], ctr[2], ctr[3])
				b.SetCounter(ctr[0], ctr[1], ctr[2], ctr[3])
				for k := 0; k < pre; k++ {
					a.Uint32()
					b.Uint32()
				}
				blk := make([]uint32, n+8)
				a.Block(blk[:n])
				for k := n; k < len(blk); k++ {
					blk[k] = a.Uint32()
				}
				for k, v := range blk {
					if w := b.Uint32(); v != w {
						t.Fatalf("ctr %08x, %d drawn first, len %d: mismatch at word %d: %08x vs %08x",
							ctr, pre, n, k, v, w)
					}
				}
			}
		}
	}
}

func TestPhiloxUniformity(t *testing.T) {
	checkUniformBits(t, NewPhilox(2024), 200000)
}

// TestPhiloxQuickDistinctSeeds is a property-based check: distinct seeds
// produce distinct first outputs (Philox is a PRF keyed by the seed).
func TestPhiloxQuickDistinctSeeds(t *testing.T) {
	f := func(s1, s2 uint64) bool {
		if s1 == s2 {
			return true
		}
		return NewPhilox(s1).Uint64() != NewPhilox(s2).Uint64()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
