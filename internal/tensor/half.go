package tensor

import "math"

// Half-precision conversion routines. These are bit-exact software
// implementations: F32<->BF16 uses round-to-nearest-even truncation of the
// upper 16 bits; F32<->F16 implements the full IEEE-754 binary16 conversion
// including subnormals, infinities and NaN payload preservation (quietened).

// F32ToBF16 converts a float32 to bfloat16 with round-to-nearest-even.
func F32ToBF16(f float32) uint16 {
	bits := math.Float32bits(f)
	if f != f { // NaN: preserve a quiet NaN, keep top mantissa bits
		return uint16(bits>>16) | 0x0040
	}
	// Round to nearest even on bit 16.
	rounding := uint32(0x7FFF) + (bits>>16)&1
	return uint16((bits + rounding) >> 16)
}

// BF16ToF32 converts a bfloat16 to float32 (exact).
func BF16ToF32(h uint16) float32 {
	return math.Float32frombits(uint32(h) << 16)
}

// f32ToF16 converts a float32 to IEEE-754 binary16 with round-to-nearest-even.
func f32ToF16(f float32) uint16 {
	bits := math.Float32bits(f)
	sign := uint16(bits>>16) & 0x8000
	exp := int32(bits>>23&0xFF) - 127 + 15
	mant := bits & 0x7FFFFF

	switch {
	case bits&0x7FFFFFFF > 0x7F800000: // NaN
		return sign | 0x7E00 | uint16(mant>>13) | uint16(b2u(mant>>13 == 0))
	case exp >= 0x1F: // overflow or Inf -> Inf
		return sign | 0x7C00
	case exp <= 0: // subnormal or underflow
		if exp < -10 {
			return sign // rounds to zero
		}
		// Add implicit leading 1, shift into subnormal position.
		mant |= 0x800000
		shift := uint32(14 - exp)
		half := uint32(1) << (shift - 1)
		rounded := mant + half
		// Round to nearest even.
		if mant&(half<<1-1) == half && rounded>>shift&1 == 1 && mant&(half-1) == 0 {
			rounded -= 1 << shift
		}
		return sign | uint16(rounded>>shift)
	default:
		// Normal: round mantissa from 23 to 10 bits, nearest-even.
		h := uint32(exp)<<10 | mant>>13
		rem := mant & 0x1FFF
		if rem > 0x1000 || (rem == 0x1000 && h&1 == 1) {
			h++ // may carry into exponent; that is correct (e.g. rounds to Inf)
		}
		return sign | uint16(h)
	}
}

// f16ToF32 converts an IEEE-754 binary16 to float32 (exact).
func f16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	exp := uint32(h >> 10 & 0x1F)
	mant := uint32(h & 0x3FF)

	switch exp {
	case 0:
		if mant == 0 {
			return math.Float32frombits(sign) // signed zero
		}
		// Subnormal: normalise.
		e := uint32(127 - 15 + 1)
		for mant&0x400 == 0 {
			mant <<= 1
			e--
		}
		mant &= 0x3FF
		return math.Float32frombits(sign | e<<23 | mant<<13)
	case 0x1F:
		return math.Float32frombits(sign | 0x7F800000 | mant<<13) // Inf/NaN
	default:
		return math.Float32frombits(sign | (exp+127-15)<<23 | mant<<13)
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// encodeF32 converts v to the in-memory representation of dtype d. For F32
// the value round-trips exactly; for half types it is rounded.
func encodeF32(d DType, v float32) uint16 {
	switch d {
	case F16:
		return f32ToF16(v)
	case BF16:
		return F32ToBF16(v)
	default:
		panic("tensor: encodeF32 on non-half dtype")
	}
}

// decodeF32 converts a stored half-precision value back to float32.
func decodeF32(d DType, u uint16) float32 {
	switch d {
	case F16:
		return f16ToF32(u)
	case BF16:
		return BF16ToF32(u)
	default:
		panic("tensor: decodeF32 on non-half dtype")
	}
}
