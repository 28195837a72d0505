//! Owned elementary functions.
//!
//! [`tanh_in_place`] is a branch-free, batched port of glibc 2.36's
//! `tanhf`, which is fdlibm's `tanhf` over `expm1f`. Each lane
//! evaluates the float expression of every case the C code can reach,
//! in the C code's order, and a select keeps the one its input's case
//! takes — so every result is bit-identical to the scalar C function,
//! while the loop has no data-dependent branch to mispredict and
//! vectorizes. It uses no table and no fused multiply-add. Tests check
//! both builds against `f32::tanh` bit for bit, on a sample in tier 1
//! and on all 2³² inputs in release (`--ignored`).
//!
//! `exp` and `ln` still call the host libm.

/// `tiny` in `s_tanhf.c`: `one - tiny` is `tanhf`'s `|x| ≥ 22` result.
const TINY: f32 = 1.0e-30;
/// `ln2_hi` in `s_expm1f.c`, 6.9313812256e-01.
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
/// `ln2_lo` in `s_expm1f.c`, 9.0580006145e-06.
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
/// `invln2` in `s_expm1f.c`, 1.4426950216e+00.
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
/// `Q1`..`Q5` in `s_expm1f.c`, the scaled expm1 coefficients.
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// Overwrites every element of `xs` with its hyperbolic tangent,
/// bit-identical to glibc 2.36's `tanhf` for every input, NaN payloads
/// included. Runs the AVX2 build of the one kernel body when the CPU
/// has AVX2, the baseline build otherwise; both give the same bits.
pub fn tanh_in_place(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: `tanh_avx2` requires only AVX2, detected just above.
        return unsafe { tanh_avx2(xs) };
    }
    tanh_lanes(xs);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn tanh_avx2(xs: &mut [f32]) {
    tanh_lanes(xs);
}

/// The one tanh kernel body, built once for the baseline target and
/// once inside [`tanh_avx2`]. Lanes go 8 at a time.
#[inline(always)]
fn tanh_lanes(xs: &mut [f32]) {
    let mut chunks = xs.chunks_exact_mut(8);
    for chunk in &mut chunks {
        for x in chunk {
            *x = tanh_lane(*x);
        }
    }
    for x in chunks.into_remainder() {
        *x = tanh_lane(*x);
    }
}

/// `s_tanhf.c` on one lane: every reachable case is evaluated and
/// [`select`] keeps the one the C code's bounds on `ix = |x|` bits
/// pick.
#[inline(always)]
fn tanh_lane(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let positive = (jx as i32) >= 0;
    let ax = f32::from_bits(ix);
    // |x| ≥ 1: z = 1 - 2/(t + 2) with t = expm1(2|x|); otherwise
    // z = -t/(t + 2) with t = expm1(-2|x|). The two cases share one
    // division: only its numerator and the last step differ.
    let big = ix >= 0x3f80_0000;
    let t = expm1_lane(select(big, 2.0 * ax, -2.0 * ax));
    let q = select(big, 2.0, -t) / (t + 2.0);
    let z = select(big, 1.0 - q, q);
    // |x| ≥ 22: ±1, inexact.
    let z = select(ix < 0x41b0_0000, z, 1.0 - TINY);
    let z = select(positive, z, -z);
    // |x| < 2⁻⁵⁵, ±0 included: ±0·(1 ± 0) is ±0, the C code's `x`.
    let z = select(ix < 0x2400_0000, x * (1.0 + x), z);
    // ±inf → ±1; NaN → itself, quieted.
    let r = 1.0 / x;
    select(ix < 0x7f80_0000, z, select(positive, r + 1.0, r - 1.0))
}

/// `s_expm1f.c` on one lane, for the arguments [`tanh_lane`] passes:
/// `2|x| ∈ [2, 44)` and `-2|x| ∈ (-2, 0)`. There the overflow and
/// `|x| ≥ 27 ln2` filters never fire and `k` is never 1, so those
/// cases are left out; every other case is evaluated and selected by
/// the C code's bounds. Other arguments (lanes whose result `tanh_lane`
/// discards) give unspecified bits, never a panic.
#[inline(always)]
fn expm1_lane(x: f32) -> f32 {
    let hx = x.to_bits() & 0x7fff_ffff;
    let positive = (x.to_bits() as i32) >= 0;
    // Argument reduction x = k·ln2 + (hi - lo) when |x| > 0.5 ln2:
    // k = -1 below 1.5 ln2 (only negative arguments get there),
    // otherwise k = trunc(x/ln2 ± 0.5).
    let reduce = hx > 0x3eb1_7218;
    let near = hx < 0x3f85_1592;
    let k = trunc_to_int(INVLN2 * x + select(positive, 0.5, -0.5));
    let tk = k as f32;
    let hi = select(near, x + LN2_HI, x - tk * LN2_HI);
    let lo = select(near, -LN2_LO, tk * LN2_LO);
    let xr = select(reduce, hi - lo, x);
    let c = (hi - xr) - lo;

    // xr is now in the primary range.
    let hfx = 0.5 * xr;
    let hxs = xr * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - xr * t));
    let y_k0 = xr - (xr * e - hxs);
    let e = (xr * (e - c) - c) - hxs;
    let y_km1 = 0.5 * (xr - e) - 0.5;
    // The remaining cases use the k computed above. 2⁻ᵏ is exact for
    // 3 ≤ k ≤ 56, and 1 - 2⁻ᵏ is then exact for k < 23.
    let two_mk = f32::from_bits(127u32.wrapping_sub(k as u32) << 23);
    let y_far = add_exponent(1.0 - (e - xr), k) - 1.0;
    let y_low = add_exponent((1.0 - two_mk) - (e - xr), k);
    let y_high = add_exponent((xr - (e + two_mk)) + 1.0, k);
    // The C code's case order, last select first: |x| < 2⁻²⁵, k = 0,
    // k = -1, k ≤ -2 or k > 56, k < 23, the rest.
    let y = select(k < 23, y_low, y_high);
    let y = select((k <= -2) | (k > 56), y_far, y);
    let y = select(near, y_km1, y);
    let y = select(reduce, y, y_k0);
    select(hx < 0x3300_0000, x, y)
}

/// C's `(int) v`, truncation toward zero, for `|v| < 2²³`, in float
/// and bit operations only: Rust's saturating `as i32` does not
/// vectorize. Other `v` give unspecified bits.
#[inline(always)]
fn trunc_to_int(v: f32) -> i32 {
    const TWO_23: f32 = 8_388_608.0;
    let a = f32::from_bits(v.to_bits() & 0x7fff_ffff);
    // 2²³ + a rounds a to the nearest integer n; floor(a) is n - 1
    // when that rounded up.
    let rounded = a + TWO_23;
    let n = rounded.to_bits().wrapping_sub(TWO_23.to_bits());
    let n = n.wrapping_sub(u32::from(rounded - TWO_23 > a)) as i32;
    // Negate where v is negative: sign is 0 or -1.
    let sign = (v.to_bits() as i32) >> 31;
    (n ^ sign).wrapping_sub(sign)
}

/// `if c { a } else { b }` as a bit-mask blend, so a lane never
/// branches and the compiler never splits the code around it.
#[inline(always)]
fn select(c: bool, a: f32, b: f32) -> f32 {
    let mask = 0u32.wrapping_sub(u32::from(c));
    f32::from_bits((a.to_bits() & mask) | (b.to_bits() & !mask))
}

/// `y · 2ᵏ` by adding `k` to the exponent field, as `SET_FLOAT_WORD(y,
/// i + (k << 23))` does.
#[inline(always)]
fn add_exponent(y: f32, k: i32) -> f32 {
    f32::from_bits(y.to_bits().wrapping_add((k as u32) << 23))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both builds on `xs` against `f32::tanh`, bit for bit.
    fn assert_matches_libm(xs: &[f32]) {
        let mut baseline = xs.to_vec();
        tanh_lanes(&mut baseline);
        let mut dispatched = xs.to_vec();
        tanh_in_place(&mut dispatched);
        for ((x, b), d) in xs.iter().zip(&baseline).zip(&dispatched) {
            let libm = x.tanh().to_bits();
            let (b, d) = (b.to_bits(), d.to_bits());
            assert!(
                b == libm && d == libm,
                "tanh({:#010x}): libm {libm:#010x}, baseline {b:#010x}, dispatched {d:#010x}",
                x.to_bits()
            );
        }
    }

    /// Every case boundary of `tanhf` and `expm1f` at ±1 ulp, signed
    /// zeros, subnormals, infinities, quiet and signalling NaNs, and a
    /// stride-65,537 sweep over all 2³² bit patterns. Each probe runs
    /// at every offset within an 8-lane group so remainders are hit.
    #[test]
    fn tanh_matches_libm_on_boundaries_and_a_sweep() {
        // |x| bounds in tanhf, and the |x| = ∓u/2 images of expm1f's.
        let bounds: [u32; 6] = [
            0x2400_0000,               // 2⁻⁵⁵
            0x3f80_0000,               // 1
            0x41b0_0000,               // 22
            0x3300_0000 - 0x0080_0000, // expm1 tiny: 2|x| = 2⁻²⁵
            0x3eb1_7218 - 0x0080_0000, // expm1 k = 0 / -1: 2|x| = 0.5 ln2
            0x3f85_1592 - 0x0080_0000, // expm1 k = -1 / -2: 2|x| = 1.5 ln2
        ];
        let mut probes: Vec<u32> = Vec::new();
        for b in bounds {
            for d in [-1i32, 0, 1] {
                let m = b.wrapping_add_signed(d);
                probes.extend([m, m | 0x8000_0000]);
            }
        }
        probes.extend([
            0x0000_0000, // +0
            0x8000_0000, // -0
            0x0000_0001, // smallest subnormal
            0x807f_ffff, // largest negative subnormal
            0x0080_0000, // smallest normal
            0x7f7f_ffff, // f32::MAX
            0x7f80_0000, // +inf
            0xff80_0000, // -inf
            0x7fc0_0000, // quiet NaN
            0xffc0_1234, // negative quiet NaN with payload
            0x7f80_0001, // signalling NaN
            0xffa0_0005, // negative signalling NaN with payload
        ]);
        // expm1's k cut-offs, where 2|x|/ln2 crosses a half-integer
        // (k = -2 | -3 at 2.5, 22 | 23 at 22.5, 56 | 57 at 56.5, ...),
        // with k = 3 and 63, the extremes tanh reaches.
        for multiple in [2.5f32, 3.0, 22.5, 23.0, 23.5, 56.5, 57.0, 57.5, 63.0] {
            let ax = multiple * std::f32::consts::LN_2 / 2.0;
            for d in -2i32..=2 {
                let m = ax.to_bits().wrapping_add_signed(d);
                probes.extend([m, m | 0x8000_0000]);
            }
        }
        probes.extend((0..=u32::MAX).step_by(65_537));
        for offset in 0..8 {
            let mut xs: Vec<f32> = vec![0.5; offset];
            xs.extend(probes.iter().map(|&b| f32::from_bits(b)));
            assert_matches_libm(&xs);
        }
    }

    /// All 2³² inputs, both builds, exact bits, over every available
    /// thread: one to two minutes on two threads in release, most of
    /// it in libm's `tanhf`. `scripts/ci.sh` runs it.
    #[test]
    #[ignore = "exhaustive: run in release with --ignored"]
    fn tanh_matches_libm_on_all_inputs() {
        const BLOCK: u64 = 1 << 16;
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let per_thread = (1u64 << 32) / threads + 1;
        std::thread::scope(|s| {
            for w in 0..threads {
                s.spawn(move || {
                    let start = w * per_thread;
                    let end = ((w + 1) * per_thread).min(1 << 32);
                    let mut xs = Vec::with_capacity(BLOCK as usize);
                    let mut lo = start;
                    while lo < end {
                        let hi = (lo + BLOCK).min(end);
                        xs.clear();
                        xs.extend((lo..hi).map(|b| f32::from_bits(b as u32)));
                        assert_matches_libm(&xs);
                        lo = hi;
                    }
                });
            }
        });
    }
}
