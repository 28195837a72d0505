//! Owned elementary functions.
//!
//! [`tanh_in_place`] is a branch-free, batched port of glibc 2.36's
//! `tanhf`, which is fdlibm's `tanhf` over `expm1f`. [`exp_in_place`]
//! (and [`exp`], [`sigmoid_in_place`], [`sigmoid`]) is one of glibc
//! 2.36's `expf`, the table-driven `e_expf.c` over `__exp2f_data`.
//! Each lane evaluates the float expression of every case the C code
//! can reach, in the C code's order, and a bit-mask select keeps the one
//! its input's case takes — so every result is bit-identical to the
//! scalar C function, while the loop has no data-dependent branch to
//! mispredict and vectorizes. Tests check every build against
//! `f32::tanh` and `f32::exp` bit for bit, on a sample in tier 1 and on
//! all 2³² inputs in release (`--ignored`). The `exp` reference is
//! glibc's FMA build of `expf`: at the two inputs where its non-FMA
//! build differs, the tests hold pinned bits instead of the host's.
//!
//! `ln`, `cos` and `sin` still call the host libm.

use crate::simd::{self, Kernel, AVX512};

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

/// `InvLn2N` in `__exp2f_data`: 32 / ln 2, 0x1.71547652b82fep+5.
const INVLN2N: f64 = f64::from_bits(0x4047_1547_652b_82fe);
/// `shift` in `__exp2f_data`, 0x1.8p+52: adding it rounds to an
/// integer held in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `C[0]`..`C[2]` in `__exp2f_data`, the `2^(r/32)` polynomial.
const C0: f64 = f64::from_bits(0x3ebc_6af8_4b91_2394);
const C1: f64 = f64::from_bits(0x3f2e_bfce_50fa_c4f3);
const C2: f64 = f64::from_bits(0x3f96_2e42_ff0c_52d6);
/// `T[i]` in `__exp2f_data`: the bits of `2^(i/32)` minus `i << 47`,
/// as read from glibc 2.36's `libm.so.6`.
const EXP2_TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];
/// `0x1.62e42ep6f`, about 88.72: above it `expf` overflows to +inf.
const EXP_OVERFLOW: f32 = f32::from_bits(0x42b1_7217);
/// `-0x1.9fe368p6f`, about -103.97: below it `expf` underflows to +0.
const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// Overwrites every element of `xs` with its hyperbolic tangent,
/// bit-identical to glibc 2.36's `tanhf` for every input, NaN payloads
/// included. Every build gives the same bits.
pub fn tanh_in_place(xs: &mut [f32]) {
    simd::run(Map(xs, tanh_lane));
}

/// Overwrites every element of `xs` with `e^x`, bit-identical to glibc
/// 2.36's `expf` (the FMA variant its x86-64 libm selects on CPUs with
/// FMA) for every input, NaN payloads included. Every build gives the
/// same bits.
pub fn exp_in_place(xs: &mut [f32]) {
    simd::run(Map(xs, exp_lane));
}

/// `e^x` for one value: [`exp_in_place`] on a single lane.
pub fn exp(x: f32) -> f32 {
    let mut v = [x];
    exp_in_place(&mut v);
    v[0]
}

/// Overwrites every element of `xs` with the logistic sigmoid
/// `1 / (1 + e^{-x})`, that expression exactly, with `e^{-x}` from
/// [`exp_in_place`].
pub fn sigmoid_in_place(xs: &mut [f32]) {
    simd::run(Map(xs, sigmoid_lane));
}

/// The logistic sigmoid of one value: [`sigmoid_in_place`] on a single
/// lane, so a scalar caller gets the bits of the batched one.
pub fn sigmoid(x: f32) -> f32 {
    let mut v = [x];
    sigmoid_in_place(&mut v);
    v[0]
}

/// An element-wise kernel: `f` on every element of the slice.
struct Map<'a, F>(&'a mut [f32], F);

impl<F: Fn(f32) -> f32> Kernel for Map<'_, F> {
    /// Lanes go 16 at a time with AVX-512F and 8 at a time otherwise.
    #[inline(always)]
    fn run<const LEVEL: u8>(self) {
        let Map(xs, f) = self;
        if LEVEL >= AVX512 {
            groups::<16>(xs, f);
        } else {
            groups::<8>(xs, f);
        }
    }
}

#[inline(always)]
fn groups<const N: usize>(xs: &mut [f32], f: impl Fn(f32) -> f32) {
    let (groups, rest) = xs.as_chunks_mut::<N>();
    for group in groups {
        for x in group {
            *x = f(*x);
        }
    }
    for x in rest {
        *x = f(*x);
    }
}

/// `e_expf.c` on one lane. The reduction `x·N/ln2 = k + r` is fused, as
/// in glibc's FMA variant, the `expf` its x86-64 libm runs on CPUs with
/// FMA: with it unfused two inputs (`0x4202422f`, `0xc27c65d9`) come
/// out one ulp low. Fusing the polynomial too changes no result, so it is left
/// unfused. `mul_add` rounds once by definition, so every build gives
/// the same bits; the baseline build calls libm's `fma` for it.
#[inline(always)]
fn exp_lane(x: f32) -> f32 {
    let abstop = (x.to_bits() >> 20) & 0x7ff;
    let xd = f64::from(x);
    let k = INVLN2N.mul_add(xd, SHIFT);
    let ki = k.to_bits();
    let kd = k - SHIFT;
    let r = INVLN2N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let y = (C0 * r + C1) * (r * r) + (C2 * r + 1.0);
    let y = (y * s) as f32;
    // The C code's |x| ≥ 88 cases; elsewhere none of the selects fires.
    // Inf and NaN give x + x; above the overflow bound +inf (+inf too,
    // which is its x + x); below the underflow bound +0 (-inf too,
    // which the C code tests first).
    let y = select(abstop >= 0x7f8, x + x, y);
    let y = select(x > EXP_OVERFLOW, f32::INFINITY, y);
    select(x < EXP_UNDERFLOW, 0.0, y)
}

#[inline(always)]
fn sigmoid_lane(x: f32) -> f32 {
    1.0 / (1.0 + exp_lane(-x))
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

    /// Every build this CPU runs, on `xs`, against `libm`, bit for bit.
    fn assert_matches_libm<F>(name: &str, xs: &[f32], lane: F, libm: fn(f32) -> f32)
    where
        F: Fn(f32) -> f32 + Copy,
    {
        let builds: Vec<(u8, Vec<f32>)> = simd::levels()
            .into_iter()
            .map(|level| {
                let mut ys = xs.to_vec();
                simd::run_at(level, Map(&mut ys, lane));
                (level, ys)
            })
            .collect();
        for (i, x) in xs.iter().enumerate() {
            let want = libm(*x).to_bits();
            for (level, ys) in &builds {
                let got = ys[i].to_bits();
                assert!(
                    got == want,
                    "{name}({:#010x}), level {level}: libm {want:#010x}, owned {got:#010x}",
                    x.to_bits()
                );
            }
        }
    }

    /// `probes` at every offset within a 16-lane group, so that every
    /// lane position and every remainder length is hit.
    fn at_every_offset(probes: &[u32], check: impl Fn(&[f32])) {
        for offset in 0..16 {
            let mut xs: Vec<f32> = vec![0.5; offset];
            xs.extend(probes.iter().map(|&b| f32::from_bits(b)));
            check(&xs);
        }
    }

    /// Bit patterns `b - 2 ..= b + 2` for each `b`, with both signs.
    fn around(bounds: &[u32], probes: &mut Vec<u32>) {
        for &b in bounds {
            for d in -2i32..=2 {
                let m = b.wrapping_add_signed(d) & 0x7fff_ffff;
                probes.extend([m, m | 0x8000_0000]);
            }
        }
    }

    /// Signed zeros, subnormals, extremes, infinities, and quiet and
    /// signalling NaNs with payloads.
    const SPECIALS: [u32; 12] = [
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
    ];

    /// Every case boundary of `tanhf` and `expm1f` at ±2 ulp, the
    /// special values, and a stride-65,537 sweep over all 2³² bit
    /// patterns, through every build.
    #[test]
    fn tanh_matches_libm_on_boundaries_and_a_sweep() {
        let mut probes: Vec<u32> = SPECIALS.to_vec();
        // |x| bounds in tanhf, and the |x| = ∓u/2 images of expm1f's.
        around(
            &[
                0x2400_0000,               // 2⁻⁵⁵
                0x3f80_0000,               // 1
                0x41b0_0000,               // 22
                0x3300_0000 - 0x0080_0000, // expm1 tiny: 2|x| = 2⁻²⁵
                0x3eb1_7218 - 0x0080_0000, // expm1 k = 0 / -1: 2|x| = 0.5 ln2
                0x3f85_1592 - 0x0080_0000, // expm1 k = -1 / -2: 2|x| = 1.5 ln2
            ],
            &mut probes,
        );
        // expm1's k cut-offs, where 2|x|/ln2 crosses a half-integer
        // (k = -2 | -3 at 2.5, 22 | 23 at 22.5, 56 | 57 at 56.5, ...),
        // with k = 3 and 63, the extremes tanh reaches.
        let cuts: Vec<u32> = [2.5f32, 3.0, 22.5, 23.0, 23.5, 56.5, 57.0, 57.5, 63.0]
            .iter()
            .map(|m| (m * std::f32::consts::LN_2 / 2.0).to_bits())
            .collect();
        around(&cuts, &mut probes);
        probes.extend((0..=u32::MAX).step_by(65_537));
        at_every_offset(&probes, |xs| {
            assert_matches_libm("tanh", xs, tanh_lane, f32::tanh)
        });
        let mut xs: Vec<f32> = probes.iter().map(|&b| f32::from_bits(b)).collect();
        tanh_in_place(&mut xs);
        for (&b, y) in probes.iter().zip(&xs) {
            assert_eq!(y.to_bits(), f32::from_bits(b).tanh().to_bits());
        }
    }

    /// The two inputs where glibc's FMA and non-FMA builds of `expf`
    /// differ, with the FMA build's results. An unfused range reduction
    /// gives the non-FMA build's, one ulp lower.
    const EXP_PINNED: [(u32, u32); 2] = [(0x4202_422f, 0x56fc_9f1c), (0xc27c_65d9, 0x11fa_2993)];

    /// `e^x` from glibc's FMA build of `expf`: the host's `f32::exp`,
    /// except at the inputs [`EXP_PINNED`] holds, so a host whose libm
    /// runs the non-FMA build checks the same bits.
    fn exp_reference(x: f32) -> f32 {
        match EXP_PINNED.iter().find(|&&(b, _)| b == x.to_bits()) {
            Some(&(_, y)) => f32::from_bits(y),
            None => x.exp(),
        }
    }

    /// `expf`'s case boundaries at ±2 ulp (|x| = 88, the overflow and
    /// underflow thresholds), the special values, the subnormal-result
    /// range, a stride-65,537 sweep, and the two inputs an unfused
    /// range reduction gets wrong, through every build; then the
    /// public entries on the same inputs.
    #[test]
    fn exp_matches_libm_on_boundaries_and_a_sweep() {
        let mut probes: Vec<u32> = SPECIALS.to_vec();
        around(&[0x42b0_0000, 0x42b1_7217, 0x42cf_f1b4], &mut probes);
        probes.extend(EXP_PINNED.map(|(b, _)| b));
        // Results are subnormal for -103.97 < x < -87.34.
        probes.extend((0xc2ae_ac50..0xc2cf_f1b4u32).step_by(61));
        probes.extend((0..=u32::MAX).step_by(65_537));
        at_every_offset(&probes, |xs| {
            assert_matches_libm("exp", xs, exp_lane, exp_reference)
        });
        let xs: Vec<f32> = probes.iter().map(|&b| f32::from_bits(b)).collect();
        let mut batched = xs.clone();
        exp_in_place(&mut batched);
        let mut batched_sigmoid = xs.clone();
        sigmoid_in_place(&mut batched_sigmoid);
        for ((x, e), sg) in xs.iter().zip(&batched).zip(&batched_sigmoid) {
            let want = exp_reference(*x).to_bits();
            assert_eq!(e.to_bits(), want, "exp_in_place({x:e})");
            assert_eq!(exp(*x).to_bits(), want, "exp({x:e})");
            let want = (1.0 / (1.0 + exp_reference(-x))).to_bits();
            assert_eq!(sg.to_bits(), want, "sigmoid_in_place({x:e})");
            assert_eq!(sigmoid(*x).to_bits(), want, "sigmoid({x:e})");
        }
    }

    /// All 2³² inputs of `lane` against `libm`, every build, exact
    /// bits, over every available thread.
    fn assert_matches_libm_on_all_inputs<F>(name: &str, lane: F, libm: fn(f32) -> f32)
    where
        F: Fn(f32) -> f32 + Copy + Send,
    {
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
                        assert_matches_libm(name, &xs, lane, libm);
                        lo = hi;
                    }
                });
            }
        });
    }

    /// All 2³² inputs, every build, exact bits: a few minutes on two
    /// threads in release, most of it in libm's `tanhf`.
    /// `scripts/ci.sh` runs it.
    #[test]
    #[ignore = "exhaustive: run in release with --ignored"]
    fn tanh_matches_libm_on_all_inputs() {
        assert_matches_libm_on_all_inputs("tanh", tanh_lane, f32::tanh);
    }

    /// All 2³² inputs, every build, exact bits against glibc's FMA
    /// build (see [`exp_reference`]): about a minute on two threads in
    /// release. `scripts/ci.sh` runs it.
    #[test]
    #[ignore = "exhaustive: run in release with --ignored"]
    fn exp_matches_libm_on_all_inputs() {
        assert_matches_libm_on_all_inputs("exp", exp_lane, exp_reference);
    }
}
