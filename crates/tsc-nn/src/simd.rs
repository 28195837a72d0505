//! Run-time choice among the builds of one kernel body.
//!
//! Every `tsc-nn` kernel (the matmul, `t_matmul` and the element-wise
//! [`math`](crate::math) functions) has one `#[inline(always)]` Rust
//! body, generic over a build level given as a const parameter. [`run`]
//! builds it three times: for baseline x86-64, inside
//! `#[target_feature(enable = "avx2,fma")]` and inside
//! `#[target_feature(enable = "avx512f")]`. It runs the widest build the
//! CPU has. Other targets build the baseline only.
//!
//! The builds give the same bits. Lane counts and strip widths are part
//! of no kernel's contract; Rust never contracts `a * b + c` into a
//! fused multiply-add, so enabling `fma` (which `avx512f` implies) only
//! changes how an explicit `mul_add` lowers; and SSE, AVX and AVX-512
//! lanes round alike under one MXCSR. There are no hand-written
//! intrinsics: the compiler vectorizes the same Rust.

/// Baseline x86-64 (SSE2), and every other target.
pub(crate) const BASE: u8 = 0;
/// AVX2 with FMA: sixteen 256-bit registers.
pub(crate) const AVX2: u8 = 1;
/// AVX-512F: thirty-two 512-bit registers.
pub(crate) const AVX512: u8 = 2;

/// A kernel body with its arguments, run by [`run`] or [`run_at`].
pub(crate) trait Kernel {
    /// The body, built at `LEVEL`. Implementations are
    /// `#[inline(always)]`, so each build gets its own copy.
    fn run<const LEVEL: u8>(self);
}

/// Runs `kernel` in the widest build this CPU has.
pub(crate) fn run<K: Kernel>(kernel: K) {
    run_at(AVX512, kernel);
}

/// Runs `kernel` in the widest build this CPU has, up to `level`.
pub(crate) fn run_at<K: Kernel>(level: u8, kernel: K) {
    #[cfg(target_arch = "x86_64")]
    {
        if level >= AVX512 && available(AVX512) {
            // SAFETY: `avx512` requires only AVX-512F, which `available`
            // just detected.
            return unsafe { avx512(kernel) };
        }
        if level >= AVX2 && available(AVX2) {
            // SAFETY: `avx2` requires only AVX2 and FMA, which
            // `available` just detected.
            return unsafe { avx2(kernel) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = level;
    kernel.run::<BASE>();
}

/// Whether this CPU runs the build at `level`: the one place that says
/// which features each build needs. Other targets have the baseline
/// build only.
#[cfg(any(test, target_arch = "x86_64"))]
fn available(level: u8) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::is_x86_feature_detected as has;
        match level {
            AVX512 => has!("avx512f"),
            AVX2 => has!("avx2") && has!("fma"),
            _ => true,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        level == BASE
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn avx512<K: Kernel>(kernel: K) {
    kernel.run::<AVX512>();
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
fn avx2<K: Kernel>(kernel: K) {
    kernel.run::<AVX2>();
}

/// Every build this CPU runs, baseline first: each kernel test runs
/// each of them explicitly.
#[cfg(test)]
pub(crate) fn levels() -> Vec<u8> {
    [BASE, AVX2, AVX512]
        .into_iter()
        .filter(|&level| available(level))
        .collect()
}
