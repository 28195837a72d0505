//! Plain-text persistence for parameter sets and optimizer state.
//!
//! A dependency-free, human-inspectable format for saving trained
//! weights (e.g. a trained PairUpLight policy) and reloading them later:
//!
//! ```text
//! tsc-nn-params v1
//! <tensor count>
//! <name> <rows> <cols>
//! <row-major f32 values, space separated>
//! …
//! ```
//!
//! The companion optimizer stream ([`save_adam`]/[`load_adam`]) extends
//! the same format so a checkpoint can capture the *full* training
//! state — Adam's first/second moments **and its timestep** `t`, without
//! which bias correction restarts and a resumed run diverges from an
//! uninterrupted one:
//!
//! ```text
//! tsc-nn-adam v1
//! <lr> <beta1> <beta2> <eps> <t> <tensor count>
//! <rows> <cols>
//! <m values, space separated>
//! <v values, space separated>
//! …
//! ```
//!
//! Values round-trip exactly (written via the shortest-precise float
//! formatting of Rust's `{:?}`).

use std::error::Error;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};

use crate::optim::Adam;
use crate::params::Params;
use crate::tensor::Tensor;

/// Errors produced when loading a parameter file.
#[derive(Debug)]
#[non_exhaustive]
pub enum LoadError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a `tsc-nn-params v1` file or is malformed.
    Format(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Format(msg) => write!(f, "malformed parameter file: {msg}"),
        }
    }
}

impl Error for LoadError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            LoadError::Format(_) => None,
        }
    }
}

impl From<std::io::Error> for LoadError {
    fn from(e: std::io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Writes `params` in the v1 text format.
///
/// # Errors
///
/// Propagates writer failures.
pub fn save_params<W: Write>(params: &Params, mut w: W) -> std::io::Result<()> {
    writeln!(w, "tsc-nn-params v1")?;
    writeln!(w, "{}", params.len())?;
    for id in params.ids() {
        let t = params.value(id);
        writeln!(w, "{} {} {}", params.name(id), t.rows(), t.cols())?;
        let mut first = true;
        for v in t.data() {
            if !first {
                write!(w, " ")?;
            }
            write!(w, "{v:?}")?;
            first = false;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Reads a parameter set written by [`save_params`].
///
/// # Errors
///
/// Returns [`LoadError::Format`] on malformed content and
/// [`LoadError::Io`] on reader failures.
pub fn load_params<R: Read>(r: R) -> Result<Params, LoadError> {
    let mut lines = BufReader::new(r).lines();
    let mut next = || -> Result<String, LoadError> {
        lines
            .next()
            .ok_or_else(|| LoadError::Format("unexpected end of file".into()))?
            .map_err(LoadError::from)
    };
    let header = next()?;
    if header.trim() != "tsc-nn-params v1" {
        return Err(LoadError::Format(format!("bad header {header:?}")));
    }
    let count: usize = next()?
        .trim()
        .parse()
        .map_err(|e| LoadError::Format(format!("bad tensor count: {e}")))?;
    let mut params = Params::new();
    for i in 0..count {
        let meta = next()?;
        let mut parts = meta.split_whitespace();
        let name = parts
            .next()
            .ok_or_else(|| LoadError::Format(format!("tensor {i}: missing name")))?
            .to_string();
        let rows: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| LoadError::Format(format!("tensor {name}: bad rows")))?;
        let cols: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| LoadError::Format(format!("tensor {name}: bad cols")))?;
        let value = parse_tensor(rows, cols, &next()?, &format!("tensor {name}"))?;
        params.add(name, value);
    }
    Ok(params)
}

/// Writes the full Adam optimizer state (hyper-parameters, timestep
/// `t`, and both moment vectors) in the v1 text format.
///
/// # Errors
///
/// Propagates writer failures.
pub fn save_adam<W: Write>(opt: &Adam, mut w: W) -> std::io::Result<()> {
    let (beta1, beta2) = opt.betas();
    let (m, v) = opt.moments();
    writeln!(w, "tsc-nn-adam v1")?;
    writeln!(
        w,
        "{:?} {:?} {:?} {:?} {} {}",
        opt.lr(),
        beta1,
        beta2,
        opt.epsilon(),
        opt.timestep(),
        m.len()
    )?;
    let write_row = |w: &mut W, t: &Tensor| -> std::io::Result<()> {
        let mut first = true;
        for x in t.data() {
            if !first {
                write!(w, " ")?;
            }
            write!(w, "{x:?}")?;
            first = false;
        }
        writeln!(w)
    };
    for (mi, vi) in m.iter().zip(v) {
        writeln!(w, "{} {}", mi.rows(), mi.cols())?;
        write_row(&mut w, mi)?;
        write_row(&mut w, vi)?;
    }
    Ok(())
}

/// Reads Adam optimizer state written by [`save_adam`].
///
/// # Errors
///
/// Returns [`LoadError::Format`] on malformed content and
/// [`LoadError::Io`] on reader failures.
pub fn load_adam<R: Read>(r: R) -> Result<Adam, LoadError> {
    let mut lines = BufReader::new(r).lines();
    let mut next = || -> Result<String, LoadError> {
        lines
            .next()
            .ok_or_else(|| LoadError::Format("unexpected end of file".into()))?
            .map_err(LoadError::from)
    };
    let header = next()?;
    if header.trim() != "tsc-nn-adam v1" {
        return Err(LoadError::Format(format!("bad adam header {header:?}")));
    }
    let meta = next()?;
    let mut parts = meta.split_whitespace();
    let mut scalar = |what: &str| -> Result<f32, LoadError> {
        parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| LoadError::Format(format!("bad adam {what}")))
    };
    let lr = scalar("lr")?;
    let beta1 = scalar("beta1")?;
    let beta2 = scalar("beta2")?;
    let eps = scalar("eps")?;
    let t: u64 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| LoadError::Format("bad adam timestep".into()))?;
    let count: usize = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| LoadError::Format("bad adam tensor count".into()))?;
    // `count` comes from the file: grow with what is actually read
    // rather than reserving it up front.
    let mut m = Vec::new();
    let mut v = Vec::new();
    for i in 0..count {
        let shape = next()?;
        let mut parts = shape.split_whitespace();
        let rows: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| LoadError::Format(format!("moment {i}: bad rows")))?;
        let cols: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| LoadError::Format(format!("moment {i}: bad cols")))?;
        m.push(parse_tensor(
            rows,
            cols,
            &next()?,
            &format!("moment {i} (m)"),
        )?);
        v.push(parse_tensor(
            rows,
            cols,
            &next()?,
            &format!("moment {i} (v)"),
        )?);
    }
    Adam::from_state(lr, beta1, beta2, eps, t, m, v).map_err(LoadError::Format)
}

/// Parses one line of `rows × cols` space-separated values for the
/// tensor named by `what`. The shape comes from the file, so its
/// element count is checked arithmetic: a shape whose product
/// overflows is a format error, never a panic or a tensor without
/// data.
fn parse_tensor(rows: usize, cols: usize, line: &str, what: &str) -> Result<Tensor, LoadError> {
    let len = rows
        .checked_mul(cols)
        .ok_or_else(|| LoadError::Format(format!("{what}: shape {rows}x{cols} overflows")))?;
    let data: Vec<f32> = line
        .split_whitespace()
        .map(|s| {
            s.parse::<f32>()
                .map_err(|e| LoadError::Format(format!("{what}: bad value {s:?}: {e}")))
        })
        .collect::<Result<_, _>>()?;
    if data.len() != len {
        return Err(LoadError::Format(format!(
            "{what}: expected {len} values, got {}",
            data.len()
        )));
    }
    Ok(Tensor::from_vec(rows, cols, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_params() -> Params {
        let mut rng = StdRng::seed_from_u64(3);
        let mut p = Params::new();
        p.add("w1", Tensor::randn(3, 4, 1.0, &mut rng));
        p.add("b1", Tensor::zeros(1, 4));
        p.add(
            "odd",
            Tensor::from_rows(&[&[f32::MIN_POSITIVE, -0.0, 1e30]]),
        );
        p
    }

    #[test]
    fn round_trip_is_exact() {
        let p = sample_params();
        let mut buf = Vec::new();
        save_params(&p, &mut buf).unwrap();
        let q = load_params(buf.as_slice()).unwrap();
        assert_eq!(p.len(), q.len());
        for (a, b) in p.ids().zip(q.ids()) {
            assert_eq!(p.name(a), q.name(b));
            assert_eq!(p.value(a), q.value(b), "{}", p.name(a));
        }
    }

    #[test]
    fn header_is_validated() {
        let err = load_params("not a params file\n".as_bytes()).unwrap_err();
        assert!(matches!(err, LoadError::Format(_)));
        assert!(err.to_string().contains("bad header"));
    }

    #[test]
    fn truncated_file_is_rejected() {
        let p = sample_params();
        let mut buf = Vec::new();
        save_params(&p, &mut buf).unwrap();
        let truncated = &buf[..buf.len() / 2];
        assert!(load_params(truncated).is_err());
    }

    #[test]
    fn wrong_value_count_is_rejected() {
        let text = "tsc-nn-params v1\n1\nw 2 2\n1.0 2.0 3.0\n";
        let err = load_params(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 4 values"));
    }

    #[test]
    fn empty_param_set_round_trips() {
        let p = Params::new();
        let mut buf = Vec::new();
        save_params(&p, &mut buf).unwrap();
        let q = load_params(buf.as_slice()).unwrap();
        assert!(q.is_empty());
    }

    /// Adam state round-trips exactly, including the timestep that
    /// drives bias correction — a stepped-then-restored optimizer must
    /// continue producing bit-identical updates.
    #[test]
    fn adam_round_trip_preserves_timestep_and_moments() {
        let mut params = sample_params();
        let mut opt = Adam::new(&params, 0.01);
        // Take a few steps so t, m, and v are all non-trivial.
        for id in params.ids().collect::<Vec<_>>() {
            let g = Tensor::full(params.value(id).rows(), params.value(id).cols(), 0.5);
            params.accumulate_grad(id, &g);
        }
        opt.step(&mut params);
        let mut buf = Vec::new();
        save_adam(&opt, &mut buf).unwrap();
        let restored = load_adam(buf.as_slice()).unwrap();
        assert_eq!(restored.timestep(), opt.timestep());
        assert_eq!(restored.lr(), opt.lr());
        assert_eq!(restored.betas(), opt.betas());
        assert_eq!(restored.epsilon(), opt.epsilon());
        let (m_a, v_a) = opt.moments();
        let (m_b, v_b) = restored.moments();
        assert_eq!(m_a, m_b);
        assert_eq!(v_a, v_b);
        assert!(restored.matches(&params));
    }

    /// A shape whose element count overflows `usize` is a format error.
    /// Unchecked, the product panics in debug builds and in release
    /// wraps to 0, loading a 2³²×2³² tensor that holds no data.
    #[test]
    fn overflowing_tensor_shape_is_rejected() {
        let text = "tsc-nn-params v1\n1\nw 4294967296 4294967296\n\n";
        let err = load_params(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
        let adam = "tsc-nn-adam v1\n0.001 0.9 0.999 1e-8 0 1\n4294967296 4294967296\n\n\n";
        let err = load_adam(adam.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("overflows"), "{err}");
    }

    /// The Adam tensor count is read, not reserved: reserving `u64::MAX`
    /// tensors aborts with a capacity overflow.
    #[test]
    fn huge_adam_tensor_count_is_rejected() {
        let text = "tsc-nn-adam v1\n0.001 0.9 0.999 1e-8 0 18446744073709551615\n";
        let err = load_adam(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unexpected end of file"), "{err}");
    }

    /// Parsed hyperparameters that would poison the next step are
    /// typed errors, not an optimizer.
    #[test]
    fn adam_hostile_hyperparameters_are_rejected() {
        for (meta, what) in [
            ("NaN 0.9 0.999 1e-8", "learning rate"),
            ("0.001 1 0.999 1e-8", "beta1"),
            ("0.001 0.9 0.999 0", "epsilon"),
        ] {
            let text = format!("tsc-nn-adam v1\n{meta} 0 0\n");
            let err = load_adam(text.as_bytes()).unwrap_err();
            assert!(matches!(err, LoadError::Format(_)), "{meta}: {err}");
            assert!(err.to_string().contains(what), "{meta}: {err}");
        }
    }

    #[test]
    fn adam_truncated_stream_is_rejected() {
        let params = sample_params();
        let opt = Adam::new(&params, 0.01);
        let mut buf = Vec::new();
        save_adam(&opt, &mut buf).unwrap();
        assert!(load_adam(&buf[..buf.len() / 2]).is_err());
        assert!(load_adam("not an adam file\n".as_bytes()).is_err());
    }
}
