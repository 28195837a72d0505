//! Declarative scenario specifications and their text format.
//!
//! A [`ScenarioSpec`] is the *source language* of the compiler: a
//! topology, a list of demand programs, and a list of incidents, plus
//! the seed every stochastic choice derives from. Specs are plain Rust
//! values built with struct literals/builders, and round-trip through a
//! line-oriented text format (`tsc-scenario spec v1`) so worlds can be
//! checked into files and passed to bench binaries via `--scenario`.
//!
//! The vendored `serde` stand-in derives are no-ops (the build
//! environment has no registry access), so — like the checkpoint
//! format in the core crate — serialization here is hand-rolled:
//! [`ScenarioSpec::to_text`] / [`ScenarioSpec::from_text`].

use std::collections::BTreeMap;

use tsc_sim::scenario::patterns::FlowPattern;
use tsc_sim::SimError;

/// Header line of the spec text format.
pub const SPEC_HEADER: &str = "tsc-scenario spec v1";

/// Most signalized intersections one topology may generate. Generators
/// size their node tables from the spec, so an unbounded spec would
/// abort on a failed allocation instead of failing with an error; the
/// bound sits far above `city_spec(3000, _)`'s 3,025.
pub const MAX_INTERSECTIONS: usize = 1 << 16;

/// A complete declarative scenario description.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (becomes `Scenario::name`).
    pub name: String,
    /// Master seed: every stochastic compile decision derives from it.
    pub seed: u64,
    /// Network topology to generate.
    pub topology: TopologySpec,
    /// Demand programs, compiled in order onto the topology's boundary.
    pub demand: Vec<DemandProgram>,
    /// Incidents, lowered onto the chaos-plan machinery.
    pub incidents: Vec<IncidentSpec>,
}

/// A generated network topology.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum TopologySpec {
    /// The paper's rectangular lattice (two-lane arterials, one-lane
    /// avenues), identical to `tsc_sim::scenario::grid::Grid`.
    Grid {
        /// Intersection columns.
        cols: usize,
        /// Intersection rows.
        rows: usize,
        /// Spacing between intersections (m).
        spacing: f64,
    },
    /// A seeded irregular city graph: a jittered lattice with a random
    /// subset of interior edges removed (degree never drops below 2)
    /// and mixed one/two-lane links. With the Monaco defaults this
    /// reproduces the legacy `scenario::monaco` builder bit-for-bit.
    City {
        /// Lattice columns before perturbation.
        cols: usize,
        /// Lattice rows before perturbation.
        rows: usize,
        /// Mean link length (m).
        spacing: f64,
        /// Fraction of interior edges removed.
        edge_removal: f64,
        /// Probability that a kept edge is two-lane.
        two_lane_frac: f64,
        /// Position jitter as a fraction of `spacing`.
        jitter: f64,
    },
    /// An east–west arterial of `length` signalized intersections with
    /// a north and south side-street terminal at every one — the
    /// classic coordinated-corridor benchmark shape.
    Corridor {
        /// Number of signalized intersections along the arterial.
        length: usize,
        /// Spacing between intersections (m).
        spacing: f64,
    },
    /// A rectangular ring road on the perimeter of a `cols × rows`
    /// lattice; every ring node is signalized and has one outward
    /// terminal.
    Ring {
        /// Lattice columns.
        cols: usize,
        /// Lattice rows.
        rows: usize,
        /// Spacing between adjacent ring nodes (m).
        spacing: f64,
    },
}

impl TopologySpec {
    /// The spec-format keyword of this topology kind.
    pub fn kind(&self) -> &'static str {
        match self {
            TopologySpec::Grid { .. } => "grid",
            TopologySpec::City { .. } => "city",
            TopologySpec::Corridor { .. } => "corridor",
            TopologySpec::Ring { .. } => "ring",
        }
    }

    /// Signalized intersections this topology generates, or `None` when
    /// the count overflows `usize`.
    fn intersections(&self) -> Option<usize> {
        match *self {
            TopologySpec::Grid { cols, rows, .. } | TopologySpec::City { cols, rows, .. } => {
                cols.checked_mul(rows)
            }
            TopologySpec::Corridor { length, .. } => Some(length),
            // The lattice perimeter: 2 * (cols + rows) - 4 nodes.
            TopologySpec::Ring { cols, rows, .. } => cols
                .checked_add(rows)?
                .checked_mul(2)
                .map(|n| n.saturating_sub(4)),
        }
    }

    /// Checks the topology against [`MAX_INTERSECTIONS`].
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] when the topology would
    /// generate more intersections than that, or a count that overflows.
    pub(crate) fn check_size(&self) -> Result<(), SimError> {
        match self.intersections() {
            Some(n) if n <= MAX_INTERSECTIONS => Ok(()),
            n => Err(SimError::InvalidConfig(format!(
                "{} topology generates {} intersections; at most {MAX_INTERSECTIONS} are supported",
                self.kind(),
                n.map_or_else(|| "more than usize::MAX".to_string(), |n| n.to_string())
            ))),
        }
    }
}

/// A demand program: a family of OD flows with a shaped rate profile.
///
/// All programs except [`Conflicts`](Self::Conflicts) pick their OD
/// terminal pairs by pure splitmix64 hashing of `(seed, program index,
/// pair index, attempt)` — no RNG state is consumed, so programs are
/// order-insensitive to each other. `Conflicts` reproduces the legacy
/// Monaco sampler, which draws from the compile-wide `StdRng` stream.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum DemandProgram {
    /// One of the paper's five Fig. 6 flow patterns on the boundary.
    Pattern {
        /// Which pattern.
        pattern: FlowPattern,
        /// Peak rate per OD pair (veh/h).
        peak_rate: f64,
        /// Base rate at ramp ends (veh/h).
        base_rate: f64,
    },
    /// Constant background traffic between hashed OD pairs.
    Uniform {
        /// Number of OD pairs.
        pairs: usize,
        /// Rate per pair (veh/h).
        rate: f64,
        /// Profile start (s).
        start: f64,
        /// Profile end (s).
        end: f64,
    },
    /// Staggered rush-hour ramps: pair `k` onsets `k % 3` stagger
    /// steps late, so waves of demand overlap like the paper's groups.
    RushHour {
        /// Number of OD pairs.
        pairs: usize,
        /// Peak rate per pair (veh/h).
        peak_rate: f64,
        /// Base rate at ramp ends (veh/h).
        base_rate: f64,
        /// First onset (s).
        onset: f64,
        /// Seconds from onset to peak.
        ramp: f64,
        /// Stagger between onset groups (s).
        stagger: f64,
    },
    /// A day-long double-hump profile (morning and evening peaks) per
    /// hashed OD pair.
    Day {
        /// Number of OD pairs.
        pairs: usize,
        /// Peak rate per pair (veh/h).
        peak_rate: f64,
        /// Day length (s); peaks sit at ~30% and ~75% of it.
        horizon: f64,
    },
    /// Marching jam waves: `waves` successive heavy pulses, each
    /// `width` seconds long, starting `period` seconds apart.
    JamWave {
        /// Number of waves.
        waves: usize,
        /// OD pairs per wave.
        pairs_per_wave: usize,
        /// Peak rate per pair (veh/h).
        peak_rate: f64,
        /// Seconds between wave onsets.
        period: f64,
        /// Wave duration (s).
        width: f64,
    },
    /// An event surge: many origins converge on a few sink terminals
    /// in a single pulse (stadium ingress).
    Surge {
        /// Number of distinct sink terminals.
        sinks: usize,
        /// Number of OD pairs (origins are spread, destinations cycle
        /// through the sinks).
        pairs: usize,
        /// Peak rate per pair (veh/h).
        peak_rate: f64,
        /// Pulse start (s).
        start: f64,
        /// Pulse duration (s).
        width: f64,
    },
    /// The legacy Monaco conflicting-flow sampler: terminal pairs drawn
    /// from the compile-wide RNG with a route check, staggered onsets
    /// in {0, 300, 600} s. Kept bit-compatible with the deleted
    /// bespoke builder (pinned by test).
    Conflicts {
        /// Number of OD flows.
        flows: usize,
        /// Peak rate per flow (veh/h). Paper: 975.
        peak_rate: f64,
        /// Demand end time (s).
        horizon: f64,
    },
}

impl DemandProgram {
    /// The spec-format keyword of this program kind.
    pub fn kind(&self) -> &'static str {
        match self {
            DemandProgram::Pattern { .. } => "pattern",
            DemandProgram::Uniform { .. } => "uniform",
            DemandProgram::RushHour { .. } => "rush_hour",
            DemandProgram::Day { .. } => "day",
            DemandProgram::JamWave { .. } => "jam_wave",
            DemandProgram::Surge { .. } => "surge",
            DemandProgram::Conflicts { .. } => "conflicts",
        }
    }
}

/// An incident: a lane closure on one link for a time window, lowered
/// onto the chaos-plan machinery (dead detector on the link + forced
/// all-red at its downstream intersection while blocked).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct IncidentSpec {
    /// Index of the blocked link in the compiled network.
    pub link: usize,
    /// First second the incident is active.
    pub start: u32,
    /// First second it is cleared.
    pub end: u32,
}

/// Formats an `f64` so it round-trips exactly through `parse::<f64>()`.
fn fmt_f64(v: f64) -> String {
    // `{:?}` prints the shortest representation that parses back to
    // the same bits (Rust's float formatting guarantee).
    format!("{v:?}")
}

impl ScenarioSpec {
    /// Renders the spec in the `tsc-scenario spec v1` text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(SPEC_HEADER);
        out.push('\n');
        out.push_str(&format!("name {}\n", self.name));
        out.push_str(&format!("seed {}\n", self.seed));
        match self.topology {
            TopologySpec::Grid {
                cols,
                rows,
                spacing,
            } => out.push_str(&format!(
                "topology grid cols={cols} rows={rows} spacing={}\n",
                fmt_f64(spacing)
            )),
            TopologySpec::City {
                cols,
                rows,
                spacing,
                edge_removal,
                two_lane_frac,
                jitter,
            } => out.push_str(&format!(
                "topology city cols={cols} rows={rows} spacing={} edge_removal={} \
                 two_lane_frac={} jitter={}\n",
                fmt_f64(spacing),
                fmt_f64(edge_removal),
                fmt_f64(two_lane_frac),
                fmt_f64(jitter)
            )),
            TopologySpec::Corridor { length, spacing } => out.push_str(&format!(
                "topology corridor length={length} spacing={}\n",
                fmt_f64(spacing)
            )),
            TopologySpec::Ring {
                cols,
                rows,
                spacing,
            } => out.push_str(&format!(
                "topology ring cols={cols} rows={rows} spacing={}\n",
                fmt_f64(spacing)
            )),
        }
        for d in &self.demand {
            match *d {
                DemandProgram::Pattern {
                    pattern,
                    peak_rate,
                    base_rate,
                } => out.push_str(&format!(
                    "demand pattern pattern={} peak_rate={} base_rate={}\n",
                    pattern.number(),
                    fmt_f64(peak_rate),
                    fmt_f64(base_rate)
                )),
                DemandProgram::Uniform {
                    pairs,
                    rate,
                    start,
                    end,
                } => out.push_str(&format!(
                    "demand uniform pairs={pairs} rate={} start={} end={}\n",
                    fmt_f64(rate),
                    fmt_f64(start),
                    fmt_f64(end)
                )),
                DemandProgram::RushHour {
                    pairs,
                    peak_rate,
                    base_rate,
                    onset,
                    ramp,
                    stagger,
                } => out.push_str(&format!(
                    "demand rush_hour pairs={pairs} peak_rate={} base_rate={} onset={} \
                     ramp={} stagger={}\n",
                    fmt_f64(peak_rate),
                    fmt_f64(base_rate),
                    fmt_f64(onset),
                    fmt_f64(ramp),
                    fmt_f64(stagger)
                )),
                DemandProgram::Day {
                    pairs,
                    peak_rate,
                    horizon,
                } => out.push_str(&format!(
                    "demand day pairs={pairs} peak_rate={} horizon={}\n",
                    fmt_f64(peak_rate),
                    fmt_f64(horizon)
                )),
                DemandProgram::JamWave {
                    waves,
                    pairs_per_wave,
                    peak_rate,
                    period,
                    width,
                } => out.push_str(&format!(
                    "demand jam_wave waves={waves} pairs_per_wave={pairs_per_wave} \
                     peak_rate={} period={} width={}\n",
                    fmt_f64(peak_rate),
                    fmt_f64(period),
                    fmt_f64(width)
                )),
                DemandProgram::Surge {
                    sinks,
                    pairs,
                    peak_rate,
                    start,
                    width,
                } => out.push_str(&format!(
                    "demand surge sinks={sinks} pairs={pairs} peak_rate={} start={} width={}\n",
                    fmt_f64(peak_rate),
                    fmt_f64(start),
                    fmt_f64(width)
                )),
                DemandProgram::Conflicts {
                    flows,
                    peak_rate,
                    horizon,
                } => out.push_str(&format!(
                    "demand conflicts flows={flows} peak_rate={} horizon={}\n",
                    fmt_f64(peak_rate),
                    fmt_f64(horizon)
                )),
            }
        }
        for i in &self.incidents {
            out.push_str(&format!(
                "incident link={} start={} end={}\n",
                i.link, i.start, i.end
            ));
        }
        out
    }

    /// Parses the `tsc-scenario spec v1` text format.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidConfig`] naming the offending line
    /// for any malformed input.
    pub fn from_text(text: &str) -> Result<Self, SimError> {
        let mut lines = text.lines().enumerate();
        match lines.next() {
            Some((_, first)) if first.trim() == SPEC_HEADER => {}
            _ => {
                return Err(SimError::InvalidConfig(format!(
                    "spec must start with '{SPEC_HEADER}'"
                )))
            }
        }
        let mut name: Option<String> = None;
        let mut seed: u64 = 0;
        let mut topology: Option<TopologySpec> = None;
        let mut demand = Vec::new();
        let mut incidents = Vec::new();
        for (lineno, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |msg: &str| {
                SimError::InvalidConfig(format!("spec line {}: {msg}: '{line}'", lineno + 1))
            };
            let (directive, rest) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            match directive {
                "name" => name = Some(rest.trim().to_string()),
                "seed" => {
                    seed = rest.trim().parse().map_err(|_| err("seed must be a u64"))?;
                }
                "topology" => {
                    let (kind, fields) = split_kind(rest);
                    let map = parse_fields(fields).map_err(|m| err(&m))?;
                    let parsed = parse_topology(kind, &map).map_err(|m| err(&m))?;
                    parsed.check_size().map_err(|e| err(&e.to_string()))?;
                    topology = Some(parsed);
                }
                "demand" => {
                    let (kind, fields) = split_kind(rest);
                    let map = parse_fields(fields).map_err(|m| err(&m))?;
                    demand.push(parse_demand(kind, &map).map_err(|m| err(&m))?);
                }
                "incident" => {
                    let map = parse_fields(rest).map_err(|m| err(&m))?;
                    incidents.push(IncidentSpec {
                        link: get_usize(&map, "link").map_err(|m| err(&m))?,
                        start: get_u32(&map, "start").map_err(|m| err(&m))?,
                        end: get_u32(&map, "end").map_err(|m| err(&m))?,
                    });
                }
                _ => return Err(err("unknown directive")),
            }
        }
        let topology =
            topology.ok_or_else(|| SimError::InvalidConfig("spec has no topology line".into()))?;
        Ok(ScenarioSpec {
            name: name.unwrap_or_else(|| "unnamed".to_string()),
            seed,
            topology,
            demand,
            incidents,
        })
    }
}

/// Splits `"kind k=v k=v"` into `("kind", "k=v k=v")`.
fn split_kind(rest: &str) -> (&str, &str) {
    rest.trim()
        .split_once(char::is_whitespace)
        .map_or((rest.trim(), ""), |(k, f)| (k, f))
}

/// Parses whitespace-separated `key=value` fields.
fn parse_fields(fields: &str) -> Result<BTreeMap<&str, &str>, String> {
    let mut map = BTreeMap::new();
    for tok in fields.split_whitespace() {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got '{tok}'"))?;
        map.insert(k, v);
    }
    Ok(map)
}

fn get_f64(map: &BTreeMap<&str, &str>, key: &str) -> Result<f64, String> {
    map.get(key)
        .ok_or_else(|| format!("missing field '{key}'"))?
        .parse()
        .map_err(|_| format!("field '{key}' must be a number"))
}

fn get_usize(map: &BTreeMap<&str, &str>, key: &str) -> Result<usize, String> {
    map.get(key)
        .ok_or_else(|| format!("missing field '{key}'"))?
        .parse()
        .map_err(|_| format!("field '{key}' must be a non-negative integer"))
}

fn get_u32(map: &BTreeMap<&str, &str>, key: &str) -> Result<u32, String> {
    map.get(key)
        .ok_or_else(|| format!("missing field '{key}'"))?
        .parse()
        .map_err(|_| format!("field '{key}' must be a u32"))
}

fn parse_topology(kind: &str, map: &BTreeMap<&str, &str>) -> Result<TopologySpec, String> {
    match kind {
        "grid" => Ok(TopologySpec::Grid {
            cols: get_usize(map, "cols")?,
            rows: get_usize(map, "rows")?,
            spacing: get_f64(map, "spacing")?,
        }),
        "city" => Ok(TopologySpec::City {
            cols: get_usize(map, "cols")?,
            rows: get_usize(map, "rows")?,
            spacing: get_f64(map, "spacing")?,
            edge_removal: get_f64(map, "edge_removal")?,
            two_lane_frac: get_f64(map, "two_lane_frac")?,
            jitter: get_f64(map, "jitter")?,
        }),
        "corridor" => Ok(TopologySpec::Corridor {
            length: get_usize(map, "length")?,
            spacing: get_f64(map, "spacing")?,
        }),
        "ring" => Ok(TopologySpec::Ring {
            cols: get_usize(map, "cols")?,
            rows: get_usize(map, "rows")?,
            spacing: get_f64(map, "spacing")?,
        }),
        _ => Err(format!("unknown topology kind '{kind}'")),
    }
}

fn parse_demand(kind: &str, map: &BTreeMap<&str, &str>) -> Result<DemandProgram, String> {
    match kind {
        "pattern" => {
            let n = get_usize(map, "pattern")?;
            let pattern = FlowPattern::from_number(n)
                .ok_or_else(|| format!("pattern number must be 1..=5, got {n}"))?;
            Ok(DemandProgram::Pattern {
                pattern,
                peak_rate: get_f64(map, "peak_rate")?,
                base_rate: get_f64(map, "base_rate")?,
            })
        }
        "uniform" => Ok(DemandProgram::Uniform {
            pairs: get_usize(map, "pairs")?,
            rate: get_f64(map, "rate")?,
            start: get_f64(map, "start")?,
            end: get_f64(map, "end")?,
        }),
        "rush_hour" => Ok(DemandProgram::RushHour {
            pairs: get_usize(map, "pairs")?,
            peak_rate: get_f64(map, "peak_rate")?,
            base_rate: get_f64(map, "base_rate")?,
            onset: get_f64(map, "onset")?,
            ramp: get_f64(map, "ramp")?,
            stagger: get_f64(map, "stagger")?,
        }),
        "day" => Ok(DemandProgram::Day {
            pairs: get_usize(map, "pairs")?,
            peak_rate: get_f64(map, "peak_rate")?,
            horizon: get_f64(map, "horizon")?,
        }),
        "jam_wave" => Ok(DemandProgram::JamWave {
            waves: get_usize(map, "waves")?,
            pairs_per_wave: get_usize(map, "pairs_per_wave")?,
            peak_rate: get_f64(map, "peak_rate")?,
            period: get_f64(map, "period")?,
            width: get_f64(map, "width")?,
        }),
        "surge" => Ok(DemandProgram::Surge {
            sinks: get_usize(map, "sinks")?,
            pairs: get_usize(map, "pairs")?,
            peak_rate: get_f64(map, "peak_rate")?,
            start: get_f64(map, "start")?,
            width: get_f64(map, "width")?,
        }),
        "conflicts" => Ok(DemandProgram::Conflicts {
            flows: get_usize(map, "flows")?,
            peak_rate: get_f64(map, "peak_rate")?,
            horizon: get_f64(map, "horizon")?,
        }),
        _ => Err(format!("unknown demand kind '{kind}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScenarioSpec {
        ScenarioSpec {
            name: "test-world".into(),
            seed: 42,
            topology: TopologySpec::City {
                cols: 6,
                rows: 5,
                spacing: 250.0,
                edge_removal: 0.18,
                two_lane_frac: 0.4,
                jitter: 0.18,
            },
            demand: vec![
                DemandProgram::Pattern {
                    pattern: FlowPattern::One,
                    peak_rate: 500.0,
                    base_rate: 100.0,
                },
                DemandProgram::RushHour {
                    pairs: 12,
                    peak_rate: 700.0,
                    base_rate: 50.0,
                    onset: 0.0,
                    ramp: 900.0,
                    stagger: 300.0,
                },
                DemandProgram::Conflicts {
                    flows: 10,
                    peak_rate: 975.0,
                    horizon: 2700.0,
                },
            ],
            incidents: vec![IncidentSpec {
                link: 12,
                start: 600,
                end: 1200,
            }],
        }
    }

    #[test]
    fn text_roundtrip_is_identity() {
        let spec = sample();
        let text = spec.to_text();
        let back = ScenarioSpec::from_text(&text).unwrap();
        assert_eq!(spec, back);
        // And a second render is stable.
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn all_program_kinds_roundtrip() {
        let mut spec = sample();
        spec.demand = vec![
            DemandProgram::Uniform {
                pairs: 8,
                rate: 150.0,
                start: 0.0,
                end: 3600.0,
            },
            DemandProgram::Day {
                pairs: 6,
                peak_rate: 600.0,
                horizon: 7200.0,
            },
            DemandProgram::JamWave {
                waves: 3,
                pairs_per_wave: 4,
                peak_rate: 900.0,
                period: 600.0,
                width: 400.0,
            },
            DemandProgram::Surge {
                sinks: 2,
                pairs: 10,
                peak_rate: 800.0,
                start: 300.0,
                width: 600.0,
            },
        ];
        let back = ScenarioSpec::from_text(&spec.to_text()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = format!(
            "{SPEC_HEADER}\n\n# a comment\nname x\nseed 7\ntopology grid cols=3 rows=3 \
             spacing=200.0\n"
        );
        let spec = ScenarioSpec::from_text(&text).unwrap();
        assert_eq!(spec.name, "x");
        assert_eq!(spec.seed, 7);
    }

    #[test]
    fn errors_name_the_line() {
        let text = format!("{SPEC_HEADER}\ntopology grid cols=3 rows=oops spacing=200\n");
        let err = ScenarioSpec::from_text(&text).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(ScenarioSpec::from_text("not a spec").is_err());
        let unknown = format!("{SPEC_HEADER}\nfrobnicate 3\n");
        assert!(ScenarioSpec::from_text(&unknown).is_err());
    }

    #[test]
    fn oversized_topologies_are_rejected_at_parse_time() {
        let max = usize::MAX;
        for topology in [
            "city cols=100000 rows=100000 spacing=200 edge_removal=0.1 two_lane_frac=0.4 \
             jitter=0.1"
                .to_string(),
            format!("grid cols={max} rows=2 spacing=200"),
            format!("grid cols={max} rows={max} spacing=200"),
            format!("corridor length={} spacing=200", MAX_INTERSECTIONS + 1),
            format!("ring cols={max} rows=3 spacing=200"),
            "ring cols=40000 rows=3 spacing=200".to_string(),
        ] {
            let text = format!("{SPEC_HEADER}\ntopology {topology}\n");
            let err = ScenarioSpec::from_text(&text).unwrap_err();
            assert!(
                matches!(&err, SimError::InvalidConfig(m) if m.contains("line 2")),
                "{topology}: {err}"
            );
        }
        // The bound itself is allowed.
        let text = format!("{SPEC_HEADER}\ntopology grid cols=256 rows=256 spacing=200\n");
        assert!(ScenarioSpec::from_text(&text).is_ok());
    }

    #[test]
    fn float_bits_survive_the_roundtrip() {
        let mut spec = sample();
        if let TopologySpec::City { spacing, .. } = &mut spec.topology {
            *spacing = 250.000_000_001;
        }
        let back = ScenarioSpec::from_text(&spec.to_text()).unwrap();
        assert_eq!(spec, back, "exact f64 bits round-trip via {{:?}}");
    }
}
