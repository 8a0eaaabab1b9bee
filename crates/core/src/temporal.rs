//! The temporal influence facet (ROADMAP item 3, DESIGN.md §15).
//!
//! Influence decays: a two-year-old viral post says little about who
//! matters *today* (Akritidis et al., "Time Does Matter"). This module
//! adds a time axis to the Eq. 2–3 scoring path as a **pure transform of
//! the solver inputs**: given an analysis horizon `as_of` and a
//! [`DecayParams`] law, every post's quality is weighted by its age and
//! every comment's sentiment factor by *its own* age (a hot comment
//! thread keeps an old post alive), while `TC` renormalises over the
//! comments actually visible at the horizon. Items published after
//! `as_of` ("unborn") contribute nothing.
//!
//! Because the transform is a deterministic function of
//! `(undecayed inputs, dataset timestamps, TemporalParams)`, and the
//! incremental engine applies the *same* per-item weights (cached per item,
//! through the same [`DecayParams::weight`] and born gate) to bitwise-equal
//! undecayed inputs, window advance inherits the exactness contract:
//! `advance_to(T)` + Exact refresh is `f64::to_bits`-identical to a batch
//! analysis at `as_of = T` (`crates/core/tests/temporal_exactness.rs`).

use crate::params::MassParams;
use crate::solver::SolverInputs;
use mass_types::{BloggerId, Dataset};
use std::borrow::Cow;
use std::fmt;

/// Why temporal parameters (or a window advance) were rejected.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TemporalError {
    /// An exponential half-life of NaN is meaningless.
    HalfLifeNan,
    /// The half-life must be strictly positive (`+∞` is allowed and
    /// reproduces the undecayed scores exactly).
    HalfLifeNotPositive {
        /// The offending value.
        value: f64,
    },
    /// [`IncrementalMass::advance_to`](crate::IncrementalMass::advance_to)
    /// only moves forward; re-analyse from scratch to look backwards.
    RetrogradeAdvance {
        /// The engine's current horizon.
        from: u64,
        /// The requested (earlier) horizon.
        to: u64,
    },
    /// The engine was built without [`MassParams::temporal`], so it has no
    /// horizon to advance.
    NotTemporal,
}

impl fmt::Display for TemporalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TemporalError::HalfLifeNan => write!(f, "half-life must not be NaN"),
            TemporalError::HalfLifeNotPositive { value } => {
                write!(f, "half-life must be > 0, got {value}")
            }
            TemporalError::RetrogradeAdvance { from, to } => {
                write!(f, "cannot advance the window backwards from {from} to {to}")
            }
            TemporalError::NotTemporal => {
                write!(
                    f,
                    "engine has no temporal params; window advance needs them"
                )
            }
        }
    }
}

impl std::error::Error for TemporalError {}

/// The decay law weighting an item of age `as_of − ts`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DecayParams {
    /// Smooth exponential decay: weight `2^(−age / half_life)`. A
    /// half-life of `+∞` weighs everything 1.0 — the undecayed scores,
    /// bit for bit.
    Exponential {
        /// Ticks until an item's weight halves. Must be `> 0` (may be
        /// `+∞`); validated by [`DecayParams::validate`].
        half_life: f64,
    },
    /// Hard sliding window: weight 1.0 for `age <= horizon`, 0.0 beyond —
    /// items simply expire.
    Window {
        /// Inclusive age cutoff in ticks.
        horizon: u64,
    },
}

impl DecayParams {
    /// Checks the law's parameters, returning a typed error instead of
    /// panicking on NaN / non-positive / `−∞` half-lives.
    pub fn validate(&self) -> Result<(), TemporalError> {
        match *self {
            DecayParams::Exponential { half_life } => {
                if half_life.is_nan() {
                    Err(TemporalError::HalfLifeNan)
                } else if half_life <= 0.0 {
                    Err(TemporalError::HalfLifeNotPositive { value: half_life })
                } else {
                    Ok(())
                }
            }
            DecayParams::Window { .. } => Ok(()),
        }
    }

    /// The weight of an item stamped `ts` when analysed at horizon
    /// `as_of`: in `(0, 1]` for visible items, exactly 0.0 for expired or
    /// unborn (`ts > as_of`) ones. Monotonically non-increasing in age.
    #[inline]
    pub fn weight(&self, ts: u64, as_of: u64) -> f64 {
        if ts > as_of {
            return 0.0;
        }
        let age = as_of - ts;
        match *self {
            DecayParams::Exponential { half_life } => {
                if age == 0 {
                    1.0
                } else {
                    // exp2, not exp: half-life semantics land on exact
                    // powers of two, and 2^(−age/∞) = 2^(−0.0) = 1.0.
                    f64::exp2(-(age as f64) / half_life)
                }
            }
            DecayParams::Window { horizon } => {
                if age <= horizon {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// The weight of a comment stamped `ts` on a post stamped `post_ts`:
    /// its own [`weight`](Self::weight) once its post is born, 0.0 while
    /// the post is unborn — the born gate [`decay_inputs`] and the
    /// incremental engine's cached weights both go through.
    #[inline]
    pub(crate) fn comment_weight(&self, post_ts: u64, ts: u64, as_of: u64) -> f64 {
        if post_ts <= as_of {
            self.weight(ts, as_of)
        } else {
            0.0
        }
    }
}

/// Whether a comment counts toward its commenter's `TC` at `as_of`: the
/// comment and its post are both born (whatever their decay weight).
#[inline]
pub(crate) fn comment_visible(post_ts: u64, ts: u64, as_of: u64) -> bool {
    post_ts <= as_of && ts <= as_of
}

/// The temporal facet's knobs: *when* the analysis looks from, and how
/// fast the past fades.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TemporalParams {
    /// The analysis horizon ("now") in corpus ticks. Items stamped later
    /// are invisible.
    pub as_of: u64,
    /// The decay law applied to visible items.
    pub decay: DecayParams,
}

impl TemporalParams {
    /// Validates the decay law (the horizon itself is always valid).
    pub fn validate(&self) -> Result<(), TemporalError> {
        self.decay.validate()
    }
}

/// Applies the temporal transform to solver inputs: post quality scaled by
/// the post's weight, each comment's sentiment factor by the comment's own
/// weight (0.0 when the comment or its post is unborn), and `TC`
/// renormalised over visible comments. GL passes through unchanged — the
/// friend graph carries no timestamps.
///
/// Returns `Cow::Borrowed` (zero cost) when `params.temporal` is `None`.
/// The batch path runs it immediately before
/// [`solve_prepared`](crate::solver::solve_prepared). The incremental
/// engine instead caches the same weights per item and multiplies them in
/// while deriving its sweep layout — the same per-element products, so
/// decayed analyses stay inside the exactness contract, and this function
/// is the reference its layout is tested against.
pub fn decay_inputs<'a>(
    ds: &Dataset,
    inputs: &'a SolverInputs,
    params: &MassParams,
) -> Cow<'a, SolverInputs> {
    let Some(temporal) = params.temporal else {
        return Cow::Borrowed(inputs);
    };
    let _span = mass_obs::span_with(
        "temporal.decay_inputs",
        vec![mass_obs::field("as_of", temporal.as_of)],
    );
    let as_of = temporal.as_of;
    let decay = temporal.decay;
    let nb = ds.bloggers.len();
    let mut raw_quality = inputs.raw_quality.clone();
    let mut factors = inputs.factors.clone();
    let mut visible_counts = vec![0u32; nb];
    for (k, post) in ds.posts.iter().enumerate() {
        raw_quality[k] *= decay.weight(post.ts, as_of);
        for (j, c) in post.comments.iter().enumerate() {
            factors[k][j].1 *= decay.comment_weight(post.ts, c.ts, as_of);
            if comment_visible(post.ts, c.ts, as_of) {
                visible_counts[c.commenter.index()] += 1;
            }
        }
    }
    // Mirrors `compute_tc` over the visible sub-corpus: same floor, same
    // all-ones shape with normalisation off, so a half-life of ∞ (every
    // comment visible) reproduces the undecayed vector bit for bit.
    let tc = if params.tc_normalisation {
        visible_counts
            .iter()
            .map(|&c| f64::from(c).max(1.0))
            .collect()
    } else {
        vec![1.0; nb]
    };
    Cow::Owned(SolverInputs {
        raw_quality,
        gl: inputs.gl.clone(),
        factors,
        tc,
    })
}

/// One blogger's influence trajectory summarised as a derivative.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RisingStar {
    /// The blogger.
    pub blogger: BloggerId,
    /// Influence change per tick between the first and last snapshot.
    pub derivative: f64,
    /// Influence at the last snapshot.
    pub influence: f64,
}

/// The rising-star detector: given influence snapshots at successive
/// horizons (each `(as_of, blogger influence vector)`), ranks bloggers by
/// the **largest positive influence derivative** — `(last − first) / Δt`.
/// Bloggers absent from an early snapshot (joined later) count from 0.0.
/// Returns at most `k` strictly-rising bloggers, steepest first, ties
/// broken by ascending id; empty when fewer than two distinct ticks exist.
pub fn rising_stars(snapshots: &[(u64, Vec<f64>)], k: usize) -> Vec<RisingStar> {
    let (Some(first), Some(last)) = (snapshots.first(), snapshots.last()) else {
        return Vec::new();
    };
    if last.0 <= first.0 {
        return Vec::new();
    }
    let dt = (last.0 - first.0) as f64;
    let mut stars: Vec<RisingStar> = (0..last.1.len())
        .map(|i| {
            let start = first.1.get(i).copied().unwrap_or(0.0);
            RisingStar {
                blogger: BloggerId::new(i),
                derivative: (last.1[i] - start) / dt,
                influence: last.1[i],
            }
        })
        .filter(|s| s.derivative > 0.0)
        .collect();
    stars.sort_by(|a, b| {
        b.derivative
            .partial_cmp(&a.derivative)
            .expect("influence scores are finite")
            .then(a.blogger.index().cmp(&b.blogger.index()))
    });
    stars.truncate(k);
    stars
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_shapes() {
        let exp = DecayParams::Exponential { half_life: 10.0 };
        assert_eq!(exp.weight(100, 100), 1.0);
        assert_eq!(exp.weight(90, 100), 0.5, "one half-life halves exactly");
        assert_eq!(exp.weight(80, 100), 0.25);
        assert_eq!(exp.weight(101, 100), 0.0, "unborn items are invisible");
        let win = DecayParams::Window { horizon: 5 };
        assert_eq!(win.weight(95, 100), 1.0);
        assert_eq!(win.weight(94, 100), 0.0);
        assert_eq!(win.weight(101, 100), 0.0);
    }

    #[test]
    fn infinite_half_life_is_the_identity_weight() {
        let d = DecayParams::Exponential {
            half_life: f64::INFINITY,
        };
        d.validate().unwrap();
        for age in [0u64, 1, 1000, u64::MAX / 2] {
            assert_eq!(d.weight(0, age).to_bits(), 1.0f64.to_bits());
        }
    }

    #[test]
    fn validation_rejects_degenerate_half_lives() {
        assert_eq!(
            DecayParams::Exponential {
                half_life: f64::NAN
            }
            .validate(),
            Err(TemporalError::HalfLifeNan)
        );
        for bad in [0.0, -1.0, f64::NEG_INFINITY] {
            assert_eq!(
                DecayParams::Exponential { half_life: bad }.validate(),
                Err(TemporalError::HalfLifeNotPositive { value: bad })
            );
        }
        DecayParams::Window { horizon: 0 }.validate().unwrap();
    }

    #[test]
    fn errors_display_the_offence() {
        let e = TemporalError::RetrogradeAdvance { from: 9, to: 3 };
        assert!(e.to_string().contains("backwards"));
        let boxed: Box<dyn std::error::Error> =
            Box::new(TemporalError::HalfLifeNotPositive { value: -2.0 });
        assert!(boxed.to_string().contains("-2"));
    }

    #[test]
    fn rising_stars_ranks_by_derivative() {
        let snaps = vec![
            (10u64, vec![0.5, 0.2, 0.9]),
            (20u64, vec![0.4, 0.8, 0.9, 0.3]),
        ];
        let stars = rising_stars(&snaps, 10);
        // Blogger 1 rose 0.6/10; the late joiner (3) rose 0.3/10; blogger 0
        // fell and blogger 2 was flat — both excluded.
        assert_eq!(stars.len(), 2);
        assert_eq!(stars[0].blogger, BloggerId::new(1));
        assert!((stars[0].derivative - 0.06).abs() < 1e-12);
        assert_eq!(stars[1].blogger, BloggerId::new(3));
        assert_eq!(rising_stars(&snaps, 1).len(), 1);
    }

    #[test]
    fn rising_stars_needs_two_distinct_ticks() {
        assert!(rising_stars(&[], 5).is_empty());
        assert!(rising_stars(&[(5, vec![1.0])], 5).is_empty());
        assert!(rising_stars(&[(5, vec![0.0]), (5, vec![1.0])], 5).is_empty());
    }

    #[test]
    fn rising_star_ties_break_by_id() {
        let snaps = vec![(0u64, vec![0.0, 0.0]), (10u64, vec![0.5, 0.5])];
        let stars = rising_stars(&snaps, 2);
        assert_eq!(stars[0].blogger, BloggerId::new(0));
        assert_eq!(stars[1].blogger, BloggerId::new(1));
    }
}
