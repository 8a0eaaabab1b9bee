//! The temporal exactness contract (DESIGN.md §15), enforced
//! differentially: advancing the analysis horizon through the live
//! [`IncrementalMass`] engine (`advance_to` + Exact refresh) must be
//! `f64::to_bits`-identical to a full batch [`MassAnalysis::analyze`] at
//! the same horizon — across seeds, window schedules, decay laws, and
//! solver thread counts {1, 4} — and the sweep layout the engine derives
//! from its cached weights must equal the batch one (the four-thread runs go
//! through `without_work_floors`, so these small corpora reach the chunked
//! kernels). Plus property tests on [`DecayParams`]:
//! validation never panics and always returns typed errors on degenerate
//! half-lives, weights live in `[0, 1]` and decrease with age, and an
//! infinite half-life reproduces the undecayed analysis bit for bit.

use mass_core::storm::{apply_to_dataset, apply_to_incremental, scripted_storm, StormMix};
use mass_core::{
    DecayParams, IncrementalMass, IvSource, MassAnalysis, MassParams, TemporalError, TemporalParams,
};
use mass_par::without_work_floors;
use mass_synth::{generate, SynthConfig};
use proptest::prelude::*;

mod common;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn temporal_params(threads: usize, as_of: u64, decay: DecayParams) -> MassParams {
    MassParams {
        // Oracle IV keeps batch and incremental on the same domain source;
        // the batch-side classifier retrain is the documented carve-out.
        iv: IvSource::TrueDomains,
        threads,
        temporal: Some(TemporalParams { as_of, decay }),
        ..MassParams::paper()
    }
}

fn temporal_corpus(seed: u64) -> mass_types::Dataset {
    generate(&SynthConfig {
        bloggers: 30,
        mean_posts_per_blogger: 2.0,
        mean_comments_top: 8.0,
        time_span: 1000,
        planted_fading: 3,
        planted_rising: 3,
        seed,
        ..Default::default()
    })
    .dataset
}

/// The headline differential: `advance_to(T)` + Exact refresh lands on the
/// same bits as a batch analysis at `as_of = T`, for every horizon in the
/// schedule, at one solver thread and at four, under both decay laws.
#[test]
fn window_advance_is_bit_identical_to_batch_analysis_at_every_horizon() {
    let schedules: &[&[u64]] = &[&[0, 150, 300, 600, 1000], &[100, 101, 999]];
    let laws = [
        DecayParams::Exponential { half_life: 120.0 },
        DecayParams::Window { horizon: 250 },
    ];
    for seed in [11u64, 4242] {
        let ds = temporal_corpus(seed);
        for decay in laws {
            for &schedule in schedules {
                for threads in [1usize, 4] {
                    // Floors off: threads 4 takes the chunked solve and pull on
                    // this small corpus, as it would on one above the floors.
                    without_work_floors(|| {
                        let params = temporal_params(threads, schedule[0], decay);
                        let mut inc = IncrementalMass::new(ds.clone(), params.clone());
                        for &t in &schedule[1..] {
                            inc.advance_to(t).unwrap();
                            let stats = inc.refresh();
                            assert!(
                                stats.converged,
                                "seed {seed} {decay:?} threads {threads} as-of {t}"
                            );
                            let batch_params = MassParams {
                                temporal: Some(TemporalParams { as_of: t, decay }),
                                ..params.clone()
                            };
                            let batch = MassAnalysis::analyze(&ds, &batch_params);
                            let tag = format!("seed {seed} {decay:?} threads {threads} as-of {t}");
                            assert_eq!(
                                bits(&inc.scores().blogger),
                                bits(&batch.scores.blogger),
                                "{tag}: blogger scores"
                            );
                            assert_eq!(
                                bits(&inc.scores().post),
                                bits(&batch.scores.post),
                                "{tag}: post scores"
                            );
                            assert_eq!(bits(&inc.scores().gl), bits(&batch.scores.gl), "{tag}: GL");
                            assert!(
                                inc.sweep_layout() == common::batch_layout(&ds, &batch_params),
                                "{tag}: maintained layout"
                            );
                        }
                    });
                }
            }
        }
    }
}

/// Window advances interleaved with edit storms: time-dirt and edit-dirt
/// merge into one refresh that still matches the batch recompute bit for
/// bit (edits applied to the plain dataset, analysed at the new horizon).
#[test]
fn advance_interleaved_with_edit_storms_stays_exact() {
    for threads in [1usize, 4] {
        // Floors off: threads 4 takes the chunked solve and pull on
        // this small corpus, as it would on one above the floors.
        without_work_floors(|| {
            let decay = DecayParams::Exponential { half_life: 200.0 };
            let params = temporal_params(threads, 100, decay);
            let ds = temporal_corpus(7);
            let mut inc = IncrementalMass::new(ds.clone(), params.clone());
            let mut plain = ds;
            for (round, horizon) in [300u64, 550, 900].into_iter().enumerate() {
                let script = scripted_storm(&plain, 6, 800 + round as u64, StormMix::Mixed);
                apply_to_incremental(&mut inc, &script);
                apply_to_dataset(&mut plain, &script);
                inc.advance_to(horizon).unwrap();
                let stats = inc.refresh();
                assert!(stats.converged, "threads {threads} round {round}");
                let batch_params = MassParams {
                    temporal: Some(TemporalParams {
                        as_of: horizon,
                        decay,
                    }),
                    ..params.clone()
                };
                let batch = MassAnalysis::analyze(&plain, &batch_params);
                assert_eq!(
                    bits(&inc.scores().blogger),
                    bits(&batch.scores.blogger),
                    "threads {threads} round {round}: blogger scores"
                );
                assert_eq!(
                    bits(&inc.scores().post),
                    bits(&batch.scores.post),
                    "threads {threads} round {round}: post scores"
                );
                assert!(
                    inc.sweep_layout() == common::batch_layout(&plain, &batch_params),
                    "threads {threads} round {round}: maintained layout"
                );
            }
        });
    }
}

/// Thread count must not leak into a decayed analysis: the same advance
/// schedule refreshed under 1 and 4 threads produces identical bits.
#[test]
fn decayed_refresh_is_thread_count_invariant() {
    let ds = temporal_corpus(23);
    let run = |threads: usize| {
        let mut inc = IncrementalMass::new(
            ds.clone(),
            temporal_params(threads, 50, DecayParams::Exponential { half_life: 80.0 }),
        );
        inc.advance_to(400).unwrap();
        inc.refresh();
        inc.advance_to(950).unwrap();
        inc.refresh();
        (bits(&inc.scores().blogger), bits(&inc.scores().post))
    };
    assert_eq!(run(1), without_work_floors(|| run(4)));
}

/// An infinite half-life at a horizon past every timestamp is the
/// undecayed analysis, bit for bit — the temporal facet's identity case.
#[test]
fn infinite_half_life_reproduces_the_undecayed_analysis_bitwise() {
    let ds = temporal_corpus(5);
    let timeless = MassParams {
        iv: IvSource::TrueDomains,
        ..MassParams::paper()
    };
    let eternal = MassParams {
        temporal: Some(TemporalParams {
            as_of: 1_000,
            decay: DecayParams::Exponential {
                half_life: f64::INFINITY,
            },
        }),
        ..timeless.clone()
    };
    let plain = MassAnalysis::analyze(&ds, &timeless);
    let decayed = MassAnalysis::analyze(&ds, &eternal);
    assert_eq!(bits(&plain.scores.blogger), bits(&decayed.scores.blogger));
    assert_eq!(bits(&plain.scores.post), bits(&decayed.scores.post));
    assert_eq!(bits(&plain.scores.gl), bits(&decayed.scores.gl));
}

/// GL is never recomputed on a pure window advance — the friend graph
/// carries no timestamps, so time-dirt must not trigger link analysis.
#[test]
fn pure_advance_skips_link_analysis() {
    let ds = temporal_corpus(31);
    let mut inc = IncrementalMass::new(
        ds,
        temporal_params(1, 0, DecayParams::Exponential { half_life: 60.0 }),
    );
    let advance = inc.advance_to(700).unwrap();
    assert!(advance.any_affected(), "span-1000 corpus must decay by 700");
    let stats = inc.refresh();
    assert!(!stats.gl_refreshed, "time-dirt must not re-run GL");
    assert_eq!(inc.as_of(), Some(700));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Validation never panics, whatever bit pattern the half-life holds:
    /// NaN and non-positive values come back as typed errors, everything
    /// else (including `+∞`) is accepted.
    #[test]
    fn half_life_validation_never_panics(half_life in any::<f64>()) {
        let law = DecayParams::Exponential { half_life };
        match law.validate() {
            Err(TemporalError::HalfLifeNan) => prop_assert!(half_life.is_nan()),
            Err(TemporalError::HalfLifeNotPositive { value }) => {
                prop_assert!(half_life <= 0.0);
                prop_assert_eq!(value.to_bits(), half_life.to_bits());
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            Ok(()) => prop_assert!(half_life > 0.0),
        }
        // The horizon is a plain u64: the window law always validates.
        DecayParams::Window { horizon: half_life.to_bits() }.validate().unwrap();
    }

    /// Weights live in `[0, 1]`, hit exactly 1.0 at age zero and exactly
    /// 0.0 for unborn items, and never increase with age.
    #[test]
    fn decay_weight_is_bounded_and_monotone(
        half_life in 1.0f64..1e6,
        horizon in 0u64..100_000,
        as_of in 0u64..1_000_000,
        age_young in 0u64..1_000,
        age_extra in 0u64..1_000,
    ) {
        for law in [
            DecayParams::Exponential { half_life },
            DecayParams::Window { horizon },
        ] {
            let young = law.weight(as_of.saturating_sub(age_young), as_of);
            let old = law.weight(as_of.saturating_sub(age_young + age_extra), as_of);
            prop_assert!((0.0..=1.0).contains(&young), "{law:?}: young {young}");
            prop_assert!((0.0..=1.0).contains(&old), "{law:?}: old {old}");
            prop_assert!(old <= young, "{law:?}: older items must not outweigh newer");
            prop_assert_eq!(law.weight(as_of, as_of).to_bits(), 1.0f64.to_bits());
            prop_assert_eq!(law.weight(as_of + 1 + age_extra, as_of).to_bits(), 0.0f64.to_bits());
        }
        // Ages under ~1000 half-lives cannot underflow: visible items keep
        // strictly positive weight, as the Eq. 2–3 transform relies on.
        let exp = DecayParams::Exponential { half_life };
        prop_assert!(exp.weight(as_of.saturating_sub(age_young), as_of) > 0.0);
    }

    /// An infinite half-life is the bitwise identity weight at any age.
    #[test]
    fn infinite_half_life_weight_is_bitwise_one(ts in any::<u64>(), extra in any::<u64>()) {
        let law = DecayParams::Exponential { half_life: f64::INFINITY };
        let as_of = ts.saturating_add(extra);
        prop_assert_eq!(law.weight(ts, as_of).to_bits(), 1.0f64.to_bits());
    }
}
