//! Mid-refresh panic hardening: `refresh_with` is transactional.
//!
//! A panic at *any* stage boundary of the refresh pipeline — injected via
//! [`IncrementalMass::inject_refresh_fault`] — must leave the engine on
//! its previous epoch with every score bit unchanged and the dirty set
//! intact, and the very next refresh must absorb the same edits and land
//! exactly on the batch fixed point. This is what lets the serving layer
//! quarantine a poisoned refresh and keep answering from the last-good
//! snapshot (DESIGN.md §12).

use mass_core::{
    apply_to_incremental, scripted_storm, IncrementalMass, IvSource, MassAnalysis, MassParams,
    RefreshFault, RefreshMode, StormMix,
};
use mass_synth::{generate, SynthConfig};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

mod common;

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs `f`, swallowing both the unwind and the default panic hook's
/// stderr noise (these tests detonate dozens of intentional panics).
fn quiet_catch<R>(f: impl FnOnce() -> R) -> Result<R, Box<dyn std::any::Any + Send>> {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = catch_unwind(AssertUnwindSafe(f));
    std::panic::set_hook(prev);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn injected_panics_leave_the_engine_unchanged_and_usable(
        seed in 0u64..1_000,
        edits in 2usize..10,
    ) {
        let out = generate(&SynthConfig {
            bloggers: 14,
            mean_posts_per_blogger: 1.5,
            seed,
            ..Default::default()
        });
        // Oracle IV so batch and incremental share the domain source and
        // the recovery comparison can cover the domain matrix too.
        let params = MassParams {
            iv: IvSource::TrueDomains,
            ..MassParams::paper()
        };
        let mut inc = IncrementalMass::new(out.dataset, params.clone());

        for (round, &fault) in RefreshFault::ALL.iter().enumerate() {
            let script = scripted_storm(
                inc.dataset(),
                edits,
                seed * 31 + round as u64,
                StormMix::Mixed,
            );
            apply_to_incremental(&mut inc, &script);
            let epoch = inc.epoch();
            let pending = inc.pending_edits();
            let blogger_bits = bits(&inc.scores().blogger);
            let gl_bits = bits(&inc.scores().gl);
            let matrix_bits: Vec<Vec<u64>> = inc.domain_matrix().iter().map(|r| bits(r)).collect();
            let layout = inc.sweep_layout();

            inc.inject_refresh_fault(fault);
            let outcome = quiet_catch(|| inc.refresh());
            prop_assert!(outcome.is_err(), "{fault:?} did not fire");

            // Nothing observable moved: epoch, scores, matrix, dirty delta.
            prop_assert_eq!(inc.epoch(), epoch, "{:?} advanced the epoch", fault);
            prop_assert_eq!(inc.pending_edits(), pending, "{:?} lost edits", fault);
            prop_assert_eq!(&bits(&inc.scores().blogger), &blogger_bits, "{:?} tore scores", fault);
            prop_assert_eq!(&bits(&inc.scores().gl), &gl_bits, "{:?} tore GL", fault);
            let after: Vec<Vec<u64>> = inc.domain_matrix().iter().map(|r| bits(r)).collect();
            prop_assert_eq!(&after, &matrix_bits, "{:?} tore the domain matrix", fault);
            prop_assert!(inc.sweep_layout() == layout, "{:?} tore the maintained stream", fault);

            // Fully usable: the retry absorbs the same edits and lands on
            // the batch fixed point — no torn CSR state observable.
            let stats = inc.refresh();
            prop_assert!(stats.converged, "recovery after {:?} diverged", fault);
            prop_assert_eq!(stats.edits_applied, pending);
            prop_assert_eq!(inc.epoch(), epoch + 1);
            inc.dataset().validate().unwrap();
            let batch = MassAnalysis::analyze(inc.dataset(), &params);
            prop_assert_eq!(
                &bits(&inc.scores().blogger),
                &bits(&batch.scores.blogger),
                "recovery after {:?} off the fixed point",
                fault
            );
            prop_assert_eq!(&bits(&inc.scores().gl), &bits(&batch.scores.gl));
            prop_assert!(
                inc.sweep_layout() == common::batch_layout(inc.dataset(), &params),
                "maintained layout after recovery from {:?}",
                fault
            );
        }
    }
}

#[test]
fn warm_mode_faults_roll_back_too() {
    // WarmStart exercises the GL warm-vector bookkeeping; a fault after the
    // staged GL run must not leak the new warm vector or flip `gl_exact`.
    let out = generate(&SynthConfig::tiny(77));
    let params = MassParams::paper();
    let mut inc = IncrementalMass::new(out.dataset, params.clone());
    let script = scripted_storm(inc.dataset(), 8, 5, StormMix::Mixed);
    apply_to_incremental(&mut inc, &script);

    for &fault in &RefreshFault::ALL {
        inc.inject_refresh_fault(fault);
        let outcome = quiet_catch(|| inc.refresh_with(RefreshMode::WarmStart));
        assert!(outcome.is_err(), "{fault:?} did not fire");
        assert_eq!(inc.epoch(), 0, "{fault:?} advanced the epoch");
    }
    // After all that abuse an Exact refresh still restores the contract.
    let stats = inc.refresh_with(RefreshMode::Exact);
    assert!(stats.converged);
    assert_eq!(inc.epoch(), 1);
    let batch = MassAnalysis::analyze(inc.dataset(), &params);
    assert_eq!(bits(&inc.scores().blogger), bits(&batch.scores.blogger));
    assert_eq!(bits(&inc.scores().gl), bits(&batch.scores.gl));
    assert!(inc.sweep_layout() == common::batch_layout(inc.dataset(), &params));
}

#[test]
fn fault_hook_is_one_shot() {
    let out = generate(&SynthConfig::tiny(3));
    let mut inc = IncrementalMass::new(out.dataset, MassParams::paper());
    let pid = inc.add_post(mass_types::Post::new(
        mass_types::BloggerId::new(0),
        "t",
        "some words here",
    ));
    inc.add_comment(
        pid,
        mass_types::Comment::new(mass_types::BloggerId::new(1), "hi"),
    );
    inc.inject_refresh_fault(RefreshFault::BeforeCommit);
    assert!(quiet_catch(|| inc.refresh()).is_err());
    // Armed once, fired once: the next refresh sails through.
    let stats = inc.refresh();
    assert!(stats.converged);
    assert_eq!(inc.epoch(), 1);
}
