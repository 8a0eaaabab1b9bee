//! Helpers shared by the differential suites.

use mass_core::{decay_inputs, MassParams, SolverInputs, SweepLayout};
use mass_text::PreparedCorpus;
use mass_types::Dataset;

/// The sweep layout a batch solve of `ds` runs on: inputs built from
/// scratch, decayed at `params`' horizon, flattened. The incremental
/// engine's maintained layout must equal it field for field.
pub fn batch_layout(ds: &Dataset, params: &MassParams) -> SweepLayout {
    let corpus = PreparedCorpus::build(ds, params.threads);
    let inputs = SolverInputs::build_prepared(ds, &ds.index(), params, &corpus);
    SweepLayout::build(ds, &decay_inputs(ds, &inputs, params))
}
