//! The fixed-point influence solver (Eq. 1–4).
//!
//! A post's `CommentScore` depends on each commenter's overall influence,
//! which depends on *their* posts' scores — so blogger influence is the fixed
//! point of a map, computed here by Jacobi sweeps:
//!
//! 1. `CommentScore(d_k) = Σ_j Inf(b_j)·SF(b_i,d_k,b_j) / TC(b_j)`, then
//!    max-normalise the vector over posts;
//! 2. `Inf(b_i, d_k) = β·Quality + (1−β)·CommentScore` — in [0, 1];
//! 3. `AP(b_i) = Σ_k Inf(b_i, d_k)`, max-normalised over bloggers;
//! 4. `Inf(b_i) = α·AP(b_i) + (1−α)·GL(b_i)` — in [0, 1].
//!
//! The paper does not specify units; the per-sweep max-normalisation (step 1
//! and 3) is our documented choice (DESIGN.md §5): it keeps the iteration a
//! continuous self-map of `[0,1]^n`, so scores stay interpretable and the
//! residual decays geometrically in practice. The X3 benchmark plots the
//! decay; property tests below check monotonicity invariants.

use crate::gl::gl_scores;
use crate::params::MassParams;
use crate::quality::{raw_quality_scores, raw_quality_scores_prepared};
use mass_obs::field;
use mass_text::{PreparedCorpus, SentimentLexicon};
use mass_types::{BloggerId, Dataset, DatasetIndex, PostId};
use std::borrow::Cow;

/// Precomputed solver inputs.
///
/// [`solve`] builds these from scratch. The incremental analyzer
/// ([`crate::incremental`]) keeps the same inputs in flat form across
/// small dataset edits, which skips the expensive input preparation
/// (novelty shingling dominates).
#[derive(Clone, Debug, PartialEq)]
pub struct SolverInputs {
    /// Unnormalised quality per post (length term × novelty).
    pub raw_quality: Vec<f64>,
    /// Normalised GL authority per blogger.
    pub gl: Vec<f64>,
    /// Per post: `(commenter index, sentiment factor)` per comment.
    pub factors: Vec<Vec<(usize, f64)>>,
    /// `TC(b)` normaliser per blogger (all ones when TC normalisation is
    /// disabled).
    pub tc: Vec<f64>,
}

impl SolverInputs {
    /// Builds all inputs from a dataset.
    pub fn build(ds: &Dataset, ix: &DatasetIndex, params: &MassParams) -> Self {
        SolverInputs {
            raw_quality: raw_quality_scores(ds, params),
            gl: gl_scores(ds, params),
            factors: resolve_comment_factors(ds),
            tc: compute_tc(ds, ix, params),
        }
    }

    /// Builds all inputs from a dataset whose text is already interned:
    /// novelty and sentiment read token ids from the [`PreparedCorpus`]
    /// instead of re-tokenizing. Bit-identical to [`SolverInputs::build`].
    pub fn build_prepared(
        ds: &Dataset,
        ix: &DatasetIndex,
        params: &MassParams,
        corpus: &PreparedCorpus,
    ) -> Self {
        let _span = mass_obs::span("solver.build_inputs");
        SolverInputs {
            raw_quality: raw_quality_scores_prepared(ds, corpus, params),
            gl: gl_scores(ds, params),
            factors: resolve_comment_factors_prepared(ds, corpus),
            tc: compute_tc(ds, ix, params),
        }
    }
}

/// The `TC(b)` vector (Eq. 3 normaliser).
pub(crate) fn compute_tc(ds: &Dataset, ix: &DatasetIndex, params: &MassParams) -> Vec<f64> {
    let nb = ds.bloggers.len();
    if params.tc_normalisation {
        (0..nb)
            .map(|i| f64::from(ix.total_comments_made(BloggerId::new(i))).max(1.0))
            .collect()
    } else {
        vec![1.0; nb]
    }
}

/// How a solver run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolveStatus {
    /// The residual dropped below ε within the sweep cap.
    Converged,
    /// The sweep cap was hit first; scores are usable but approximate.
    MaxIterations,
    /// Non-finite inputs (NaN/∞ quality, GL, sentiment factors, or TC) had
    /// to be neutralised before solving. The returned scores are finite and
    /// bounded but the offending facet contributions were zeroed, so ranks
    /// should be treated with suspicion.
    Degenerate,
}

impl std::fmt::Display for SolveStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveStatus::Converged => write!(f, "converged"),
            SolveStatus::MaxIterations => write!(f, "hit the iteration cap"),
            SolveStatus::Degenerate => write!(f, "degenerate inputs were neutralised"),
        }
    }
}

/// Everything the solver computed. All vectors index the dataset's dense id
/// spaces; all scores live in [0, 1].
#[derive(Clone, Debug, PartialEq)]
pub struct InfluenceScores {
    /// `Inf(b_i)` — overall influence per blogger (Eq. 1).
    pub blogger: Vec<f64>,
    /// `Inf(b_i, d_k)` — influence per post (Eq. 2/4).
    pub post: Vec<f64>,
    /// `AP(b_i)` after normalisation — the accumulated-post facet.
    pub ap: Vec<f64>,
    /// `GL(b_i)` — the authority facet.
    pub gl: Vec<f64>,
    /// Quality facet per post (length × novelty, normalised).
    pub quality: Vec<f64>,
    /// Comment-score facet per post (normalised).
    pub comment: Vec<f64>,
    /// Sweeps performed.
    pub iterations: usize,
    /// Final L∞ residual of the blogger-influence vector.
    pub residual: f64,
    /// Residual per recorded sweep (the X3 convergence curve).
    /// `residual_history[i]` belongs to sweep `1 + i * residual_stride`;
    /// see [`MassParams::residual_history_cap`].
    pub residual_history: Vec<f64>,
    /// Sweep stride of `residual_history`: 1 while the run fits the cap,
    /// doubled each time the series is decimated.
    pub residual_stride: usize,
    /// Whether the residual dropped below ε within the sweep cap.
    pub converged: bool,
    /// How the run ended; [`SolveStatus::Degenerate`] flags sanitised inputs
    /// even when the residual converged.
    pub status: SolveStatus,
}

impl InfluenceScores {
    /// Influence of one blogger.
    pub fn of(&self, b: BloggerId) -> f64 {
        self.blogger[b.index()]
    }

    /// Influence score of one post.
    pub fn of_post(&self, p: PostId) -> f64 {
        self.post[p.index()]
    }
}

/// Resolved sentiment factor per comment of each post, plus the commenter.
///
/// Tagged comments use their tag; untagged comments are classified by the
/// lexicon analyzer — the paper's Comment Analyzer flow.
pub(crate) fn resolve_comment_factors(ds: &Dataset) -> Vec<Vec<(usize, f64)>> {
    let lexicon = SentimentLexicon::default();
    ds.posts
        .iter()
        .map(|post| {
            post.comments
                .iter()
                .map(|c| {
                    let sf = match c.sentiment {
                        Some(s) => s.factor(),
                        None => lexicon.factor(&c.text),
                    };
                    (c.commenter.index(), sf)
                })
                .collect()
        })
        .collect()
}

/// [`resolve_comment_factors`] over interned comment tokens: the lexicon is
/// compiled to a per-term polarity table once, and each untagged comment is
/// scored by a gather over its ids — no re-tokenization, no hash lookups.
pub(crate) fn resolve_comment_factors_prepared(
    ds: &Dataset,
    corpus: &PreparedCorpus,
) -> Vec<Vec<(usize, f64)>> {
    let compiled = SentimentLexicon::default().compile(corpus.interner());
    ds.posts
        .iter()
        .enumerate()
        .map(|(k, post)| {
            post.comments
                .iter()
                .enumerate()
                .map(|(j, c)| {
                    let sf = match c.sentiment {
                        Some(s) => s.factor(),
                        None => compiled.factor_ids(corpus.comment_tokens(k, j)),
                    };
                    (c.commenter.index(), sf)
                })
                .collect()
        })
        .collect()
}

/// Runs the fixed-point solver over a dataset.
///
/// # Panics
/// Panics if `params` fail validation.
pub fn solve(ds: &Dataset, ix: &DatasetIndex, params: &MassParams) -> InfluenceScores {
    let inputs = SolverInputs::build(ds, ix, params);
    solve_prepared(ds, &inputs, params, None)
}

/// Distinct sentiment-factor cap for the tabulated pass A. The system
/// produces exactly three values (`Sentiment::factor` — 1.0 / 0.5 / 0.1);
/// the headroom covers caller-supplied factor sets, and anything beyond it
/// falls back to the direct per-comment kernel.
const MAX_DISTINCT_SF: usize = 8;

/// The fused kernel's sweep-invariant data layout, precomputed from
/// [`SolverInputs`] (DESIGN.md §14).
///
/// Two flat CSR structures replace the nested `Vec`s the sweeps used to
/// chase: the comment factors as `f_off` + one contiguous payload stream,
/// and the posts grouped by author (`a_off`/`a_post`, ascending post id per
/// author so every accumulation keeps its serial order and bits). When the
/// distinct sentiment factors fit [`MAX_DISTINCT_SF`] — always, unless a
/// caller hand-crafts exotic factor sets — each comment stores a
/// `commenter × factor` slot id instead of its `(commenter, factor)` pair,
/// and pass A refreshes a small per-sweep contribution table (`nb × S`
/// divides) instead of dividing once per comment.
///
/// [`solve_prepared`] builds this per call; callers that re-solve the same
/// inputs repeatedly (benchmarks) build it once, and the incremental engine
/// derives it from its maintained flat stream; both then use
/// [`solve_prepared_with_layout`]. The layout snapshots every input the
/// sweeps read — rebuild it after any edit, or the solve will read stale
/// structure.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepLayout {
    /// CSR offsets into the comment stream, one row per post.
    f_off: Vec<u32>,
    /// Destination post id of each comment in the stream (post-major, so
    /// entries are non-decreasing). Pass A's serial gather scatters through
    /// this instead of looping per post: the per-post inner loop averages
    /// only a few trips, so its exit branch mispredicts once per post and
    /// dominates the sweep; the flat walk has one perfectly-predicted
    /// branch.
    f_post: Vec<u32>,
    /// Tabulated comment stream: `commenter·S + factor_code` per comment.
    /// Empty when `tabulated` is false.
    f_slot: Vec<u32>,
    /// The distinct factor values, indexed by factor code. Keyed by bit
    /// pattern (`to_bits`), so 0.0 and -0.0 stay distinct.
    sf_values: Vec<f64>,
    /// Direct comment stream (fallback): commenter index per comment.
    /// Empty when `tabulated` is true.
    f_commenter: Vec<u32>,
    /// Direct comment stream (fallback): sanitised factor per comment.
    f_sf: Vec<f64>,
    /// CSR offsets into `a_post`, one row per blogger.
    a_off: Vec<u32>,
    /// Post ids grouped by author, ascending within each group.
    a_post: Vec<u32>,
    /// Sanitised, max-normalised post quality — the exact vector the
    /// per-call prologue would produce, snapshotted so steady-state
    /// re-solves skip the sanitise passes.
    quality: Vec<f64>,
    /// Sanitised GL facet (finite entries clamped to [0, 1], rest zeroed).
    gl: Vec<f64>,
    /// Sanitised total-comment counts (non-finite / non-positive → 1).
    tc: Vec<f64>,
    /// Whether the slot encoding is in effect.
    tabulated: bool,
    /// Whether any input was sanitised — non-finite factor, quality, GL or
    /// TC entry (propagates to [`SolveStatus::Degenerate`]).
    sanitised: bool,
    nb: usize,
    np: usize,
}

/// The flat, post-major solver inputs a [`SweepLayout`] is assembled from:
/// one entry per comment, grouped by post in dataset order (comments of a
/// post in their dataset order), plus the per-post and per-blogger scalar
/// vectors. Nothing is sanitised yet.
pub(crate) struct FlatInputs {
    /// CSR offsets into the comment stream, one row per post.
    pub f_off: Vec<u32>,
    /// Destination post id of each comment.
    pub f_post: Vec<u32>,
    /// Commenter index of each comment.
    pub commenter: Vec<u32>,
    /// Sentiment factor of each comment (decayed, when the analysis is).
    pub sf: Vec<f64>,
    /// Unnormalised quality per post (decayed, when the analysis is).
    pub raw_quality: Vec<f64>,
    /// `TC(b)` per blogger.
    pub tc: Vec<f64>,
}

impl SweepLayout {
    /// Builds the layout for one `(dataset, inputs)` pair.
    ///
    /// # Panics
    /// Panics if `inputs.factors` does not match the dataset's post count,
    /// names a commenter outside the blogger range, or the corpus exceeds
    /// the `u32` CSR index space. The commenter validation here is what
    /// lets the sweep gathers skip per-element bounds checks.
    pub fn build(ds: &Dataset, inputs: &SolverInputs) -> SweepLayout {
        let nb = ds.bloggers.len();
        let np = ds.posts.len();
        assert_eq!(inputs.factors.len(), np, "factors input mismatch");
        assert_eq!(inputs.raw_quality.len(), np, "quality input mismatch");
        let total: usize = inputs.factors.iter().map(Vec::len).sum();
        assert!(
            np < u32::MAX as usize && total < u32::MAX as usize && nb < u32::MAX as usize,
            "flat CSR offsets are u32"
        );
        let mut f_off: Vec<u32> = Vec::with_capacity(np + 1);
        f_off.push(0);
        let mut f_post: Vec<u32> = Vec::with_capacity(total);
        let mut commenter: Vec<u32> = Vec::with_capacity(total);
        let mut sf: Vec<f64> = Vec::with_capacity(total);
        for (k, per_post) in inputs.factors.iter().enumerate() {
            for &(j, s) in per_post {
                assert!(j < nb, "factor commenter index out of range");
                f_post.push(k as u32);
                commenter.push(j as u32);
                sf.push(s);
            }
            f_off.push(commenter.len() as u32);
        }
        let author: Vec<u32> = ds.posts.iter().map(|p| p.author.index() as u32).collect();
        SweepLayout::assemble(
            nb,
            &author,
            &inputs.gl,
            FlatInputs {
                f_off,
                f_post,
                commenter,
                sf,
                raw_quality: inputs.raw_quality.clone(),
                tc: inputs.tc.clone(),
            },
        )
    }

    /// Assembles the layout from flat post-major inputs, the author of
    /// each post and the GL facet: sanitises every value, tabulates the
    /// comment stream when its distinct factors fit [`MAX_DISTINCT_SF`]
    /// (codes in first-occurrence order), groups posts by author, and
    /// max-normalises quality. [`SweepLayout::build`] and the incremental
    /// engine's maintained stream both end here, so equal flat inputs give
    /// equal layouts.
    ///
    /// # Panics
    /// Panics on mismatched lengths, a commenter or author outside the
    /// blogger range, or a corpus beyond the `u32` index space.
    pub(crate) fn assemble(nb: usize, author: &[u32], gl: &[f64], flat: FlatInputs) -> SweepLayout {
        let FlatInputs {
            f_off,
            f_post,
            commenter,
            mut sf,
            raw_quality,
            tc,
        } = flat;
        let np = author.len();
        let total = commenter.len();
        assert!(
            np < u32::MAX as usize && total < u32::MAX as usize && nb < u32::MAX as usize,
            "flat CSR offsets are u32"
        );
        assert_eq!(f_off.len(), np + 1, "comment offsets mismatch");
        assert_eq!(f_off[np] as usize, total, "comment offsets mismatch");
        assert_eq!(f_post.len(), total, "comment stream mismatch");
        assert_eq!(sf.len(), total, "comment stream mismatch");
        assert_eq!(raw_quality.len(), np, "quality input mismatch");
        assert_eq!(gl.len(), nb, "gl input mismatch");
        assert_eq!(tc.len(), nb, "tc input mismatch");
        // The sweeps index `inf`, `tc` and the term table by these without
        // bounds checks.
        assert!(
            commenter.iter().all(|&j| (j as usize) < nb),
            "factor commenter index out of range"
        );
        assert!(
            author.iter().all(|&a| (a as usize) < nb),
            "post author out of range"
        );
        let mut sanitised = false;
        for s in sf.iter_mut() {
            if !s.is_finite() {
                sanitised = true;
                *s = 0.0;
            }
        }
        // Tabulated attempt: code each factor by its bit pattern (so 0.0
        // and -0.0 stay distinct), in first-occurrence order.
        let mut sf_values: Vec<f64> = Vec::new();
        let mut sf_bits = [0u64; MAX_DISTINCT_SF];
        let mut codes: Vec<u8> = Vec::with_capacity(total);
        let mut tabulated = true;
        for &s in &sf {
            let bits = s.to_bits();
            let code = match (0..sf_values.len()).find(|&c| sf_bits[c] == bits) {
                Some(c) => c,
                None if sf_values.len() < MAX_DISTINCT_SF => {
                    sf_bits[sf_values.len()] = bits;
                    sf_values.push(s);
                    sf_values.len() - 1
                }
                None => {
                    tabulated = false;
                    break;
                }
            };
            codes.push(code as u8);
        }
        let (f_slot, f_commenter, f_sf) = if tabulated {
            let s = sf_values.len() as u32;
            let slots = commenter
                .iter()
                .zip(&codes)
                .map(|(&j, &code)| j * s + u32::from(code))
                .collect();
            (slots, Vec::new(), Vec::new())
        } else {
            // Exotic factor set: the direct per-comment stream.
            sf_values.clear();
            (Vec::new(), commenter, sf)
        };
        // Author CSR by counting sort; filling in post order keeps each
        // author's segment ascending in post id.
        let mut a_off = vec![0u32; nb + 1];
        for &a in author {
            a_off[a as usize + 1] += 1;
        }
        for i in 0..nb {
            a_off[i + 1] += a_off[i];
        }
        let mut cursor: Vec<u32> = a_off[..nb].to_vec();
        let mut a_post = vec![0u32; np];
        for (k, &a) in author.iter().enumerate() {
            let c = &mut cursor[a as usize];
            a_post[*c as usize] = k as u32;
            *c += 1;
        }
        // Snapshot the sanitised scalar inputs — byte for byte what the
        // reference kernel's prologue computes, so the fused solve skips
        // those passes entirely.
        let mut quality = raw_quality;
        for q in quality.iter_mut() {
            if !(q.is_finite() && *q >= 0.0) {
                sanitised = true;
                *q = 0.0;
            }
        }
        let qmax = quality.iter().cloned().fold(0.0f64, f64::max);
        if qmax > 0.0 {
            for q in quality.iter_mut() {
                *q /= qmax;
            }
        }
        let gl: Vec<f64> = gl
            .iter()
            .map(|&g| {
                if g.is_finite() {
                    g.clamp(0.0, 1.0)
                } else {
                    sanitised = true;
                    0.0
                }
            })
            .collect();
        let mut tc = tc;
        for t in tc.iter_mut() {
            if !(t.is_finite() && *t > 0.0) {
                sanitised = true;
                *t = 1.0;
            }
        }
        SweepLayout {
            f_off,
            f_post,
            f_slot,
            sf_values,
            f_commenter,
            f_sf,
            a_off,
            a_post,
            quality,
            gl,
            tc,
            tabulated,
            sanitised,
            nb,
            np,
        }
    }
}

/// Which sweep kernel [`solve_prepared_impl`] runs, with its input. Both
/// produce the same [`InfluenceScores`] bit for bit; they differ only in
/// data layout and pass structure (DESIGN.md §14).
#[derive(Clone, Copy)]
enum SweepKernel<'a> {
    /// Flat CSR layouts, three fused passes per sweep.
    Fused(&'a SweepLayout),
    /// The pre-§14 kernel: nested `Vec` layouts, nine passes per sweep.
    Reference(&'a SolverInputs),
}

/// Runs the solver over prebuilt inputs, optionally warm-starting from a
/// previous influence vector (entries beyond its length — new bloggers —
/// start neutral at 0.5).
///
/// # Panics
/// Panics if `params` fail validation or the inputs' dimensions do not
/// match the dataset.
pub fn solve_prepared(
    ds: &Dataset,
    inputs: &SolverInputs,
    params: &MassParams,
    warm_start: Option<&[f64]>,
) -> InfluenceScores {
    let layout = SweepLayout::build(ds, inputs);
    solve_prepared_impl(ds, params, warm_start, SweepKernel::Fused(&layout))
}

/// [`solve_prepared`] over a prebuilt [`SweepLayout`], skipping the layout
/// build. Bit-identical to [`solve_prepared`] on the inputs the layout was
/// built from — the layout carries every input the sweeps read, so rebuild
/// it after any edit.
///
/// # Panics
/// Panics if `params` fail validation or the layout's dimensions do not
/// match the dataset.
pub fn solve_prepared_with_layout(
    ds: &Dataset,
    layout: &SweepLayout,
    params: &MassParams,
    warm_start: Option<&[f64]>,
) -> InfluenceScores {
    assert_eq!(layout.np, ds.posts.len(), "layout post count mismatch");
    assert_eq!(
        layout.nb,
        ds.bloggers.len(),
        "layout blogger count mismatch"
    );
    solve_prepared_impl(ds, params, warm_start, SweepKernel::Fused(layout))
}

/// [`solve_prepared`] on the pre-§14 sweep kernel: the comment factors stay
/// in their nested per-post `Vec`s and every sweep runs the original nine
/// passes (fill, max, normalise ×2, plus separate post-score, gather and
/// residual passes). Kept callable so the differential suite and the X17
/// bench can pin the fused kernel — which must match it bit for bit at
/// every thread count — against the real pre-optimisation data path.
pub fn solve_prepared_reference(
    ds: &Dataset,
    inputs: &SolverInputs,
    params: &MassParams,
    warm_start: Option<&[f64]>,
) -> InfluenceScores {
    let (nb, np) = (ds.bloggers.len(), ds.posts.len());
    assert_eq!(inputs.raw_quality.len(), np, "quality input mismatch");
    assert_eq!(inputs.gl.len(), nb, "gl input mismatch");
    assert_eq!(inputs.factors.len(), np, "factors input mismatch");
    assert_eq!(inputs.tc.len(), nb, "tc input mismatch");
    solve_prepared_impl(ds, params, warm_start, SweepKernel::Reference(inputs))
}

fn solve_prepared_impl(
    ds: &Dataset,
    params: &MassParams,
    warm_start: Option<&[f64]>,
    kernel: SweepKernel<'_>,
) -> InfluenceScores {
    params.validate();
    let nb = ds.bloggers.len();
    let np = ds.posts.len();
    let comments = match kernel {
        SweepKernel::Fused(l) => l.f_off[np] as usize,
        SweepKernel::Reference(inputs) => inputs.factors.iter().map(Vec::len).sum(),
    };
    // Below the solve floor the chunked sweep loses to the serial one
    // (DESIGN.md §8); the span's `threads` reports the executor that ran.
    let ex = mass_par::kernel_executor(params.threads, comments + np + nb, mass_par::floor::SOLVE);
    let _solve_span = mass_obs::span_with(
        "solver.solve",
        vec![
            field("bloggers", nb),
            field("posts", np),
            field("warm", warm_start.is_some()),
            field("threads", ex.threads()),
        ],
    );

    let mut degenerate = false;
    let (alpha, beta) = (params.alpha, params.beta);
    // Step-3 gather layout: posts grouped by author, ascending post id
    // within each group. Grouping turns the scatter into independent
    // per-blogger gathers, which parallelise freely while keeping each
    // slot's accumulation order — and therefore its bits — identical to
    // the serial sweep. The fused kernel's layout packs both the author
    // groups and the comment factors into flat CSR arrays (offsets + one
    // contiguous payload stream) so the sweep walks unit-stride memory
    // instead of chasing one heap pointer per post; the reference kernel
    // keeps the nested `Vec` layout so X17's old-vs-new rows measure the
    // real pre-§14 data path. The reference kernel keeps the pre-§14
    // check-then-maybe-clone over the nested factors; the fused layout
    // sanitised while flattening — same per-factor values and `degenerate`
    // outcome either way.
    let factors_clean: Vec<Vec<(usize, f64)>>;
    let mut factors: &[Vec<(usize, f64)>] = &[];
    let mut posts_by_author: Vec<Vec<usize>> = Vec::new();
    let layout: Option<&SweepLayout> = match kernel {
        SweepKernel::Reference(inputs) => {
            factors = &inputs.factors;
            if !inputs
                .factors
                .iter()
                .flatten()
                .all(|&(_, sf)| sf.is_finite())
            {
                degenerate = true;
                factors_clean = inputs
                    .factors
                    .iter()
                    .map(|per_post| {
                        per_post
                            .iter()
                            .map(|&(j, sf)| (j, if sf.is_finite() { sf } else { 0.0 }))
                            .collect()
                    })
                    .collect();
                factors = &factors_clean;
            }
            posts_by_author = vec![Vec::new(); nb];
            for (k, post) in ds.posts.iter().enumerate() {
                posts_by_author[post.author.index()].push(k);
            }
            None
        }
        SweepKernel::Fused(l) => {
            degenerate |= l.sanitised;
            Some(l)
        }
    };
    // Guard against non-finite inputs: a single NaN would otherwise poison
    // every score through the normalisations and Jacobi sweeps. Offending
    // entries are neutralised (quality/GL/sentiment → 0, TC → 1) and the
    // run is flagged `Degenerate` so callers can warn instead of silently
    // ranking on garbage. The layout snapshots the sanitised vectors at
    // build time, so the fused solve reads them straight off.
    let quality_cow: Cow<[f64]>;
    let gl_cow: Cow<[f64]>;
    let tc_cow: Cow<[f64]>;
    match kernel {
        SweepKernel::Fused(l) => {
            quality_cow = Cow::Borrowed(&l.quality);
            gl_cow = Cow::Borrowed(&l.gl);
            tc_cow = Cow::Borrowed(&l.tc);
        }
        SweepKernel::Reference(inputs) => {
            let raw_quality: Vec<f64> = inputs
                .raw_quality
                .iter()
                .map(|&q| {
                    if q.is_finite() && q >= 0.0 {
                        q
                    } else {
                        degenerate = true;
                        0.0
                    }
                })
                .collect();
            // Normalise quality against the current corpus maximum.
            let qmax = raw_quality.iter().cloned().fold(0.0f64, f64::max);
            quality_cow = Cow::Owned(if qmax > 0.0 {
                raw_quality.iter().map(|q| q / qmax).collect()
            } else {
                raw_quality
            });
            gl_cow = Cow::Owned(
                inputs
                    .gl
                    .iter()
                    .map(|&g| {
                        if g.is_finite() {
                            g.clamp(0.0, 1.0)
                        } else {
                            degenerate = true;
                            0.0
                        }
                    })
                    .collect(),
            );
            tc_cow = Cow::Owned(
                inputs
                    .tc
                    .iter()
                    .map(|&t| {
                        if t.is_finite() && t > 0.0 {
                            t
                        } else {
                            degenerate = true;
                            1.0
                        }
                    })
                    .collect(),
            );
        }
    }
    let quality: &[f64] = &quality_cow;
    let gl: &[f64] = &gl_cow;
    let tc: &[f64] = &tc_cow;
    // Per-sweep (commenter × factor) contribution table for tabulated
    // pass A; empty when the direct kernel runs.
    let s_count = layout.map_or(0, |l| l.sf_values.len());
    let mut contrib = vec![0.0f64; nb * s_count];
    let mut inf = vec![0.5f64; nb]; // neutral start
    if let Some(seed) = warm_start {
        for (slot, &value) in inf.iter_mut().zip(seed) {
            if value.is_finite() {
                *slot = value.clamp(0.0, 1.0);
            } else {
                degenerate = true;
                // Leave the neutral 0.5 start in place.
            }
        }
    }
    let mut next_inf = vec![0.0f64; nb];
    let mut ap = vec![0.0f64; nb];
    let mut post_score = vec![0.0f64; np];
    let mut comment_raw = vec![0.0f64; np];
    let mut iterations = 0;
    let mut residual = f64::INFINITY;
    let mut residual_history = Vec::new();
    // Sweeps 1 + i*stride are recorded; the stride doubles (and the stored
    // series is decimated to match) whenever the cap is hit.
    let mut residual_stride = 1usize;
    let mut converged = false;
    let sweep_time = mass_obs::histogram("solver.sweep_us");
    let sweep_count = mass_obs::counter("solver.sweeps");

    while iterations < params.max_iterations {
        iterations += 1;
        let sweep_start = std::time::Instant::now();

        match kernel {
            SweepKernel::Reference(_) => {
                // Step 1: raw comment scores, then max-normalise. Per-post
                // folds are independent; the max is grouping-insensitive,
                // so the chunked tree equals the serial fold bit for bit.
                ex.par_fill(&mut comment_raw, |k| {
                    factors[k]
                        .iter()
                        .fold(0.0, |cs, &(j, sf)| cs + inf[j] * sf / tc[j])
                });
                let cmax = ex.par_max(&comment_raw);
                if cmax > 0.0 {
                    ex.par_update(&mut comment_raw, |_, &c| c / cmax);
                }

                // Step 2: post influence.
                ex.par_fill(&mut post_score, |k| {
                    beta * quality[k] + (1.0 - beta) * comment_raw[k]
                });

                // Step 3: accumulated-post influence, max-normalised.
                // Gathering by author keeps each slot's addition order
                // identical to the scatter.
                ex.par_fill(&mut ap, |i| {
                    posts_by_author[i]
                        .iter()
                        .fold(0.0, |a, &k| a + post_score[k])
                });
                let amax = ex.par_max(&ap);
                if amax > 0.0 {
                    ex.par_update(&mut ap, |_, &a| a / amax);
                }

                // Step 4: overall influence + convergence check.
                ex.par_fill(&mut next_inf, |i| alpha * ap[i] + (1.0 - alpha) * gl[i]);
                residual = ex.par_reduce_det(nb, 0.0, |i| (next_inf[i] - inf[i]).abs(), f64::max);
            }
            SweepKernel::Fused(l) => {
                // The reference kernel's pass structure, tightened where it
                // pays: the per-comment `inf·sf/tc` divides collapse into a
                // small tabulated refresh, the three full-array max scans
                // and the residual scan fold into the passes that produce
                // the data, and the gathers walk flat CSR subslices instead
                // of nested heap `Vec`s. Every division stays in its own
                // contiguous stream pass — the layout autovectorises —
                // and every op keeps the reference sequence, so the output
                // bits match the reference kernel exactly (DESIGN.md §14).
                if ex.threads() == 1 {
                    // Serial fast path: the same per-element operations in
                    // the same order, written as plain slice loops. The
                    // executor's chunked passes route every element through
                    // a closure call and a raw-pointer write, which blocks
                    // the optimiser from keeping accumulators in registers;
                    // at this corpus scale that dispatch tax exceeds the
                    // arithmetic itself. Bit-identity with the chunked path
                    // is the §8 argument in reverse: chunking never changes
                    // any per-element op, and the max/residual folds are
                    // grouping-insensitive, so serial == chunked.
                    //
                    // Pass A: refresh the (commenter × factor) term table —
                    // each entry the exact reference op sequence — then
                    // accumulate raw comment scores by scattering the flat
                    // comment stream through `f_post`. A per-post inner
                    // gather averages only a couple of trips on real
                    // corpora, so its exit branch mispredicts once per post
                    // and costs more than the arithmetic; the flat walk has
                    // one long perfectly-predicted loop. Bit-identity: the
                    // stream is post-major, so each post's additions land
                    // in the same order as the nested gather, folded from
                    // the same 0.0.
                    // The accesses use `get_unchecked`: the layout build
                    // validated every commenter index against `nb`, and
                    // every slot/post id is in range by construction, so
                    // the checks would only cost (these are the hottest
                    // loads in the solver).
                    for x in comment_raw.iter_mut() {
                        *x = 0.0;
                    }
                    if l.tabulated {
                        for (j, row) in contrib.chunks_exact_mut(s_count.max(1)).enumerate() {
                            for (s, slot) in row.iter_mut().enumerate() {
                                *slot = inf[j] * l.sf_values[s] / tc[j];
                            }
                        }
                        for (&slot, &k) in l.f_slot.iter().zip(&l.f_post) {
                            // SAFETY: slot = commenter·S + code with
                            // commenter < nb (validated in build) and
                            // code < S, so slot < nb·S = contrib.len();
                            // k indexes inputs.factors, so k < np.
                            unsafe {
                                *comment_raw.get_unchecked_mut(k as usize) +=
                                    *contrib.get_unchecked(slot as usize);
                            }
                        }
                    } else {
                        for ((&j, &sf), &k) in l.f_commenter.iter().zip(&l.f_sf).zip(&l.f_post) {
                            // SAFETY: j < nb validated in build (inf and tc
                            // both hold nb entries); k < np as above.
                            unsafe {
                                *comment_raw.get_unchecked_mut(k as usize) +=
                                    *inf.get_unchecked(j as usize) * sf
                                        / *tc.get_unchecked(j as usize);
                            }
                        }
                    }
                    // The running max over posts rotates across four
                    // accumulators: a single `max` chain is a 4-cycle-latency
                    // dependency per post, which at np posts costs more than
                    // the scatter itself. Max folds are grouping-insensitive
                    // (the same fact that makes chunked == serial), so the
                    // split is bit-exact.
                    let mut cmax4 = [0.0f64; 4];
                    for (k, &cs) in comment_raw.iter().enumerate() {
                        cmax4[k & 3] = cmax4[k & 3].max(cs);
                    }
                    let cmax = cmax4[0].max(cmax4[1]).max(cmax4[2]).max(cmax4[3]);

                    // Steps 1b+2 in one pass: normalise the comment scores
                    // and blend them into post influence. The stored
                    // comment_raw bits are the same `c / cmax` the separate
                    // normalise pass produces.
                    if cmax > 0.0 {
                        for ((out, c), &q) in post_score
                            .iter_mut()
                            .zip(comment_raw.iter_mut())
                            .zip(quality)
                        {
                            let cn = *c / cmax;
                            *c = cn;
                            *out = beta * q + (1.0 - beta) * cn;
                        }
                    } else {
                        for ((out, &c), &q) in
                            post_score.iter_mut().zip(comment_raw.iter()).zip(quality)
                        {
                            *out = beta * q + (1.0 - beta) * c;
                        }
                    }

                    // Step 3: author gather over the flat CSR.
                    let mut amax = 0.0f64;
                    let mut lo = 0usize;
                    for (out, &hi) in ap.iter_mut().zip(&l.a_off[1..]) {
                        let hi = hi as usize;
                        let mut a = 0.0;
                        for &k in &l.a_post[lo..hi] {
                            // SAFETY: a_post holds post ids < np =
                            // post_score.len() by construction.
                            a += unsafe { *post_score.get_unchecked(k as usize) };
                        }
                        lo = hi;
                        *out = a;
                        amax = amax.max(a);
                    }

                    // Steps 3b+4 in one pass: normalise AP and fold it into
                    // the next influence vector plus the residual. Same
                    // per-element ops as the separate passes.
                    let mut res = 0.0f64;
                    if amax > 0.0 {
                        for (((out, a), &g), &prev) in
                            next_inf.iter_mut().zip(ap.iter_mut()).zip(gl).zip(&inf)
                        {
                            let an = *a / amax;
                            *a = an;
                            let v = alpha * an + (1.0 - alpha) * g;
                            *out = v;
                            res = res.max((v - prev).abs());
                        }
                    } else {
                        for (((out, &a), &g), &prev) in
                            next_inf.iter_mut().zip(ap.iter()).zip(gl).zip(&inf)
                        {
                            let v = alpha * a + (1.0 - alpha) * g;
                            *out = v;
                            res = res.max((v - prev).abs());
                        }
                    }
                    residual = res;
                } else {
                    // Chunked path — the same passes through the executor.
                    // Pass A: term-table refresh + gather with the running
                    // max folded into the fill.
                    let cmax = if l.tabulated {
                        ex.par_fill_rows(&mut contrib, s_count, |j, row| {
                            for (s, slot) in row.iter_mut().enumerate() {
                                *slot = inf[j] * l.sf_values[s] / tc[j];
                            }
                        });
                        ex.par_fill_fold(
                            &mut comment_raw,
                            |k| {
                                let lo = l.f_off[k] as usize;
                                let hi = l.f_off[k + 1] as usize;
                                let mut cs = 0.0;
                                for &slot in &l.f_slot[lo..hi] {
                                    cs += contrib[slot as usize];
                                }
                                cs
                            },
                            0.0,
                            |acc, _, &c| acc.max(c),
                            f64::max,
                        )
                    } else {
                        ex.par_fill_fold(
                            &mut comment_raw,
                            |k| {
                                let lo = l.f_off[k] as usize;
                                let hi = l.f_off[k + 1] as usize;
                                let mut cs = 0.0;
                                for (&j, &sf) in l.f_commenter[lo..hi].iter().zip(&l.f_sf[lo..hi]) {
                                    cs += inf[j as usize] * sf / tc[j as usize];
                                }
                                cs
                            },
                            0.0,
                            |acc, _, &c| acc.max(c),
                            f64::max,
                        )
                    };
                    if cmax > 0.0 {
                        ex.par_update(&mut comment_raw, |_, &c| c / cmax);
                    }

                    // Step 2: post influence (same stream blend as
                    // reference).
                    ex.par_fill(&mut post_score, |k| {
                        beta * quality[k] + (1.0 - beta) * comment_raw[k]
                    });

                    // Step 3: author gather over the flat CSR with the max
                    // folded in.
                    let amax = ex.par_fill_fold(
                        &mut ap,
                        |i| {
                            let lo = l.a_off[i] as usize;
                            let hi = l.a_off[i + 1] as usize;
                            let mut a = 0.0;
                            for &k in &l.a_post[lo..hi] {
                                a += post_score[k as usize];
                            }
                            a
                        },
                        0.0,
                        |acc, _, &a| acc.max(a),
                        f64::max,
                    );
                    if amax > 0.0 {
                        ex.par_update(&mut ap, |_, &a| a / amax);
                    }

                    // Step 4: overall influence with the residual folded
                    // into the same pass.
                    residual = ex.par_fill_fold(
                        &mut next_inf,
                        |i| alpha * ap[i] + (1.0 - alpha) * gl[i],
                        0.0,
                        |acc, i, &v| acc.max((v - inf[i]).abs()),
                        f64::max,
                    );
                }
            }
        }
        std::mem::swap(&mut inf, &mut next_inf);
        // The trace stream always carries the full series; the in-memory
        // history is the one bounded by the cap.
        sweep_time.record_duration(sweep_start.elapsed());
        sweep_count.inc();
        mass_obs::trace(
            "solver.sweep",
            &[field("sweep", iterations), field("residual", residual)],
        );
        if (iterations - 1) % residual_stride == 0 {
            residual_history.push(residual);
            if residual_history.len() >= params.residual_history_cap {
                let mut keep = 0usize;
                residual_history.retain(|_| {
                    keep += 1;
                    (keep - 1).is_multiple_of(2)
                });
                residual_stride *= 2;
            }
        }
        if residual < params.epsilon {
            converged = true;
            break;
        }
    }
    // Materialise the reporting vectors from the last sweep (validate()
    // guarantees at least one sweep runs).
    match kernel {
        SweepKernel::Reference(_) => {
            // comment_raw was normalised in place during the sweep; the
            // final AP is recomputed from the last post scores.
            ex.par_fill(&mut ap, |i| {
                posts_by_author[i]
                    .iter()
                    .fold(0.0, |a, &k| a + post_score[k])
            });
            let amax = ex.par_max(&ap);
            if amax > 0.0 {
                ex.par_update(&mut ap, |_, &a| a / amax);
            }
        }
        SweepKernel::Fused(_) => {
            // Nothing to do: the fused sweep leaves comment_raw, post_score
            // and ap exactly where the reference kernel's materialise pass
            // puts them (its final-AP recompute re-gathers the same
            // post_score values and re-divides by the same amax, so the
            // stored bits are already identical).
        }
    }
    let comment_norm = comment_raw;

    // Belt and braces: if anything non-finite still slipped through (e.g. a
    // pathological overflow inside the sweeps), report it rather than hand
    // back scores that compare as false in every ordering.
    if inf
        .iter()
        .chain(&post_score)
        .chain(&ap)
        .any(|x| !x.is_finite())
    {
        degenerate = true;
    }
    let status = if degenerate {
        SolveStatus::Degenerate
    } else if converged {
        SolveStatus::Converged
    } else {
        SolveStatus::MaxIterations
    };
    if degenerate {
        mass_obs::counter("solver.degenerate_runs").inc();
    }
    if !converged {
        mass_obs::counter("solver.capped_runs").inc();
    }
    if mass_obs::active() {
        // Guarded so the status string is not formatted on disabled runs.
        mass_obs::debug(
            "solver.done",
            &[
                field("iterations", iterations),
                field("residual", residual),
                field("status", format!("{status}")),
            ],
        );
    }

    InfluenceScores {
        blogger: inf,
        post: post_score,
        ap,
        gl: gl_cow.into_owned(),
        quality: quality_cow.into_owned(),
        comment: comment_norm,
        iterations,
        residual,
        residual_history,
        residual_stride,
        converged,
        status,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mass_types::{DatasetBuilder, Sentiment};

    fn solve_ds(ds: &Dataset, params: &MassParams) -> InfluenceScores {
        solve(ds, &ds.index(), params)
    }

    /// Two bloggers; A's post gets a positive comment, B's an identical but
    /// negative one. A must come out ahead.
    #[test]
    fn positive_comments_beat_negative() {
        let mut b = DatasetBuilder::new();
        let a = b.blogger("A");
        let c = b.blogger("B");
        let judge = b.blogger("Judge");
        let pa = b.post(a, "t", "same length content here exactly");
        let pb = b.post(c, "t", "same length content here exactly");
        b.comment(pa, judge, "x", Some(Sentiment::Positive));
        b.comment(pb, judge, "x", Some(Sentiment::Negative));
        let ds = b.build().unwrap();
        let s = solve_ds(&ds, &MassParams::paper());
        assert!(s.converged, "residual {}", s.residual);
        assert!(s.of(a) > s.of(c), "A {} vs B {}", s.of(a), s.of(c));
        assert!(s.of_post(pa) > s.of_post(pb));
    }

    /// An influential commenter transfers more influence than a lurker —
    /// the citation facet (shingle novelty off so both posts are identical
    /// in quality).
    #[test]
    fn influential_commenter_counts_more() {
        let mut b = DatasetBuilder::new();
        let a1 = b.blogger("target1");
        let a2 = b.blogger("target2");
        let star = b.blogger("star"); // gets lots of inlinks → high GL
        let nobody = b.blogger("nobody");
        for _ in 0..5 {
            let fan = b.blogger("fan");
            b.friend(fan, star);
        }
        let p1 = b.post(a1, "t", "identical content words");
        let p2 = b.post(a2, "t", "identical content words");
        b.comment(p1, star, "x", Some(Sentiment::Neutral));
        b.comment(p2, nobody, "x", Some(Sentiment::Neutral));
        let ds = b.build().unwrap();
        let s = solve_ds(
            &ds,
            &MassParams {
                shingle_novelty: false,
                ..MassParams::paper()
            },
        );
        assert!(
            s.of(a1) > s.of(a2),
            "star-endorsed {} vs lurker-endorsed {}",
            s.of(a1),
            s.of(a2)
        );
    }

    /// TC normalisation: a commenter spraying comments everywhere transfers
    /// less per comment than a selective one of equal influence.
    #[test]
    fn tc_normalisation_dilutes_spray_commenters() {
        let mut b = DatasetBuilder::new();
        let a1 = b.blogger("target1");
        let a2 = b.blogger("target2");
        let selective = b.blogger("selective");
        let spammer = b.blogger("spammer");
        let p1 = b.post(a1, "t", "identical content words");
        let p2 = b.post(a2, "t", "identical content words");
        b.comment(p1, selective, "x", Some(Sentiment::Neutral));
        b.comment(p2, spammer, "x", Some(Sentiment::Neutral));
        // The spammer also comments on 8 other posts.
        let sink = b.blogger("sink");
        for i in 0..8 {
            let p = b.post(sink, format!("s{i}"), "sink post words");
            b.comment(p, spammer, "x", Some(Sentiment::Neutral));
        }
        let ds = b.build().unwrap();
        let s = solve_ds(
            &ds,
            &MassParams {
                shingle_novelty: false,
                ..MassParams::paper()
            },
        );
        assert!(
            s.of(a1) > s.of(a2),
            "selective {} vs spammed {}",
            s.of(a1),
            s.of(a2)
        );
    }

    #[test]
    fn untagged_comments_resolved_by_lexicon() {
        let mut b = DatasetBuilder::new();
        let a1 = b.blogger("A");
        let a2 = b.blogger("B");
        let judge = b.blogger("judge");
        let p1 = b.post(a1, "t", "identical content words");
        let p2 = b.post(a2, "t", "identical content words");
        b.comment(p1, judge, "I agree and support this", None);
        b.comment(p2, judge, "this is wrong and terrible", None);
        let ds = b.build().unwrap();
        let s = solve_ds(
            &ds,
            &MassParams {
                shingle_novelty: false,
                ..MassParams::paper()
            },
        );
        assert!(s.of(a1) > s.of(a2));
    }

    #[test]
    fn alpha_zero_is_pure_authority() {
        let mut b = DatasetBuilder::new();
        let hub = b.blogger("hub");
        let writer = b.blogger("writer");
        b.post(
            writer,
            "t",
            "a very long and wordy post about everything imaginable",
        );
        let fan = b.blogger("fan");
        b.friend(fan, hub);
        b.friend(writer, hub);
        let ds = b.build().unwrap();
        let s = solve_ds(
            &ds,
            &MassParams {
                alpha: 0.0,
                ..MassParams::paper()
            },
        );
        assert_eq!(s.blogger, s.gl, "alpha 0 must reduce to GL");
        assert!(s.of(hub) > s.of(writer));
    }

    #[test]
    fn alpha_one_ignores_links() {
        let mut b = DatasetBuilder::new();
        let hub = b.blogger("hub");
        let writer = b.blogger("writer");
        b.post(
            writer,
            "t",
            "a very long and wordy post about everything imaginable",
        );
        let fan = b.blogger("fan");
        b.friend(fan, hub);
        let ds = b.build().unwrap();
        let s = solve_ds(
            &ds,
            &MassParams {
                alpha: 1.0,
                ..MassParams::paper()
            },
        );
        assert!(s.of(writer) > s.of(hub), "writer must win on AP alone");
        assert_eq!(s.blogger, s.ap);
    }

    #[test]
    fn empty_dataset() {
        let ds = DatasetBuilder::new().build().unwrap();
        let s = solve_ds(&ds, &MassParams::paper());
        assert!(s.blogger.is_empty());
        assert!(s.post.is_empty());
        assert!(s.converged);
    }

    #[test]
    fn commentless_linkless_corpus_ranks_by_quality() {
        let mut b = DatasetBuilder::new();
        let short = b.blogger("short");
        let long = b.blogger("long");
        b.post(short, "t", "tiny");
        b.post(long, "t", "word ".repeat(50));
        let ds = b.build().unwrap();
        let s = solve_ds(&ds, &MassParams::paper());
        assert!(s.converged);
        assert!(s.of(long) > s.of(short));
    }

    #[test]
    fn scores_bounded() {
        let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(42));
        let s = solve_ds(&out.dataset, &MassParams::paper());
        assert!(s.converged);
        for &x in s.blogger.iter().chain(&s.post).chain(&s.ap).chain(&s.gl) {
            assert!((0.0..=1.0 + 1e-12).contains(&x), "score out of range: {x}");
        }
    }

    #[test]
    fn iteration_cap_respected() {
        let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(1));
        let s = solve_ds(
            &out.dataset,
            &MassParams {
                epsilon: 1e-300,
                max_iterations: 3,
                ..MassParams::paper()
            },
        );
        assert_eq!(s.iterations, 3);
        assert!(!s.converged);
    }

    /// The capped residual history is a stride-aligned subsample of the
    /// uncapped series: entry `i` is the residual of sweep `1 + i*stride`.
    #[test]
    fn residual_history_cap_decimates_but_stays_aligned() {
        let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(1));
        let slow = MassParams {
            epsilon: 1e-300,
            max_iterations: 64,
            ..MassParams::paper()
        };
        let full = solve_ds(&out.dataset, &slow);
        assert_eq!(full.residual_stride, 1);
        assert_eq!(full.residual_history.len(), full.iterations);
        // The corpus reaches its fixed point exactly, but well past the cap
        // we decimate against below.
        assert!(
            full.iterations > 8,
            "need >8 sweeps, got {}",
            full.iterations
        );
        let capped = solve_ds(
            &out.dataset,
            &MassParams {
                residual_history_cap: 4,
                ..slow
            },
        );
        assert!(capped.residual_history.len() <= 4);
        assert!(capped.residual_stride > 1);
        assert_eq!(capped.residual_history[0], full.residual_history[0]);
        for (i, &r) in capped.residual_history.iter().enumerate() {
            assert_eq!(
                r,
                full.residual_history[i * capped.residual_stride],
                "entry {i} misaligned for stride {}",
                capped.residual_stride
            );
        }
        // The endpoint is always available even when decimation drops it.
        assert_eq!(capped.residual, full.residual);
        assert_eq!(capped.iterations, full.iterations);
    }

    #[test]
    fn deterministic() {
        let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(7));
        let a = solve_ds(&out.dataset, &MassParams::paper());
        let b = solve_ds(&out.dataset, &MassParams::paper());
        assert_eq!(a, b);
    }

    /// The interned input pipeline must reproduce the string pipeline's
    /// inputs — and therefore the whole solve — bit for bit.
    #[test]
    fn prepared_inputs_match_string_inputs_bitwise() {
        let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(9));
        let ds = &out.dataset;
        let ix = ds.index();
        let params = MassParams::paper();
        let corpus = PreparedCorpus::build(ds, params.threads);
        let legacy = SolverInputs::build(ds, &ix, &params);
        let prepared = SolverInputs::build_prepared(ds, &ix, &params, &corpus);
        assert_eq!(legacy, prepared, "solver inputs diverged");
        let a = solve_prepared(ds, &legacy, &params, None);
        let b = solve_prepared(ds, &prepared, &params, None);
        assert_eq!(
            a.blogger.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.blogger.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(
            a.post.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            b.post.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn status_tracks_convergence() {
        let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(1));
        let ok = solve_ds(&out.dataset, &MassParams::paper());
        assert_eq!(ok.status, SolveStatus::Converged);
        let capped = solve_ds(
            &out.dataset,
            &MassParams {
                epsilon: 1e-300,
                max_iterations: 3,
                ..MassParams::paper()
            },
        );
        assert_eq!(capped.status, SolveStatus::MaxIterations);
        assert!(!capped.converged);
    }

    /// NaN/∞ anywhere in the prepared inputs must neither panic nor leak
    /// into the output scores — the run is flagged `Degenerate` instead.
    #[test]
    fn non_finite_inputs_are_neutralised_and_flagged() {
        let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(3));
        let ds = &out.dataset;
        let ix = ds.index();
        let params = MassParams::paper();
        let clean = SolverInputs::build(ds, &ix, &params);

        let poisons: Vec<SolverInputs> = vec![
            {
                let mut i = clean.clone();
                i.raw_quality[0] = f64::NAN;
                i
            },
            {
                let mut i = clean.clone();
                i.gl[0] = f64::INFINITY;
                i
            },
            {
                let mut i = clean.clone();
                let k = i
                    .factors
                    .iter()
                    .position(|f| !f.is_empty())
                    .expect("has comments");
                i.factors[k][0].1 = f64::NAN;
                i
            },
            {
                let mut i = clean.clone();
                i.tc[0] = f64::NAN;
                i
            },
        ];
        for (which, inputs) in poisons.iter().enumerate() {
            let s = solve_prepared(ds, inputs, &params, None);
            assert_eq!(s.status, SolveStatus::Degenerate, "poison #{which}");
            for &x in s.blogger.iter().chain(&s.post).chain(&s.ap).chain(&s.gl) {
                assert!(
                    x.is_finite(),
                    "poison #{which} leaked a non-finite score: {x}"
                );
                assert!((0.0..=1.0 + 1e-12).contains(&x), "poison #{which}: {x}");
            }
        }
    }

    /// The fused three-pass kernel must reproduce the pre-§14 reference
    /// kernel — every output field, bit for bit — across shapes, parameter
    /// corners, thread counts and warm starts.
    #[test]
    fn fused_kernel_matches_reference_bitwise() {
        for seed in [1u64, 7, 9] {
            let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(seed));
            let ds = &out.dataset;
            let ix = ds.index();
            let variants = [
                MassParams::paper(),
                MassParams {
                    alpha: 0.0,
                    ..MassParams::paper()
                },
                MassParams {
                    alpha: 1.0,
                    beta: 0.1,
                    ..MassParams::paper()
                },
                MassParams {
                    epsilon: 1e-300,
                    max_iterations: 12,
                    residual_history_cap: 4,
                    ..MassParams::paper()
                },
            ];
            for base in variants {
                let inputs = SolverInputs::build(ds, &ix, &base);
                let warm: Vec<f64> = (0..ds.bloggers.len())
                    .map(|i| (i % 10) as f64 / 10.0)
                    .collect();
                for threads in [1usize, 4] {
                    let params = MassParams {
                        threads,
                        ..base.clone()
                    };
                    for seed_vec in [None, Some(warm.as_slice())] {
                        // Floors off: on a tiny corpus every thread count
                        // would otherwise take the serial sweep.
                        let (fast, slow) = mass_par::without_work_floors(|| {
                            (
                                solve_prepared(ds, &inputs, &params, seed_vec),
                                solve_prepared_reference(ds, &inputs, &params, seed_vec),
                            )
                        });
                        let ctx =
                            format!("seed={seed} threads={threads} warm={}", seed_vec.is_some());
                        assert_eq!(fast.iterations, slow.iterations, "{ctx}");
                        assert_eq!(fast.residual.to_bits(), slow.residual.to_bits(), "{ctx}");
                        assert_eq!(fast.residual_stride, slow.residual_stride, "{ctx}");
                        assert_eq!(fast.converged, slow.converged, "{ctx}");
                        assert_eq!(fast.status, slow.status, "{ctx}");
                        for (name, a, b) in [
                            ("blogger", &fast.blogger, &slow.blogger),
                            ("post", &fast.post, &slow.post),
                            ("ap", &fast.ap, &slow.ap),
                            ("gl", &fast.gl, &slow.gl),
                            ("quality", &fast.quality, &slow.quality),
                            ("comment", &fast.comment, &slow.comment),
                            ("history", &fast.residual_history, &slow.residual_history),
                        ] {
                            assert_eq!(
                                a.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                b.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                                "{name} diverged at {ctx}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The fused kernel must also neutralise poisoned inputs exactly like
    /// the reference kernel (the sanitisation runs before either sweep).
    #[test]
    fn fused_kernel_matches_reference_on_degenerate_inputs() {
        let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(3));
        let ds = &out.dataset;
        let ix = ds.index();
        let params = MassParams::paper();
        let mut inputs = SolverInputs::build(ds, &ix, &params);
        inputs.raw_quality[0] = f64::NAN;
        inputs.gl[0] = f64::INFINITY;
        let fast = solve_prepared(ds, &inputs, &params, None);
        let slow = solve_prepared_reference(ds, &inputs, &params, None);
        assert_eq!(fast.status, SolveStatus::Degenerate);
        assert_eq!(fast.status, slow.status);
        assert_eq!(
            fast.blogger.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            slow.blogger.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
    }

    /// A prebuilt [`SweepLayout`] must be invisible in the output: same
    /// bits as the per-call layout build, at every thread count, cold and
    /// warm.
    #[test]
    fn prebuilt_layout_matches_per_call_layout_bitwise() {
        let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(5));
        let ds = &out.dataset;
        let ix = ds.index();
        let base = MassParams::paper();
        let inputs = SolverInputs::build(ds, &ix, &base);
        let layout = SweepLayout::build(ds, &inputs);
        let warm: Vec<f64> = (0..ds.bloggers.len())
            .map(|i| (i % 7) as f64 / 7.0)
            .collect();
        for threads in [1usize, 4] {
            let params = MassParams {
                threads,
                ..base.clone()
            };
            for seed_vec in [None, Some(warm.as_slice())] {
                let (per_call, prebuilt) = mass_par::without_work_floors(|| {
                    (
                        solve_prepared(ds, &inputs, &params, seed_vec),
                        solve_prepared_with_layout(ds, &layout, &params, seed_vec),
                    )
                });
                assert_eq!(
                    per_call,
                    prebuilt,
                    "threads={threads} warm={}",
                    seed_vec.is_some()
                );
            }
        }
    }

    /// More distinct sentiment factors than [`MAX_DISTINCT_SF`] must fall
    /// back to the direct per-comment stream — still bit-identical to the
    /// reference kernel at every thread count.
    #[test]
    fn exotic_factor_set_falls_back_to_direct_stream() {
        let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(13));
        let ds = &out.dataset;
        let ix = ds.index();
        let base = MassParams::paper();
        let mut inputs = SolverInputs::build(ds, &ix, &base);
        // Hand the solver one distinct factor per comment — far beyond the
        // tabulation cap on any non-trivial corpus.
        let mut n = 0usize;
        for per_post in &mut inputs.factors {
            for slot in per_post.iter_mut() {
                slot.1 = 0.1 + 0.001 * n as f64;
                n += 1;
            }
        }
        assert!(
            n > MAX_DISTINCT_SF,
            "corpus too small to exercise the fallback"
        );
        let layout = SweepLayout::build(ds, &inputs);
        assert!(!layout.tabulated, "expected the direct-stream fallback");
        for threads in [1usize, 4] {
            let params = MassParams {
                threads,
                ..base.clone()
            };
            let (fast, slow, prebuilt) = mass_par::without_work_floors(|| {
                (
                    solve_prepared(ds, &inputs, &params, None),
                    solve_prepared_reference(ds, &inputs, &params, None),
                    solve_prepared_with_layout(ds, &layout, &params, None),
                )
            });
            assert_eq!(fast, slow, "threads={threads}");
            assert_eq!(fast, prebuilt, "threads={threads} prebuilt");
        }
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn stale_layout_dimensions_panic() {
        let small = mass_synth::generate(&mass_synth::SynthConfig::tiny(3));
        let big = mass_synth::generate(&mass_synth::SynthConfig::tiny(4));
        let params = MassParams::paper();
        let inputs_small = SolverInputs::build(&small.dataset, &small.dataset.index(), &params);
        let layout_small = SweepLayout::build(&small.dataset, &inputs_small);
        let _ = solve_prepared_with_layout(&big.dataset, &layout_small, &params, None);
    }

    #[test]
    #[should_panic(expected = "commenter index out of range")]
    fn layout_rejects_out_of_range_commenter() {
        let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(3));
        let ds = &out.dataset;
        let ix = ds.index();
        let params = MassParams::paper();
        let mut inputs = SolverInputs::build(ds, &ix, &params);
        let k = inputs
            .factors
            .iter()
            .position(|f| !f.is_empty())
            .expect("has comments");
        inputs.factors[k][0].0 = ds.bloggers.len();
        let _ = SweepLayout::build(ds, &inputs);
    }

    #[test]
    fn nan_warm_start_falls_back_to_neutral() {
        let out = mass_synth::generate(&mass_synth::SynthConfig::tiny(3));
        let ds = &out.dataset;
        let ix = ds.index();
        let params = MassParams::paper();
        let inputs = SolverInputs::build(ds, &ix, &params);
        let seed = vec![f64::NAN; ds.bloggers.len()];
        let s = solve_prepared(ds, &inputs, &params, Some(&seed));
        assert_eq!(s.status, SolveStatus::Degenerate);
        assert!(s.blogger.iter().all(|x| x.is_finite()));
        // A NaN seed must produce the same fixed point as a cold start.
        let cold = solve_prepared(ds, &inputs, &params, None);
        assert_eq!(s.blogger, cold.blogger);
    }
}
