//! Incremental analysis: keep scores fresh while the blogosphere grows.
//!
//! The demo lets a user extend the loaded data (crawl more spaces, watch
//! new comments arrive) and re-rank; recomputing everything per edit is
//! wasteful because input preparation — novelty shingling above all — and
//! link analysis dominate. [`IncrementalMass`] maintains the solver inputs
//! across edits — flat, in the form the solver's
//! [`SweepLayout`] is derived from, with each item's decay weight cached
//! at the current horizon — and classifies every edit into a
//! [`DirtySet`] so a refresh does only the work the delta obliges:
//!
//! * **add post** — scores its quality with the *persistent* novelty
//!   detector (so a repost of an already-seen text is still caught),
//!   classifies it with the existing Post Analyzer model, appends its
//!   comment factors;
//! * **add comment** — appends one factor, bumps the commenter's `TC`, and
//!   records a reply edge;
//! * **add blogger / friend link** — extends the blogger-side vectors and
//!   records graph deltas; the provider's link CSR is maintained in place
//!   ([`LinkCsr::apply_edits`]), never rebuilt;
//! * **refresh** — folds the dirty set into its minimal obligations and
//!   re-solves, in one of two modes.
//!
//! **The exactness contract (DESIGN.md §11).** A
//! [`RefreshMode::Exact`] refresh is `f64::to_bits`-identical to a full
//! [`MassAnalysis::analyze`] over the current dataset — not merely
//! tolerance-close: GL recomputes cold over the maintained CSR (bit-equal
//! to a rebuild) whenever the provider's input changed and is *skipped
//! entirely* when it didn't, and the solver cold-starts. The one documented
//! carve-out: under [`IvSource::TrainOnTagged`], a batch run retrains the
//! classifier on newly added *tagged* posts while the live analyzer keeps
//! its frozen model — influence scores still match bitwise (the solver
//! never reads `iv`), but post domain vectors and the domain matrix may
//! differ until the analyzer is rebuilt. [`RefreshMode::WarmStart`] trades
//! the contract for latency: previous vectors seed both GL and the solver,
//! results are tolerance-bounded with the residual reported.

use crate::analysis::MassAnalysis;
use crate::dirty::DirtySet;
use crate::domain::{domain_influence, iv_vectors_prepared, train_on_tagged_prepared};
use crate::gl::{gl_graph, gl_scores_csr};
use crate::live::LiveInputs;
use crate::params::{IvSource, MassParams};
use crate::quality::{make_detector, raw_quality_of, raw_quality_scores_with_detector};
use crate::solver::{solve_prepared_with_layout, InfluenceScores, SweepLayout};
use crate::temporal::{TemporalError, TemporalParams};
use crate::topk::{top_k, top_k_in_domain};
use mass_graph::LinkCsr;
use mass_obs::field;
use mass_text::{InterestMiner, NoveltyDetector, PreparedCorpus, SentimentLexicon};
use mass_types::{Blogger, BloggerId, Comment, Dataset, DomainId, Post, PostId};
use std::sync::Arc;

/// How [`IncrementalMass::refresh_with`] trades latency against the
/// exactness contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RefreshMode {
    /// Bit-identical to a full batch analysis of the current dataset: GL
    /// recomputes cold whenever its input graph changed (and is skipped
    /// entirely when it didn't), the solver cold-starts.
    #[default]
    Exact,
    /// Previous vectors seed both the GL iteration and the solver:
    /// tolerance-bounded results, typically far fewer sweeps, residual
    /// reported in [`RefreshStats`].
    WarmStart,
}

impl RefreshMode {
    /// Stable lowercase name (CLI flag value, obs field).
    pub fn as_str(self) -> &'static str {
        match self {
            RefreshMode::Exact => "exact",
            RefreshMode::WarmStart => "warm",
        }
    }
}

/// Where [`IncrementalMass::inject_refresh_fault`] detonates inside the
/// next refresh. Each point sits on a different stage boundary of the
/// staged pipeline, so the fault tests can prove no boundary leaks torn
/// state: whatever the point, a panicking refresh must leave the engine on
/// its previous epoch with the dirty set intact and every score bit
/// unchanged.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefreshFault {
    /// After graph edits folded into the staged CSR, before link analysis.
    AfterCsr,
    /// After link analysis produced the staged GL vector, before the solve.
    AfterGl,
    /// Inside the solve stage, after the sweep layout was derived from the
    /// maintained stream and the staged GL vector, before the solve.
    DuringSolve,
    /// After everything was computed, immediately before the commit.
    BeforeCommit,
}

impl RefreshFault {
    /// Every injection point, in pipeline order.
    pub const ALL: [RefreshFault; 4] = [
        RefreshFault::AfterCsr,
        RefreshFault::AfterGl,
        RefreshFault::DuringSolve,
        RefreshFault::BeforeCommit,
    ];
}

/// Statistics of one [`IncrementalMass::refresh`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RefreshStats {
    /// Solver sweeps this refresh needed (0 for a no-op refresh).
    pub sweeps: usize,
    /// Whether the solver converged.
    pub converged: bool,
    /// Edits absorbed since the previous refresh.
    pub edits_applied: usize,
    /// The mode the refresh ran in.
    pub mode: RefreshMode,
    /// Whether link analysis reran (false = provider input untouched, the
    /// previous GL vector was reused exactly).
    pub gl_refreshed: bool,
    /// Link-analysis sweeps (0 when GL was skipped or closed-form).
    pub gl_sweeps: usize,
    /// Final residual of the link iteration (0 when GL was skipped or
    /// closed-form).
    pub gl_residual: f64,
    /// Final L∞ residual of the solver's blogger-influence vector.
    pub residual: f64,
    /// Refresh epoch after this call (construction is epoch 0; no-op
    /// refreshes do not advance it).
    pub epoch: u64,
}

/// What one [`IncrementalMass::advance_to`] call touched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdvanceStats {
    /// The horizon before the advance.
    pub from: u64,
    /// The horizon after the advance.
    pub to: u64,
    /// Posts whose decay weight changed bits across the advance.
    pub posts_affected: usize,
    /// Comments whose decay weight (or visibility) changed bits.
    pub comments_affected: usize,
}

impl AdvanceStats {
    /// Whether the advance changed any weight at all — `false` means the
    /// next refresh is free to stay a strict no-op.
    pub fn any_affected(&self) -> bool {
        self.posts_affected > 0 || self.comments_affected > 0
    }
}

/// A live MASS analysis over a growing dataset.
#[derive(Debug)]
pub struct IncrementalMass {
    dataset: Dataset,
    params: MassParams,
    /// The solver inputs, flat, with the decay weights at the current
    /// horizon; updated by each edit, only read by a refresh.
    live: LiveInputs,
    detector: Option<NoveltyDetector>,
    lexicon: SentimentLexicon,
    /// The frozen Post Analyzer model, shared with every snapshot.
    miner: Option<Arc<InterestMiner>>,
    iv: Vec<Vec<f64>>,
    scores: InfluenceScores,
    /// Shared with the snapshots captured at this epoch.
    domain_matrix: Arc<Vec<Vec<f64>>>,
    /// Blogger display names, shared with the snapshots.
    blogger_names: Arc<Vec<String>>,
    /// The provider's link graph, maintained across edits — equals a
    /// from-scratch rebuild at every refresh (the CSR differential tests
    /// own that invariant).
    link: LinkCsr,
    /// Provider-native warm-start vector from the last GL run (empty for
    /// closed-form providers).
    gl_warm: Vec<f64>,
    /// Whether the current GL vector is bit-equal to a cold recompute
    /// (false after a warm-started GL refresh; an Exact refresh restores
    /// it by recomputing even when the graph is clean).
    gl_exact: bool,
    dirty: DirtySet,
    pending_edits: usize,
    epoch: u64,
    /// One-shot injected fault for the next refresh (chaos-test hook);
    /// interior mutability so read-only callers can arm it.
    fault: std::cell::Cell<Option<RefreshFault>>,
}

impl IncrementalMass {
    /// Builds the initial analysis (a full cold solve) — epoch 0.
    pub fn new(dataset: Dataset, params: MassParams) -> Self {
        params.validate();
        // The initial corpus is tokenized exactly once; later edits score
        // their own text through the string paths (one post at a time).
        let corpus = PreparedCorpus::build(&dataset, params.threads);
        // Build inputs with a persistent detector so later posts dedupe
        // against the initial corpus.
        let mut detector = make_detector(&params);
        let link = LinkCsr::from_digraph(&gl_graph(&dataset, &params));
        let gl = gl_scores_csr(&link, &params, None);
        let live = LiveInputs::new(
            &dataset,
            raw_quality_scores_with_detector(&dataset, &corpus, &params, detector.as_mut()),
            gl.gl,
            crate::solver::resolve_comment_factors_prepared(&dataset, &corpus),
            &params,
        );
        let scores =
            solve_prepared_with_layout(&dataset, &live.layout(&live.gl, &params), &params, None);
        let (iv, trained) = iv_vectors_prepared(&dataset, &params, &corpus);
        let classifier = match &params.iv {
            IvSource::Classifier(m) => Some(m.clone()),
            IvSource::TrainOnTagged => trained,
            IvSource::TrueDomains => {
                train_on_tagged_prepared(&dataset, dataset.domains.len(), &corpus)
            }
        };
        let domain_matrix = domain_influence(&dataset, &scores.post, &iv);
        let blogger_names = dataset.bloggers.iter().map(|b| b.name.clone()).collect();
        IncrementalMass {
            dataset,
            params,
            live,
            detector,
            lexicon: SentimentLexicon::default(),
            miner: classifier.map(|c| Arc::new(InterestMiner::new(c))),
            iv,
            scores,
            domain_matrix: Arc::new(domain_matrix),
            blogger_names: Arc::new(blogger_names),
            link,
            gl_warm: gl.warm,
            gl_exact: true,
            dirty: DirtySet::default(),
            pending_edits: 0,
            epoch: 0,
            fault: std::cell::Cell::new(None),
        }
    }

    /// Arms a one-shot panic at `point` inside the next refresh — the
    /// chaos-test hook behind `tests/refresh_faults.rs` and the serving
    /// layer's degradation drills. The refresh panics at the chosen point;
    /// the transactional pipeline guarantees the engine stays on its
    /// previous epoch and remains fully usable afterwards.
    pub fn inject_refresh_fault(&self, point: RefreshFault) {
        self.fault.set(Some(point));
    }

    fn detonate(&self, point: RefreshFault) {
        if self.fault.get() == Some(point) {
            self.fault.set(None);
            panic!("injected refresh fault: {point:?}");
        }
    }

    /// The current dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The scores as of the last [`refresh`](Self::refresh) (or
    /// construction).
    pub fn scores(&self) -> &InfluenceScores {
        &self.scores
    }

    /// The blogger × domain matrix as of the last refresh.
    pub fn domain_matrix(&self) -> &[Vec<f64>] {
        &self.domain_matrix
    }

    /// Edits applied since the last refresh (stale score indicator).
    pub fn pending_edits(&self) -> usize {
        self.pending_edits
    }

    /// The unabsorbed edit delta, classified.
    pub fn dirty(&self) -> &DirtySet {
        &self.dirty
    }

    /// Refreshes completed so far (construction is epoch 0; no-op
    /// refreshes do not advance it).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// An interest miner over the live Post Analyzer model, for matching
    /// advertisement text against the domain matrix (None when no
    /// classifier is available, e.g. an untagged corpus). The model is
    /// frozen for the engine's lifetime, so every caller (each snapshot)
    /// shares the one miner.
    pub fn interest_miner(&self) -> Option<Arc<InterestMiner>> {
        self.miner.clone()
    }

    /// The domain matrix of the last refresh, shared rather than copied.
    pub(crate) fn shared_domain_matrix(&self) -> Arc<Vec<Vec<f64>>> {
        Arc::clone(&self.domain_matrix)
    }

    /// Blogger display names (pending additions included), shared rather
    /// than copied.
    pub(crate) fn shared_blogger_names(&self) -> Arc<Vec<String>> {
        Arc::clone(&self.blogger_names)
    }

    /// The sweep layout the next refresh solves on, derived from the
    /// maintained stream and cached weights (after a refresh: the layout
    /// it solved on). Exposed so the differential tests can pin it to
    /// `SweepLayout::build` over batch-built, decayed inputs.
    pub fn sweep_layout(&self) -> SweepLayout {
        self.live.layout(&self.live.gl, &self.params)
    }

    /// The current state as a [`MassAnalysis`] snapshot (same fields a
    /// batch run surfaces).
    pub fn to_analysis(&self) -> MassAnalysis {
        MassAnalysis {
            scores: self.scores.clone(),
            iv: self.iv.clone(),
            domain_matrix: self.domain_matrix.to_vec(),
            classifier: self.miner.as_ref().map(|m| m.classifier().clone()),
            params: self.params.clone(),
        }
    }

    /// Consumes the analyzer into its dataset and a final analysis
    /// snapshot, cloning only what a live snapshot still shares.
    pub fn into_parts(self) -> (Dataset, MassAnalysis) {
        let analysis = MassAnalysis {
            scores: self.scores,
            iv: self.iv,
            domain_matrix: Arc::unwrap_or_clone(self.domain_matrix),
            classifier: self.miner.map(|m| m.classifier().clone()),
            params: self.params,
        };
        (self.dataset, analysis)
    }

    /// Registers a new blogger. O(1); no re-solve.
    pub fn add_blogger(&mut self, blogger: Blogger) -> BloggerId {
        for &f in &blogger.friends {
            assert!(
                f.index() < self.dataset.bloggers.len(),
                "friend link out of range"
            );
        }
        let id = BloggerId::new(self.dataset.bloggers.len());
        self.dirty.bloggers_added += 1;
        for &f in &blogger.friends {
            self.dirty
                .friend_edges
                .push((id.index() as u32, f.index() as u32));
        }
        Arc::make_mut(&mut self.blogger_names).push(blogger.name.clone());
        self.dataset.bloggers.push(blogger);
        // GL placeholder until the provider reruns; exact for the providers
        // that are never dirtied by a lone blogger add (DirtySet docs).
        self.live.push_blogger();
        self.pending_edits += 1;
        id
    }

    /// Adds a friend link; the provider's graph refreshes on the next
    /// refresh (when it reads friend links).
    pub fn add_friend_link(&mut self, from: BloggerId, to: BloggerId) {
        assert!(
            from.index() < self.dataset.bloggers.len(),
            "source out of range"
        );
        assert!(
            to.index() < self.dataset.bloggers.len(),
            "target out of range"
        );
        self.dataset.bloggers[from.index()].friends.push(to);
        self.dirty
            .friend_edges
            .push((from.index() as u32, to.index() as u32));
        self.pending_edits += 1;
    }

    /// Adds a post (quality scored against the accumulated corpus,
    /// classified with the existing Post Analyzer model).
    ///
    /// # Panics
    /// Panics if the author, a comment's commenter, or a link target is
    /// unknown, or a comment is a self-comment — the same rules dataset
    /// validation enforces.
    pub fn add_post(&mut self, post: Post) -> PostId {
        assert!(
            post.author.index() < self.dataset.bloggers.len(),
            "author out of range"
        );
        for link in &post.links_to {
            assert!(
                link.index() < self.dataset.posts.len(),
                "link target out of range"
            );
        }
        for c in &post.comments {
            assert!(
                c.commenter.index() < self.dataset.bloggers.len(),
                "commenter out of range"
            );
            assert!(c.commenter != post.author, "self-comment");
        }
        let id = PostId::new(self.dataset.posts.len());
        let quality = raw_quality_of(&post, &self.params, self.detector.as_mut());
        self.live
            .push_post(post.author.index(), post.ts, quality, &self.params);
        for c in &post.comments {
            let sf = self.factor_of(c);
            self.live
                .push_comment(id.index(), c.commenter.index(), sf, c.ts, &self.params);
            self.dirty
                .comment_edges
                .push((c.commenter.index() as u32, post.author.index() as u32));
        }
        self.iv.push(self.classify_post(&post));
        self.dirty.posts_added += 1;
        self.dataset.posts.push(post);
        self.pending_edits += 1;
        id
    }

    /// Appends a comment to an existing post.
    ///
    /// # Panics
    /// Panics on unknown post/commenter or a self-comment.
    pub fn add_comment(&mut self, post: PostId, comment: Comment) {
        assert!(post.index() < self.dataset.posts.len(), "post out of range");
        assert!(
            comment.commenter.index() < self.dataset.bloggers.len(),
            "commenter out of range"
        );
        let author = self.dataset.posts[post.index()].author;
        assert!(comment.commenter != author, "self-comment");
        let factor = self.factor_of(&comment);
        self.live.push_comment(
            post.index(),
            comment.commenter.index(),
            factor,
            comment.ts,
            &self.params,
        );
        self.dirty
            .comment_edges
            .push((comment.commenter.index() as u32, author.index() as u32));
        self.dirty.comments_added += 1;
        self.dataset.posts[post.index()].comments.push(comment);
        self.pending_edits += 1;
    }

    /// The engine's analysis horizon, when it runs with temporal params.
    pub fn as_of(&self) -> Option<u64> {
        self.params.temporal.map(|t| t.as_of)
    }

    /// Advances the analysis horizon ("now") to `to` — the window-advance
    /// *edit storm* of DESIGN.md §15. Each item's decay weight is evaluated
    /// once at `to` and compared by bits with the weight cached for the
    /// old horizon; every post and comment whose weight changes bits (or
    /// comment that becomes visible) is counted into the [`DirtySet`] as
    /// time dirt, and the cache moves to `to`. The next
    /// [`refresh`](Self::refresh) re-solves over the re-decayed inputs,
    /// skipping link analysis entirely (an advance touches no graph node
    /// or edge). When *no*
    /// weight changes — e.g. a hard window that slides over empty ticks —
    /// the dirty set stays clean and the next refresh is a strict no-op.
    ///
    /// Errors with [`TemporalError::NotTemporal`] when the engine has no
    /// temporal params, and [`TemporalError::RetrogradeAdvance`] when `to`
    /// lies before the current horizon (the incremental path only moves
    /// forward; analyse from scratch to look back).
    pub fn advance_to(&mut self, to: u64) -> Result<AdvanceStats, TemporalError> {
        let Some(temporal) = self.params.temporal else {
            return Err(TemporalError::NotTemporal);
        };
        let from = temporal.as_of;
        if to < from {
            return Err(TemporalError::RetrogradeAdvance { from, to });
        }
        let (posts_affected, comments_affected) = self.live.advance(temporal, to);
        self.params.temporal = Some(TemporalParams {
            as_of: to,
            decay: temporal.decay,
        });
        let stats = AdvanceStats {
            from,
            to,
            posts_affected,
            comments_affected,
        };
        if stats.any_affected() {
            self.dirty.time_advances += 1;
            self.dirty.posts_decayed += posts_affected;
            self.dirty.comments_decayed += comments_affected;
            self.pending_edits += 1;
            mass_obs::counter("incremental.window_advances").inc();
        }
        Ok(stats)
    }

    /// [`refresh_with`](Self::refresh_with) in the default
    /// [`RefreshMode::Exact`].
    pub fn refresh(&mut self) -> RefreshStats {
        self.refresh_with(RefreshMode::default())
    }

    /// Absorbs the pending edit delta: folds graph edits into the
    /// maintained CSR, reruns link analysis only when the [`DirtySet`]
    /// obliges it (or exactness demands it after warm refreshes), re-solves
    /// the influence fixed point and rebuilds the domain matrix.
    ///
    /// An empty dirty set is a strict no-op: scores keep their exact bits,
    /// the epoch does not advance, and zero solver sweeps run.
    pub fn refresh_with(&mut self, mode: RefreshMode) -> RefreshStats {
        let _span = mass_obs::span_with(
            "incremental.refresh",
            vec![
                field("mode", mode.as_str()),
                field("edits", self.pending_edits as u64),
                field("epoch", self.epoch),
            ],
        );
        if self.dirty.is_empty() {
            mass_obs::counter("incremental.noop_refreshes").inc();
            return RefreshStats {
                sweeps: 0,
                converged: self.scores.converged,
                edits_applied: 0,
                mode,
                gl_refreshed: false,
                gl_sweeps: 0,
                gl_residual: 0.0,
                residual: self.scores.residual,
                epoch: self.epoch,
            };
        }
        // The refresh is transactional: every effect is staged on
        // temporaries and `self` commits only in the infallible block at
        // the end. A panic anywhere in the pipeline — injected through
        // `inject_refresh_fault` or organic — leaves the engine on its
        // previous epoch with the dirty set intact, so a later refresh
        // absorbs the same edits again (nothing is lost, nothing torn).
        let ob = self.dirty.obligations(&self.params);

        // Graph edits fold into a staged copy of the maintained CSR — even
        // when the GL kernel is skipped — so its node count never goes
        // stale. No graph edits → no clone, the live CSR is already right.
        let provider_edges = self.dirty.provider_edges(&self.params).to_vec();
        let staged_link =
            (self.dirty.bloggers_added > 0 || !provider_edges.is_empty()).then(|| {
                let mut link = self.link.clone();
                link.apply_edits(self.dirty.bloggers_added, &provider_edges);
                link
            });
        self.detonate(RefreshFault::AfterCsr);

        // An Exact refresh must also erase the imprint of earlier
        // warm-started GL runs: their vectors are tolerance-close, not
        // bit-equal, to a cold recompute.
        let restore_exactness = mode == RefreshMode::Exact && !self.gl_exact;
        let staged_gl = if ob.refresh_gl || restore_exactness {
            let warm = match mode {
                RefreshMode::Exact => None,
                RefreshMode::WarmStart => (!self.gl_warm.is_empty()).then(|| self.gl_warm.clone()),
            };
            let link = staged_link.as_ref().unwrap_or(&self.link);
            Some(gl_scores_csr(link, &self.params, warm.as_deref()))
        } else {
            None
        };
        self.detonate(RefreshFault::AfterGl);

        let (staged_gl_vec, staged_warm, gl_refreshed, gl_sweeps, gl_residual) = match staged_gl {
            Some(r) => (Some(r.gl), Some(r.warm), true, r.sweeps, r.residual),
            None => (None, None, false, 0, 0.0),
        };
        let warm_scores = match mode {
            RefreshMode::Exact => None,
            RefreshMode::WarmStart => Some(self.scores.blogger.clone()),
        };
        // The layout is derived from the maintained stream, the cached
        // decay weights and the staged GL vector: nothing in `self` moves
        // until the commit, so a panic needs no rollback. Its per-element
        // products are the ones `decay_inputs` computes, so batch and
        // incremental solve bitwise-equal layouts (DESIGN.md §11, §15).
        let layout = self.live.layout(
            staged_gl_vec.as_deref().unwrap_or(&self.live.gl),
            &self.params,
        );
        self.detonate(RefreshFault::DuringSolve);
        let scores = solve_prepared_with_layout(
            &self.dataset,
            &layout,
            &self.params,
            warm_scores.as_deref(),
        );
        drop(layout);
        let domain_matrix = domain_influence(&self.dataset, &scores.post, &self.iv);
        self.detonate(RefreshFault::BeforeCommit);

        // Commit — infallible from here on.
        self.epoch += 1;
        if let Some(gl) = staged_gl_vec {
            self.live.gl = gl;
        }
        if let Some(link) = staged_link {
            self.link = link;
        }
        if let Some(warm) = staged_warm {
            // Closed-form providers ignore warm starts, so their refresh is
            // exact in either mode.
            self.gl_exact = mode == RefreshMode::Exact || warm.is_empty();
            self.gl_warm = warm;
            mass_obs::counter("incremental.gl_refreshes").inc();
        } else {
            mass_obs::counter("incremental.gl_skips").inc();
        }
        self.scores = scores;
        self.domain_matrix = Arc::new(domain_matrix);
        let applied = self.pending_edits;
        self.pending_edits = 0;
        self.dirty.clear();
        mass_obs::counter("incremental.refreshes").inc();
        mass_obs::counter("incremental.edits_applied").add(applied as u64);
        mass_obs::gauge("incremental.epoch").set(self.epoch as i64);
        RefreshStats {
            sweeps: self.scores.iterations,
            converged: self.scores.converged,
            edits_applied: applied,
            mode,
            gl_refreshed,
            gl_sweeps,
            gl_residual,
            residual: self.scores.residual,
            epoch: self.epoch,
        }
    }

    /// Top-k bloggers by overall influence (as of the last refresh).
    pub fn top_k_general(&self, k: usize) -> Vec<(BloggerId, f64)> {
        top_k(&self.scores.blogger, k)
    }

    /// Top-k bloggers in a domain (as of the last refresh).
    pub fn top_k_in_domain(&self, domain: DomainId, k: usize) -> Vec<(BloggerId, f64)> {
        top_k_in_domain(&self.domain_matrix, domain.index(), k)
    }

    fn factor_of(&self, c: &Comment) -> f64 {
        match c.sentiment {
            Some(s) => s.factor(),
            None => self.lexicon.factor(&c.text),
        }
    }

    fn classify_post(&self, post: &Post) -> Vec<f64> {
        let nd = self.dataset.domains.len();
        match (&self.params.iv, &self.miner, post.true_domain) {
            (IvSource::TrueDomains, _, Some(d)) => {
                let mut v = vec![0.0; nd];
                v[d.index()] = 1.0;
                v
            }
            (_, Some(miner), _) => miner.interest_vector(&format!("{} {}", post.title, post.text)),
            _ => {
                if nd == 0 {
                    Vec::new()
                } else {
                    vec![1.0 / nd as f64; nd]
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::GlProvider;
    use crate::storm::{apply_to_incremental, scripted_storm, StormMix};
    use mass_synth::{generate, SynthConfig};
    use mass_types::Sentiment;

    fn base() -> (Dataset, MassParams) {
        let out = generate(&SynthConfig::tiny(33));
        (out.dataset, MassParams::paper())
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn initial_state_matches_batch_analysis() {
        let (ds, params) = base();
        let inc = IncrementalMass::new(ds.clone(), params.clone());
        let batch = MassAnalysis::analyze(&ds, &params);
        assert_eq!(inc.scores().blogger, batch.scores.blogger);
        assert_eq!(inc.domain_matrix(), batch.domain_matrix.as_slice());
        assert_eq!(inc.epoch(), 0);
    }

    #[test]
    fn incremental_edits_match_the_batch_fixed_point_exactly() {
        let (ds, params) = base();
        let mut inc = IncrementalMass::new(ds, params.clone());

        // Apply a burst of edits.
        let author = BloggerId::new(0);
        let commenter = BloggerId::new(1);
        let newbie = inc.add_blogger(Blogger::new("newbie"));
        inc.add_friend_link(newbie, author);
        let mut post = Post::new(
            author,
            "fresh",
            "a brand new post about travel hotels and flights",
        );
        post.true_domain = Some(DomainId::new(0));
        let pid = inc.add_post(post);
        inc.add_comment(
            pid,
            Comment {
                commenter,
                text: "I agree and support".into(),
                sentiment: None,
                ts: 0,
            },
        );
        inc.add_comment(
            pid,
            Comment {
                commenter: newbie,
                text: "x".into(),
                sentiment: Some(Sentiment::Positive),
                ts: 0,
            },
        );
        assert_eq!(inc.pending_edits(), 5);

        let stats = inc.refresh();
        assert!(stats.converged);
        assert_eq!(stats.edits_applied, 5);
        assert_eq!(stats.mode, RefreshMode::Exact);
        assert!(stats.gl_refreshed, "friend link + blogger add dirty GL");
        assert_eq!(inc.pending_edits(), 0);
        assert_eq!(inc.epoch(), 1);

        // The exactness contract: influence scores match a batch analysis
        // bit for bit. (The domain matrix may differ here: the batch run
        // retrains the TrainOnTagged classifier on the new tagged post,
        // the live analyzer keeps its frozen model — the solver never
        // reads `iv`, so scores are unaffected.)
        let batch = MassAnalysis::analyze(inc.dataset(), &params);
        assert_eq!(bits(&inc.scores().blogger), bits(&batch.scores.blogger));
        assert_eq!(bits(&inc.scores().post), bits(&batch.scores.post));
    }

    #[test]
    fn randomized_edit_storms_agree_with_full_recompute() {
        // Oracle IV so batch and incremental share the domain source (the
        // default retrains the classifier per batch — the one documented
        // carve-out) — then *everything* must match bitwise: scores, post
        // vectors, the domain matrix. Shingle novelty stays ON: the
        // persistent detector sees posts in dataset order, exactly like a
        // batch rebuild, so even the order-dependent facet is exact.
        for seed in [11u64, 47, 313] {
            let out = generate(&SynthConfig {
                bloggers: 25,
                mean_posts_per_blogger: 2.0,
                seed,
                ..Default::default()
            });
            let params = MassParams {
                iv: IvSource::TrueDomains,
                ..MassParams::paper()
            };
            let mut inc = IncrementalMass::new(out.dataset, params.clone());

            for round in 0..4 {
                let script = scripted_storm(
                    inc.dataset(),
                    5 + (seed as usize + round) % 9,
                    seed * 7919 + round as u64,
                    StormMix::Mixed,
                );
                apply_to_incremental(&mut inc, &script);
                let stats = inc.refresh();
                assert!(stats.converged, "seed {seed} round {round}");
                inc.dataset().validate().unwrap();

                let batch = MassAnalysis::analyze(inc.dataset(), &params);
                assert_eq!(
                    bits(&inc.scores().blogger),
                    bits(&batch.scores.blogger),
                    "seed {seed} round {round}: blogger scores diverged"
                );
                assert_eq!(
                    bits(&inc.scores().post),
                    bits(&batch.scores.post),
                    "seed {seed} round {round}: post scores diverged"
                );
                assert_eq!(
                    bits(&inc.scores().gl),
                    bits(&batch.scores.gl),
                    "seed {seed} round {round}: GL diverged"
                );
                for (i, (ra, rb)) in inc
                    .domain_matrix()
                    .iter()
                    .zip(&batch.domain_matrix)
                    .enumerate()
                {
                    assert_eq!(
                        bits(ra),
                        bits(rb),
                        "seed {seed} round {round}: domain matrix row {i} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn gl_is_skipped_when_the_link_graph_is_untouched() {
        let (ds, params) = base();
        let mut inc = IncrementalMass::new(ds, params.clone());
        let script = scripted_storm(inc.dataset(), 12, 5, StormMix::LinkFree);
        apply_to_incremental(&mut inc, &script);
        let stats = inc.refresh();
        assert!(!stats.gl_refreshed, "link-free storm must skip GL");
        assert_eq!(stats.gl_sweeps, 0);
        // Still exact: the reused GL vector is the one a batch recompute
        // of the unchanged graph would produce.
        let batch = MassAnalysis::analyze(inc.dataset(), &params);
        assert_eq!(bits(&inc.scores().blogger), bits(&batch.scores.blogger));
    }

    #[test]
    fn empty_refresh_is_a_strict_noop() {
        let (ds, params) = base();
        let mut inc = IncrementalMass::new(ds, params);
        let before = inc.scores().clone();
        let epoch = inc.epoch();
        for mode in [RefreshMode::Exact, RefreshMode::WarmStart] {
            let stats = inc.refresh_with(mode);
            assert_eq!(stats.sweeps, 0);
            assert_eq!(stats.edits_applied, 0);
            assert!(!stats.gl_refreshed);
            assert_eq!(stats.epoch, epoch);
            assert_eq!(bits(&inc.scores().blogger), bits(&before.blogger));
            assert_eq!(bits(&inc.scores().post), bits(&before.post));
        }
        assert_eq!(
            inc.epoch(),
            epoch,
            "no-op refreshes must not advance the epoch"
        );
    }

    #[test]
    fn refresh_is_idempotent() {
        // Refreshing twice with no edits in between: the second refresh is
        // a no-op and every score keeps its exact bits.
        let (ds, params) = base();
        let mut inc = IncrementalMass::new(ds, params);
        let pid = inc.add_post(Post::new(BloggerId::new(0), "t", "words and words"));
        inc.add_comment(pid, Comment::new(BloggerId::new(1), "nice"));
        let first = inc.refresh();
        assert!(first.sweeps > 0);
        let after_first = inc.scores().clone();
        let second = inc.refresh();
        assert_eq!(second.sweeps, 0);
        assert_eq!(second.epoch, first.epoch);
        assert_eq!(bits(&inc.scores().blogger), bits(&after_first.blogger));
    }

    #[test]
    fn exact_refresh_after_warm_refreshes_restores_the_contract() {
        let (ds, params) = base();
        let mut inc = IncrementalMass::new(ds, params.clone());
        // Two warm rounds with link edits leave GL warm-started (close but
        // not bit-equal to cold).
        for round in 0..2u64 {
            let script = scripted_storm(inc.dataset(), 6, 100 + round, StormMix::Mixed);
            apply_to_incremental(&mut inc, &script);
            inc.refresh_with(RefreshMode::WarmStart);
        }
        // One more edit, then an Exact refresh: it must recompute GL cold
        // even though graph-dirtiness alone would not demand more than the
        // delta, and land exactly on the batch fixed point.
        let pid = PostId::new(0);
        let author = inc.dataset().posts[pid.index()].author;
        let commenter = BloggerId::new((author.index() + 1) % inc.dataset().bloggers.len());
        inc.add_comment(pid, Comment::new(commenter, "fresh comment"));
        let stats = inc.refresh_with(RefreshMode::Exact);
        assert!(
            stats.gl_refreshed,
            "exactness restoration must rerun GL after warm refreshes"
        );
        let batch = MassAnalysis::analyze(inc.dataset(), &params);
        assert_eq!(bits(&inc.scores().blogger), bits(&batch.scores.blogger));
        assert_eq!(bits(&inc.scores().gl), bits(&batch.scores.gl));
    }

    #[test]
    fn warm_refresh_matches_exact_ranking_on_the_synth_corpus() {
        let out = generate(&SynthConfig::tiny(21));
        let params = MassParams::paper();
        let script = scripted_storm(&out.dataset, 20, 63, StormMix::Mixed);

        let mut exact = IncrementalMass::new(out.dataset.clone(), params.clone());
        apply_to_incremental(&mut exact, &script);
        let se = exact.refresh_with(RefreshMode::Exact);

        let mut warm = IncrementalMass::new(out.dataset, params);
        apply_to_incremental(&mut warm, &script);
        let sw = warm.refresh_with(RefreshMode::WarmStart);

        assert!(se.converged && sw.converged);
        let n = exact.dataset().bloggers.len();
        let rank_e: Vec<BloggerId> = exact.top_k_general(n).into_iter().map(|(b, _)| b).collect();
        let rank_w: Vec<BloggerId> = warm.top_k_general(n).into_iter().map(|(b, _)| b).collect();
        assert_eq!(rank_e, rank_w, "warm refresh must not reorder the ranking");
        for (a, b) in exact.scores().blogger.iter().zip(&warm.scores().blogger) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn warm_refresh_residual_beats_cold_solve_at_equal_sweeps() {
        // Cap both runs at the same small sweep budget: starting from the
        // previous fixed point must land at least as close as a cold start.
        let out = generate(&SynthConfig::default());
        let capped = MassParams {
            epsilon: 1e-300, // never converges: both runs use the full budget
            max_iterations: 4,
            ..MassParams::paper()
        };
        let mut inc = IncrementalMass::new(out.dataset, capped.clone());
        let a = BloggerId::new(0);
        let b = BloggerId::new(1);
        let pid = inc.add_post(Post::new(a, "t", "short note"));
        inc.add_comment(pid, Comment::new(b, "nice"));
        let stats = inc.refresh_with(RefreshMode::WarmStart);
        assert_eq!(stats.sweeps, 4);
        let cold = MassAnalysis::analyze(inc.dataset(), &capped);
        assert_eq!(cold.scores.iterations, 4);
        assert!(
            stats.residual <= cold.scores.residual,
            "warm residual {} vs cold {} at equal sweeps",
            stats.residual,
            cold.scores.residual
        );
    }

    #[test]
    fn warm_refresh_uses_fewer_sweeps_than_cold_solve() {
        let out = generate(&SynthConfig::default());
        let params = MassParams::paper();
        let cold = MassAnalysis::analyze(&out.dataset, &params);
        let mut inc = IncrementalMass::new(out.dataset, params);
        // One tiny edit, then refresh warm.
        let a = BloggerId::new(0);
        let b = BloggerId::new(1);
        let pid = inc.add_post(Post::new(a, "t", "short note"));
        inc.add_comment(pid, Comment::new(b, "nice"));
        let stats = inc.refresh_with(RefreshMode::WarmStart);
        assert!(
            stats.sweeps <= cold.scores.iterations,
            "warm {} vs cold {}",
            stats.sweeps,
            cold.scores.iterations
        );
    }

    #[test]
    fn comment_graph_provider_is_exact_across_comment_storms() {
        // CommentGraphPageRank reads the reply graph, whose maintained
        // successor rows may order comment edges differently from a
        // post-major rebuild — PageRank only pulls over sorted predecessor
        // rows and degree counts, so the scores must still match exactly.
        let out = generate(&SynthConfig::tiny(17));
        let params = MassParams {
            gl: GlProvider::CommentGraphPageRank,
            iv: IvSource::TrueDomains,
            ..MassParams::paper()
        };
        let mut inc = IncrementalMass::new(out.dataset, params.clone());
        for round in 0..3u64 {
            let script = scripted_storm(inc.dataset(), 10, 500 + round, StormMix::Mixed);
            apply_to_incremental(&mut inc, &script);
            inc.refresh();
            let batch = MassAnalysis::analyze(inc.dataset(), &params);
            assert_eq!(
                bits(&inc.scores().blogger),
                bits(&batch.scores.blogger),
                "round {round}"
            );
            assert_eq!(
                bits(&inc.scores().gl),
                bits(&batch.scores.gl),
                "round {round}"
            );
        }
    }

    #[test]
    fn tied_newcomers_rank_by_id_after_refresh() {
        // Bloggers added with no posts, comments, or links all score
        // identically; the ranking must order them by ascending id.
        let (ds, params) = base();
        let mut inc = IncrementalMass::new(ds, params);
        let a = inc.add_blogger(Blogger::new("tied_a"));
        let b = inc.add_blogger(Blogger::new("tied_b"));
        let c = inc.add_blogger(Blogger::new("tied_c"));
        inc.refresh();
        let ranked = inc.top_k_general(inc.dataset().bloggers.len());
        let positions: Vec<usize> = [a, b, c]
            .iter()
            .map(|id| ranked.iter().position(|(r, _)| r == id).unwrap())
            .collect();
        assert!(
            positions[0] < positions[1] && positions[1] < positions[2],
            "tied newcomers out of id order: {positions:?}"
        );
        assert_eq!(ranked[positions[0]].1, ranked[positions[1]].1);
        assert_eq!(ranked[positions[1]].1, ranked[positions[2]].1);
    }

    #[test]
    fn repost_is_caught_by_the_persistent_detector() {
        let (ds, params) = base();
        let original_text = ds.posts[0].text.clone();
        let author = {
            // Any blogger other than post 0's author.
            let a = ds.posts[0].author;
            BloggerId::new((a.index() + 1) % ds.bloggers.len())
        };
        let mut inc = IncrementalMass::new(ds, params);
        let before = inc.live.raw_quality[0];
        let pid = inc.add_post(Post::new(author, "copy", original_text));
        let copy_quality = inc.live.raw_quality[pid.index()];
        assert!(
            copy_quality < before * 0.2,
            "verbatim repost not penalised: {copy_quality} vs original {before}"
        );
    }

    #[test]
    fn new_blogger_ranks_after_earning_influence() {
        let (ds, params) = base();
        let mut inc = IncrementalMass::new(ds, params);
        let star = inc.add_blogger(Blogger::new("rising_star"));
        // Ten fans link to and praise the newcomer.
        let fans: Vec<BloggerId> = (0..6).map(BloggerId::new).filter(|&f| f != star).collect();
        let pid = inc.add_post(Post::new(star, "hello", "insightful words ".repeat(30)));
        for &fan in &fans {
            inc.add_friend_link(fan, star);
            inc.add_comment(
                pid,
                Comment {
                    commenter: fan,
                    text: "x".into(),
                    sentiment: Some(Sentiment::Positive),
                    ts: 0,
                },
            );
        }
        inc.refresh();
        let rank = inc
            .top_k_general(inc.dataset().bloggers.len())
            .iter()
            .position(|(b, _)| *b == star)
            .unwrap();
        assert!(rank < 10, "heavily endorsed newcomer ranked {rank}");
    }

    #[test]
    #[should_panic(expected = "self-comment")]
    fn self_comment_rejected() {
        let (ds, params) = base();
        let author = ds.posts[0].author;
        let mut inc = IncrementalMass::new(ds, params);
        inc.add_comment(PostId::new(0), Comment::new(author, "me"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn unknown_commenter_rejected() {
        let (ds, params) = base();
        let n = ds.bloggers.len();
        let mut inc = IncrementalMass::new(ds, params);
        inc.add_comment(PostId::new(0), Comment::new(BloggerId::new(n + 1), "ghost"));
    }

    #[test]
    fn dataset_stays_valid_through_edits() {
        let (ds, params) = base();
        let mut inc = IncrementalMass::new(ds, params);
        let b = inc.add_blogger(Blogger::new("x"));
        let p = inc.add_post(Post::new(b, "t", "words"));
        inc.add_comment(p, Comment::new(BloggerId::new(0), "hi"));
        inc.refresh();
        inc.dataset().validate().unwrap();
    }

    #[test]
    fn advance_requires_temporal_params_and_forward_motion() {
        use crate::temporal::{DecayParams, TemporalError, TemporalParams};
        let (ds, params) = base();
        let mut inc = IncrementalMass::new(ds.clone(), params.clone());
        assert_eq!(inc.as_of(), None);
        assert_eq!(inc.advance_to(5), Err(TemporalError::NotTemporal));

        let temporal = MassParams {
            temporal: Some(TemporalParams {
                as_of: 10,
                decay: DecayParams::Exponential { half_life: 4.0 },
            }),
            ..params
        };
        let mut inc = IncrementalMass::new(ds, temporal);
        assert_eq!(inc.as_of(), Some(10));
        assert_eq!(
            inc.advance_to(3),
            Err(TemporalError::RetrogradeAdvance { from: 10, to: 3 })
        );
        let stats = inc.advance_to(10).unwrap();
        assert!(!stats.any_affected(), "advancing to the same tick is free");
        assert_eq!(inc.pending_edits(), 0);
    }

    #[test]
    fn weightless_advance_keeps_the_next_refresh_a_noop() {
        use crate::temporal::{DecayParams, TemporalParams};
        // Every item sits at tick 0 with a window so wide the slide never
        // expires anything: weights keep their bits, so the advance must
        // not dirty the engine.
        let (ds, params) = base();
        let mut inc = IncrementalMass::new(
            ds,
            MassParams {
                temporal: Some(TemporalParams {
                    as_of: 0,
                    decay: DecayParams::Window { horizon: 1_000_000 },
                }),
                ..params
            },
        );
        let before = inc.scores().clone();
        let epoch = inc.epoch();
        let stats = inc.advance_to(500).unwrap();
        assert!(!stats.any_affected());
        let refresh = inc.refresh();
        assert_eq!(refresh.sweeps, 0);
        assert_eq!(inc.epoch(), epoch);
        assert_eq!(bits(&inc.scores().blogger), bits(&before.blogger));
        assert_eq!(inc.as_of(), Some(500));
    }

    #[test]
    fn a_comment_that_appears_already_expired_still_counts_as_time_dirt() {
        use crate::temporal::{DecayParams, TemporalParams};
        // Everything stamped 0 except one comment stamped 3; at horizon 1
        // that comment is invisible. A jump to 20 under a 5-tick window
        // expires every item (1.0 → 0.0) and shows the late comment with
        // weight 0.0 → 0.0: its weight keeps its bits, but it now counts
        // toward its commenter's TC, so it is time dirt too.
        let (mut ds, params) = base();
        for post in &mut ds.posts {
            post.ts = 0;
            for c in &mut post.comments {
                c.ts = 0;
            }
        }
        let total: usize = ds.posts.iter().map(|p| p.comments.len()).sum();
        let late = ds
            .posts
            .iter()
            .position(|p| !p.comments.is_empty())
            .unwrap();
        ds.posts[late].comments[0].ts = 3;
        let decay = DecayParams::Window { horizon: 5 };
        let at = |as_of| MassParams {
            temporal: Some(TemporalParams { as_of, decay }),
            ..params.clone()
        };
        let mut inc = IncrementalMass::new(ds.clone(), at(1));
        let stats = inc.advance_to(20).unwrap();
        assert_eq!(stats.posts_affected, ds.posts.len());
        assert_eq!(stats.comments_affected, total);
        inc.refresh();
        let batch = MassAnalysis::analyze(&ds, &at(20));
        assert_eq!(bits(&inc.scores().blogger), bits(&batch.scores.blogger));
    }

    #[test]
    fn window_advance_matches_batch_analysis_at_the_new_horizon() {
        use crate::temporal::{DecayParams, TemporalParams};
        let (mut ds, params) = base();
        // Spread timestamps so the advance actually re-weights things.
        let np = ds.posts.len();
        for (i, post) in ds.posts.iter_mut().enumerate() {
            post.ts = (i * 100 / np.max(1)) as u64;
            for (j, c) in post.comments.iter_mut().enumerate() {
                c.ts = post.ts + j as u64;
            }
        }
        let decay = DecayParams::Exponential { half_life: 25.0 };
        let mut inc = IncrementalMass::new(
            ds.clone(),
            MassParams {
                temporal: Some(TemporalParams { as_of: 0, decay }),
                ..params.clone()
            },
        );
        for horizon in [30u64, 60, 120] {
            let stats = inc.advance_to(horizon).unwrap();
            assert!(stats.any_affected(), "horizon {horizon}");
            let refresh = inc.refresh();
            assert!(!refresh.gl_refreshed, "advances never rerun link analysis");
            let batch = MassAnalysis::analyze(
                &ds,
                &MassParams {
                    temporal: Some(TemporalParams {
                        as_of: horizon,
                        decay,
                    }),
                    ..params.clone()
                },
            );
            assert_eq!(
                bits(&inc.scores().blogger),
                bits(&batch.scores.blogger),
                "horizon {horizon}"
            );
            assert_eq!(
                bits(&inc.scores().post),
                bits(&batch.scores.post),
                "horizon {horizon}"
            );
        }
    }

    #[test]
    fn into_parts_returns_the_live_state() {
        let (ds, params) = base();
        let mut inc = IncrementalMass::new(ds, params);
        inc.add_blogger(Blogger::new("x"));
        inc.refresh();
        let top = inc.top_k_general(3);
        let (dataset, analysis) = inc.into_parts();
        dataset.validate().unwrap();
        assert_eq!(analysis.top_k_general(3), top);
        assert_eq!(analysis.domain_matrix.len(), dataset.bloggers.len());
    }
}
