//! The incremental engine's solver inputs, kept flat and in step with the
//! dataset as edits arrive (DESIGN.md §11, §14, §15).
//!
//! A batch solve flattens the nested per-post factor `Vec`s into a
//! [`SweepLayout`] and, on a temporal run, first clones every input to
//! decay it ([`decay_inputs`](crate::temporal::decay_inputs)). The engine
//! skips both: [`LiveInputs`] holds the comment stream flat in arrival
//! order, each item's decay weight at the current horizon, and the visible
//! comment count per blogger, all appended or updated by the edit that
//! changes them. A refresh derives its layout from these with one stable
//! counting sort into post-major order and the same per-element
//! `sf·w` / `q·w` products [`decay_inputs`](crate::temporal::decay_inputs)
//! computes, then hands it to the same [`SweepLayout::assemble`] the batch
//! build ends in — so the layout is equal to the batch one, field for
//! field.
//!
//! Every mutation happens at edit time; a refresh only reads. A refresh
//! that panics therefore leaves nothing to roll back here.

use crate::params::MassParams;
use crate::solver::{FlatInputs, SweepLayout};
use crate::temporal::{comment_visible, TemporalParams};
use mass_types::Dataset;

/// Decay weights at the engine's current horizon, cached so a window
/// advance evaluates each weight once and a refresh evaluates none.
#[derive(Debug)]
struct DecayWeights {
    /// Per post: its weight.
    post: Vec<f64>,
    /// Per comment, in arrival order: its weight (0.0 while its post is
    /// unborn).
    comment: Vec<f64>,
    /// Per blogger: comments visible at the horizon (the decayed `TC`).
    visible: Vec<u32>,
}

/// The engine's undecayed solver inputs in flat form, plus the cached
/// decay weights of a temporal engine.
#[derive(Debug)]
pub(crate) struct LiveInputs {
    /// Unnormalised, undecayed quality per post.
    pub(crate) raw_quality: Vec<f64>,
    /// Normalised GL authority per blogger.
    pub(crate) gl: Vec<f64>,
    /// Undecayed `TC(b)` per blogger (all ones without TC normalisation).
    tc: Vec<f64>,
    /// Comments each blogger has made, so `TC` updates are O(1).
    comment_counts: Vec<u32>,
    /// Per post: author index, tick and comment count.
    post_author: Vec<u32>,
    post_ts: Vec<u64>,
    post_comments: Vec<u32>,
    /// The comment stream in arrival order (per post, arrival order is the
    /// dataset order): post, commenter, undecayed factor, tick.
    c_post: Vec<u32>,
    c_commenter: Vec<u32>,
    c_sf: Vec<f64>,
    c_ts: Vec<u64>,
    /// Present exactly when the engine runs with temporal params.
    weights: Option<DecayWeights>,
}

impl LiveInputs {
    /// The flat form of a freshly built engine's inputs. `factors` holds
    /// each post's `(commenter, factor)` pairs in dataset order.
    pub(crate) fn new(
        ds: &Dataset,
        raw_quality: Vec<f64>,
        gl: Vec<f64>,
        factors: Vec<Vec<(usize, f64)>>,
        params: &MassParams,
    ) -> LiveInputs {
        let nb = ds.bloggers.len();
        let total: usize = factors.iter().map(Vec::len).sum();
        let mut live = LiveInputs {
            raw_quality,
            gl,
            tc: vec![1.0; nb],
            comment_counts: vec![0; nb],
            post_author: Vec::with_capacity(ds.posts.len()),
            post_ts: Vec::with_capacity(ds.posts.len()),
            post_comments: Vec::with_capacity(ds.posts.len()),
            c_post: Vec::with_capacity(total),
            c_commenter: Vec::with_capacity(total),
            c_sf: Vec::with_capacity(total),
            c_ts: Vec::with_capacity(total),
            weights: params.temporal.map(|_| DecayWeights {
                post: Vec::with_capacity(ds.posts.len()),
                comment: Vec::with_capacity(total),
                visible: vec![0; nb],
            }),
        };
        for (post, per_post) in ds.posts.iter().zip(factors) {
            live.push_post_row(post.author.index(), post.ts, params);
            for (c, (commenter, sf)) in post.comments.iter().zip(per_post) {
                live.push_comment(live.post_ts.len() - 1, commenter, sf, c.ts, params);
            }
        }
        live
    }

    /// Extends the blogger-side vectors for a new blogger (GL placeholder
    /// until the provider reruns, `TC` at its floor).
    pub(crate) fn push_blogger(&mut self) {
        self.gl.push(0.0);
        self.tc.push(1.0);
        self.comment_counts.push(0);
        if let Some(w) = &mut self.weights {
            w.visible.push(0);
        }
    }

    /// Appends a post with no comments yet; its comments follow through
    /// [`push_comment`](Self::push_comment).
    pub(crate) fn push_post(
        &mut self,
        author: usize,
        ts: u64,
        raw_quality: f64,
        params: &MassParams,
    ) {
        self.raw_quality.push(raw_quality);
        self.push_post_row(author, ts, params);
    }

    fn push_post_row(&mut self, author: usize, ts: u64, params: &MassParams) {
        self.post_author.push(author as u32);
        self.post_ts.push(ts);
        self.post_comments.push(0);
        if let (Some(w), Some(t)) = (&mut self.weights, params.temporal) {
            w.post.push(t.decay.weight(ts, t.as_of));
        }
    }

    /// Appends one comment on `post` and bumps its commenter's `TC`.
    pub(crate) fn push_comment(
        &mut self,
        post: usize,
        commenter: usize,
        sf: f64,
        ts: u64,
        params: &MassParams,
    ) {
        assert!(
            self.c_post.len() < u32::MAX as usize,
            "flat CSR offsets are u32"
        );
        self.c_post.push(post as u32);
        self.c_commenter.push(commenter as u32);
        self.c_sf.push(sf);
        self.c_ts.push(ts);
        self.post_comments[post] += 1;
        if params.tc_normalisation {
            self.comment_counts[commenter] += 1;
            // TC floors at 1: a blogger's first comment keeps the divisor
            // at 1.
            self.tc[commenter] = f64::from(self.comment_counts[commenter]).max(1.0);
        }
        if let (Some(w), Some(t)) = (&mut self.weights, params.temporal) {
            let post_ts = self.post_ts[post];
            w.comment.push(t.decay.comment_weight(post_ts, ts, t.as_of));
            if comment_visible(post_ts, ts, t.as_of) {
                w.visible[commenter] += 1;
            }
        }
    }

    /// Moves the cached weights from horizon `from.as_of` to `to`: one
    /// weight evaluation per item, compared by bits with the cached one.
    /// Returns `(posts, comments)` whose weight changed bits; a comment
    /// that becomes visible counts too, since it moves its commenter's
    /// `TC` even when its weight stays 0.0.
    pub(crate) fn advance(&mut self, from: TemporalParams, to: u64) -> (usize, usize) {
        let w = self
            .weights
            .as_mut()
            .expect("a temporal engine caches decay weights");
        let decay = from.decay;
        let mut posts = 0usize;
        for (cached, &ts) in w.post.iter_mut().zip(&self.post_ts) {
            let next = decay.weight(ts, to);
            if next.to_bits() != cached.to_bits() {
                *cached = next;
                posts += 1;
            }
        }
        let mut comments = 0usize;
        let stream = self.c_post.iter().zip(&self.c_ts).zip(&self.c_commenter);
        for (cached, ((&post, &ts), &commenter)) in w.comment.iter_mut().zip(stream) {
            let post_ts = self.post_ts[post as usize];
            let next = decay.comment_weight(post_ts, ts, to);
            let shown =
                !comment_visible(post_ts, ts, from.as_of) && comment_visible(post_ts, ts, to);
            if shown {
                w.visible[commenter as usize] += 1;
            }
            if next.to_bits() != cached.to_bits() || shown {
                *cached = next;
                comments += 1;
            }
        }
        (posts, comments)
    }

    /// The sweep layout of the current state, with `gl` as the GL facet
    /// (the refresh passes its staged vector). Equal to
    /// `SweepLayout::build(ds, &decay_inputs(ds, &inputs, params))` over
    /// the batch-built inputs of the same dataset.
    pub(crate) fn layout(&self, gl: &[f64], params: &MassParams) -> SweepLayout {
        let np = self.post_author.len();
        let total = self.c_post.len();
        let mut f_off: Vec<u32> = Vec::with_capacity(np + 1);
        f_off.push(0);
        let mut end = 0u32;
        for &n in &self.post_comments {
            end += n;
            f_off.push(end);
        }
        // Stable counting sort of the arrival stream into post-major
        // order: each post's comments keep their arrival (= dataset) order.
        let mut cursor: Vec<u32> = f_off[..np].to_vec();
        let mut f_post = vec![0u32; total];
        let mut commenter = vec![0u32; total];
        let mut sf = vec![0.0f64; total];
        let mut place = |i: usize| {
            let k = self.c_post[i] as usize;
            let at = cursor[k] as usize;
            cursor[k] += 1;
            f_post[at] = k as u32;
            commenter[at] = self.c_commenter[i];
            at
        };
        let (raw_quality, tc) = match &self.weights {
            Some(w) => {
                for i in 0..total {
                    let at = place(i);
                    sf[at] = self.c_sf[i] * w.comment[i];
                }
                let raw_quality = self
                    .raw_quality
                    .iter()
                    .zip(&w.post)
                    .map(|(&q, &pw)| q * pw)
                    .collect();
                // `compute_tc` over the visible sub-corpus, as
                // `decay_inputs` has it.
                let tc = if params.tc_normalisation {
                    w.visible.iter().map(|&c| f64::from(c).max(1.0)).collect()
                } else {
                    vec![1.0; w.visible.len()]
                };
                (raw_quality, tc)
            }
            None => {
                for i in 0..total {
                    let at = place(i);
                    sf[at] = self.c_sf[i];
                }
                (self.raw_quality.clone(), self.tc.clone())
            }
        };
        SweepLayout::assemble(
            gl.len(),
            &self.post_author,
            gl,
            FlatInputs {
                f_off,
                f_post,
                commenter,
                sf,
                raw_quality,
                tc,
            },
        )
    }
}
