//! Schedule-driven grouped execution: run the serialized training step the
//! way the MBS scheduler planned it (paper §3, Fig. 5).
//!
//! The scheduler partitions layers into groups, each with its own
//! sub-batch size (deeper groups carry more samples because down-sampling
//! shrinks their footprints). [`GroupedExecutor`] executes exactly that
//! plan over a [`crate::lower::LoweredNet`]; serializing the *whole*
//! network at one sub-batch size (MBS-FS) is the one-group
//! [`Schedule::uniform`], and the conventional step is that group with
//! `sub = batch`.
//!
//! - **Within a group** activations stream sub-batch-at-a-time.
//! - **At group boundaries** each chunk's output is staged into a pooled
//!   full-mini-batch boundary buffer; the next group re-slices that buffer
//!   at its own (typically larger) sub-batch size.
//! - **Backward consumes cache stashes in reverse.** A multi-chunk group
//!   overwrites its layers' backward caches chunk by chunk, so the forward
//!   pass *stashes* each chunk's caches — moving them out of the layers
//!   into per-(group, chunk) [`CacheStash`]es, ownership only, no copies —
//!   and backward restores each stash just before propagating that chunk's
//!   gradient. No second forward runs. The `MBS_STASH=0` knob (or
//!   [`GroupedExecutor::set_stashing`]) selects the older
//!   boundary-checkpointing strategy instead: backward *replays* each
//!   chunk's forward from the group's input boundary to rebuild the caches
//!   it needs — less live memory, one extra forward per replayed chunk.
//!   At f32 (the default) both paths produce bitwise-identical training
//!   (replay recomputes exactly the values stashing saved), pinned by the
//!   equivalence tests. Either way, single-iteration groups and the most
//!   recently forwarded chunk of each group use the live caches directly.
//!   Gradients cross each boundary through a staged full-batch gradient
//!   buffer, re-sliced at the upstream group's sub-batch size.
//! - **Reduced precision** (`MBS_PREC=bf16`, or
//!   [`GroupedExecutor::set_precision`]): interior boundary buffers and
//!   stashed cache tensors are stored as bf16, halving both footprints;
//!   gradients, live layer caches, the final logits stage, and all
//!   accumulation stay f32. Each stored element pays one
//!   round-to-nearest-even (relative error ≤ 2⁻⁸), so grouped training
//!   matches full-batch within a slightly wider tolerance, and stash and
//!   replay backward — which quantize at different points — are
//!   tolerance-equal rather than bitwise-equal.
//!
//! The synchronization points are the paper's (§3): loss
//! gradients are scaled by the *total* mini-batch size, parameter
//! gradients accumulate across every chunk of every group, and the
//! optimizer steps once at the end — so for per-sample normalizations (GN,
//! LRN) the grouped step matches `train_step_full` to f32 rounding,
//! whatever the schedule. All staging buffers persist inside the executor,
//! chunk slices come from the pooled arena, and stashed cache tensors keep
//! their arena-backed storage as they move, so steady-state grouped steps
//! run with zero arena misses.

use std::sync::OnceLock;

use mbs_core::{Group, Schedule};
use mbs_tensor::ops::{cross_entropy, softmax, softmax_xent_backward};
use mbs_tensor::prec::{self, Bf16Tensor, Precision};
use mbs_tensor::Tensor;

use crate::lower::LoweredNet;
use crate::module::{slice_batch_into, slice_batch_owned, CacheStash, Module};
use crate::optim::Sgd;

/// Whether grouped backward uses cache stashing: the `MBS_STASH`
/// environment knob, read once per process. Unset (or malformed, with a
/// warning) means stashing; `MBS_STASH=0` restores the backward **replay**
/// strategy (boundary checkpointing) for A/B comparisons and
/// memory-constrained runs. Training results are bitwise identical either
/// way; only the time/memory trade-off moves.
pub fn stash_enabled() -> bool {
    static STASH: OnceLock<bool> = OnceLock::new();
    *STASH.get_or_init(|| mbs_tensor::env::flag_knob("MBS_STASH", true))
}

/// Executes training steps group-wise according to an MBS [`Schedule`].
///
/// The executor owns the boundary staging buffers (activations and
/// gradients at every group boundary) and the per-(group, chunk) cache
/// stashes, so repeated steps reuse them; one instance should live as
/// long as the training loop.
///
/// Use it with **per-sample normalizations** (GN, LRN, or none) — the
/// models MBS targets. Batch normalization is already incompatible with
/// any serialized execution (paper §3.1: sub-batch statistics differ);
/// under the `MBS_STASH=0` replay strategy a lowered `BatchNorm2d`'s
/// running statistics would additionally be momentum-updated once more per
/// replayed chunk (the stashing default does not re-run forwards, so it
/// has no such skew).
///
/// # Examples
///
/// ```
/// use mbs_cnn::networks::toy;
/// use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler};
/// use mbs_train::data::generate;
/// use mbs_train::grouped::GroupedExecutor;
/// use mbs_train::lower::lower;
/// use mbs_train::optim::Sgd;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let net = toy::runtime_mix(8, 8);
/// let hw = HardwareConfig::cpu().with_global_buffer(4 * 1024);
/// let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1).schedule();
/// let mut model = lower(&net, &mut StdRng::seed_from_u64(1)).unwrap();
/// let mut exec = GroupedExecutor::new(&schedule, model.len());
/// let d = generate(8, 8, 0.3, 5);
/// let mut opt = Sgd::new(0.05, 0.9, 1e-4);
/// let loss = exec.train_step(&mut model, &d.images, &d.labels, &mut opt);
/// assert!(loss.is_finite());
/// ```
#[derive(Debug)]
pub struct GroupedExecutor {
    groups: Vec<Group>,
    /// `stages[g]` holds group `g`'s full-mini-batch output (the boundary
    /// activation buffer); the last entry is the logits. Interior stages
    /// follow [`GroupedExecutor::precision`]; the last is always f32.
    stages: Vec<Stage>,
    /// `grads[g]` holds the gradient of group `g`'s output, staged chunk
    /// by chunk by group `g + 1`'s backward.
    grads: Vec<Tensor>,
    /// Reusable gradient-chunk slice buffer.
    dy_chunk: Tensor,
    /// Batch-row start of the most recent forward chunk per group —
    /// backward uses that chunk's caches live (no stash, no replay).
    last_fwd_start: Vec<usize>,
    /// Whether forward stashes per-chunk caches (true) or backward replays
    /// chunk forwards (false).
    stashing: bool,
    /// Storage precision for interior boundary buffers and stashed cache
    /// tensors (the `MBS_PREC` knob by default). bf16 halves both
    /// footprints at the cost of one round-to-nearest-even per stored
    /// element; accumulation and live layer caches stay f32.
    precision: Precision,
    /// `stashes[g][i]` holds chunk `i`'s backward caches for group `g`.
    /// Only multi-iteration groups use their slots, and the chunk a group
    /// forwarded last is never stashed (its caches stay live in the
    /// layers). Slots persist across steps so the deques keep their
    /// capacity.
    stashes: Vec<Vec<CacheStash>>,
}

impl GroupedExecutor {
    /// Builds an executor for `schedule` over a lowered network with
    /// `node_count` scheduling units. Backward strategy (cache stashing
    /// vs replay) defaults to the process-wide [`stash_enabled`] knob.
    ///
    /// # Panics
    ///
    /// Panics if the schedule does not cover exactly `node_count` nodes.
    pub fn new(schedule: &Schedule, node_count: usize) -> Self {
        let covered = schedule.node_count();
        assert_eq!(
            covered, node_count,
            "schedule covers {covered} nodes but the model has {node_count}"
        );
        let groups = schedule.groups().to_vec();
        let n = groups.len();
        Self {
            groups,
            stages: (0..n).map(|_| Stage::F32(empty())).collect(),
            grads: (0..n).map(|_| empty()).collect(),
            dy_chunk: empty(),
            last_fwd_start: vec![0; n],
            stashing: stash_enabled(),
            precision: prec::precision(),
            stashes: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// The schedule groups the executor runs.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Overrides the process-wide `MBS_STASH` decision for this executor
    /// (the equivalence tests sweep stash vs replay in one process;
    /// training results are bitwise identical either way). Takes effect
    /// from the next forward — do not flip it between a forward and its
    /// backward.
    /// Turning stashing off drops any held stashes (their tensors return
    /// to the arena).
    pub fn set_stashing(&mut self, stashing: bool) {
        self.stashing = stashing;
        if !stashing {
            for slots in &mut self.stashes {
                for s in slots {
                    s.clear();
                }
            }
        }
    }

    /// Whether this executor stashes caches (vs replaying forwards).
    pub fn stashing(&self) -> bool {
        self.stashing
    }

    /// Overrides the process-wide `MBS_PREC` decision for this executor's
    /// boundary buffers and cache stashes (the precision tests compare the
    /// two in one process; the GEMM packing precision stays
    /// process-wide). Takes effect from the next forward — held stashes
    /// and staged boundaries are dropped, their storage returning to the
    /// arena.
    pub fn set_precision(&mut self, prec: Precision) {
        self.precision = prec;
        for s in &mut self.stages {
            *s = Stage::F32(empty());
        }
        for slots in &mut self.stashes {
            slots.clear();
        }
    }

    /// The precision interior boundary buffers and stashed cache tensors
    /// are stored at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Resident bytes of the staged boundary activation buffers,
    /// excluding the final (logits) stage, which always stays f32 —
    /// exactly the footprint bf16 mode halves.
    pub fn boundary_bytes(&self) -> usize {
        let interior = self.stages.len().saturating_sub(1);
        self.stages[..interior].iter().map(Stage::bytes).sum()
    }

    /// Resident bytes of tensor-valued cache-stash entries currently held
    /// across all groups ([`CacheStash::tensor_bytes`]).
    pub fn stash_tensor_bytes(&self) -> usize {
        self.stashes
            .iter()
            .flatten()
            .map(CacheStash::tensor_bytes)
            .sum()
    }

    /// Grouped forward pass over the full mini-batch; returns the staged
    /// logits. With `train` set, layer caches, cache stashes, and the
    /// boundary buffers are left ready for
    /// [`GroupedExecutor::backward_from_logits`].
    ///
    /// The per-group sub-batch sizes are applied to whatever batch `x`
    /// carries — a schedule planned for the IR's default mini-batch runs
    /// unchanged on a smaller or larger one (iteration counts are derived
    /// from `x`, not from the schedule's planning batch).
    ///
    /// # Panics
    ///
    /// Panics if `x` is empty or `model` does not have the node count the
    /// schedule covers.
    pub fn forward(&mut self, model: &mut LoweredNet, x: &Tensor, train: bool) -> &Tensor {
        let n = x.shape()[0];
        assert!(n > 0, "empty batch");
        let covered = self.groups.last().map_or(0, |g| g.end);
        assert_eq!(
            model.len(),
            covered,
            "model has {} nodes but the schedule covers {covered}",
            model.len()
        );
        let last = self.groups.len() - 1;
        let precision = self.precision;
        for (g, group) in self.groups.iter().enumerate() {
            // Split so group g's input boundary (stage g-1) stays readable
            // while stage g is written. Interior boundaries are stored at
            // the executor's precision; the final stage (the logits this
            // method returns) always stays f32.
            let (prev, cur) = self.stages.split_at_mut(g);
            let src: Option<&Stage> = (g > 0).then(|| &prev[g - 1]);
            let dst = &mut cur[0];
            let stage_prec = if g == last { Precision::F32 } else { precision };
            let mut start = 0;
            let mut chunk_idx = 0usize;
            while start < n {
                let end = (start + group.sub_batch).min(n);
                let chunk = match src {
                    None => slice_batch_owned(x, start, end),
                    Some(s) => s.chunk(start, end),
                };
                let y = model.forward_range(group.start..group.end, chunk, train);
                stage_write(dst, &y, start, n, stage_prec);
                self.last_fwd_start[g] = start;
                if train && self.stashing && end < n {
                    // Another chunk will overwrite this group's layer
                    // caches — move them out first. The group's *last*
                    // chunk is never stashed: backward meets it first and
                    // uses the live caches.
                    let slots = &mut self.stashes[g];
                    while slots.len() <= chunk_idx {
                        slots.push(CacheStash::with_precision(precision));
                    }
                    let stash = &mut slots[chunk_idx];
                    // A leftover stash (a forward whose backward never ran)
                    // is dropped — its tensors return to the arena.
                    stash.clear();
                    model.stash_range(group.start..group.end, stash);
                }
                chunk_idx += 1;
                start = end;
            }
        }
        match self.stages.last().expect("at least one group") {
            Stage::F32(t) => t,
            Stage::Bf16(_) => unreachable!("the final stage is always f32"),
        }
    }

    /// Grouped backward pass from a full-batch logits gradient, restoring
    /// each chunk's stashed caches (or replaying its forward under
    /// `MBS_STASH=0`) and re-slicing gradients at each boundary.
    /// Parameter gradients accumulate into the model; the returned value
    /// is the gradient with respect to the network input.
    ///
    /// # Panics
    ///
    /// Panics if [`GroupedExecutor::forward`] (with `train = true`) has
    /// not populated the boundary buffers and stashes for `x`.
    pub fn backward_from_logits(
        &mut self,
        model: &mut LoweredNet,
        x: &Tensor,
        dlogits: Tensor,
    ) -> Tensor {
        self.backward_inner(model, x, dlogits, true)
    }

    /// [`GroupedExecutor::backward_from_logits`] body; `want_dx = false`
    /// skips the network input's gradient when the caller discards it, as
    /// [`GroupedExecutor::train_step`] does: no input-sized buffer, no
    /// copy per group-0 chunk, and no data-gradient pass through the
    /// first node ([`LoweredNet::backward_range_params`]).
    fn backward_inner(
        &mut self,
        model: &mut LoweredNet,
        x: &Tensor,
        dlogits: Tensor,
        want_dx: bool,
    ) -> Tensor {
        let n = x.shape()[0];
        let last = self.groups.len() - 1;
        self.grads[last] = dlogits;
        let mut dx = empty();
        for g in (0..self.groups.len()).rev() {
            let group = self.groups[g].clone();
            // Consume this boundary's gradient buffer; its storage returns
            // to the arena when the group is done.
            let dy_full = std::mem::replace(&mut self.grads[g], empty());
            // Detach the input boundary (if any) so `self` stays borrowable.
            let src_owned: Option<Stage> =
                (g > 0).then(|| std::mem::replace(&mut self.stages[g - 1], Stage::F32(empty())));
            // Reverse chunk order: the first chunk processed is the last
            // one forwarded, whose layer caches are still live.
            let mut bounds: Vec<(usize, usize)> = Vec::with_capacity(group.iterations);
            let mut start = 0;
            while start < n {
                let end = (start + group.sub_batch).min(n);
                bounds.push((start, end));
                start = end;
            }
            for (chunk_idx, &(start, end)) in bounds.iter().enumerate().rev() {
                if start != self.last_fwd_start[g] {
                    // Only consult stashes in stash mode: a leftover stash
                    // from an earlier stash-mode forward (one whose
                    // backward never ran) must not shadow a replay-mode
                    // step's current batch.
                    let stash = self
                        .stashing
                        .then(|| self.stashes[g].get_mut(chunk_idx))
                        .flatten();
                    match stash.filter(|s| !s.is_empty()) {
                        Some(stash) => {
                            // Cache stashing: restore the caches this
                            // chunk's forward saved — no recompute.
                            model.unstash_range(group.start..group.end, stash);
                        }
                        None => {
                            // Boundary checkpointing (`MBS_STASH=0`):
                            // replay this chunk's forward from the group's
                            // input boundary to repopulate the caches.
                            let chunk = match &src_owned {
                                None => slice_batch_owned(x, start, end),
                                Some(s) => s.chunk(start, end),
                            };
                            let _ = model.forward_range(group.start..group.end, chunk, true);
                        }
                    }
                    self.last_fwd_start[g] = start;
                }
                slice_batch_into(&dy_full, start, end, &mut self.dy_chunk);
                let range = group.start..group.end;
                if g > 0 {
                    let d = model.backward_range(range, &self.dy_chunk);
                    stage_rows(&mut self.grads[g - 1], &d, start, n);
                } else if want_dx {
                    let d = model.backward_range(range, &self.dy_chunk);
                    stage_rows(&mut dx, &d, start, n);
                } else {
                    // Nobody reads the network input's gradient: the first
                    // node skips computing it.
                    model.backward_range_params(range, &self.dy_chunk);
                }
            }
            if let Some(boundary) = src_owned {
                // Re-attach the input boundary (forward's staged values
                // are still needed by group g-1's replay fallback).
                self.stages[g - 1] = boundary;
            }
        }
        dx
    }

    /// One grouped training step: grouped forward, full-batch softmax
    /// cross-entropy (row-wise, so chunking cannot change it), grouped
    /// backward, one optimizer step. Returns the mean loss.
    ///
    /// # Panics
    ///
    /// Panics if `labels` length differs from the batch size or `model`
    /// does not have the node count the schedule covers.
    pub fn train_step(
        &mut self,
        model: &mut LoweredNet,
        x: &Tensor,
        labels: &[usize],
        opt: &mut Sgd,
    ) -> f32 {
        let n = x.shape()[0];
        assert_eq!(labels.len(), n, "one label per sample");
        model.zero_grad();
        self.forward(model, x, true);
        let logits = match self.stages.last().expect("at least one group") {
            Stage::F32(t) => t,
            Stage::Bf16(_) => unreachable!("the final stage is always f32"),
        };
        let probs = softmax(logits);
        let loss = cross_entropy(&probs, labels);
        let dlogits = softmax_xent_backward(&probs, labels, n);
        drop(probs);
        let _ = self.backward_inner(model, x, dlogits, false);
        opt.step(model);
        loss
    }
}

/// A zero-element placeholder tensor with **no** backing allocation — it
/// neither draws from nor returns to the arena, so swapping placeholders
/// in and out of the staging slots is free and does not churn the pool.
fn empty() -> Tensor {
    Tensor::from_vec(&[0], Vec::new())
}

/// One group-boundary activation buffer: f32, or bf16-encoded to half the
/// bytes (one round-to-nearest-even per element on the way in, exact
/// decode on the way out).
#[derive(Debug)]
enum Stage {
    F32(Tensor),
    Bf16(Bf16Tensor),
}

impl Stage {
    /// Resident payload bytes of the staged activations.
    fn bytes(&self) -> usize {
        match self {
            Stage::F32(t) => t.len() * 4,
            Stage::Bf16(b) => b.bytes(),
        }
    }

    /// An owned f32 chunk of batch rows `[start, end)`, decoded when the
    /// stage is bf16. Storage comes from the pooled arena either way.
    fn chunk(&self, start: usize, end: usize) -> Tensor {
        match self {
            Stage::F32(t) => slice_batch_owned(t, start, end),
            Stage::Bf16(b) => b.read_rows(start, end - start),
        }
    }
}

/// [`stage_rows`] for a boundary [`Stage`]: stages `src`'s rows at batch
/// row `row_start`, (re)creating the buffer as `[batch, src.shape[1..]]`
/// in `prec`'s representation when its shape or precision is stale.
fn stage_write(dst: &mut Stage, src: &Tensor, row_start: usize, batch: usize, prec: Precision) {
    match prec {
        Precision::F32 => {
            if !matches!(dst, Stage::F32(_)) {
                *dst = Stage::F32(empty());
            }
            let Stage::F32(t) = dst else { unreachable!() };
            stage_rows(t, src, row_start, batch);
        }
        Precision::Bf16 => {
            let mut target = src.shape().to_vec();
            target[0] = batch;
            match dst {
                Stage::Bf16(b) if b.shape() == &target[..] => {}
                _ => *dst = Stage::Bf16(Bf16Tensor::uninit(&target)),
            }
            let Stage::Bf16(b) = dst else { unreachable!() };
            b.write_rows(src, row_start);
        }
    }
}

/// Copies `src` (a chunk of `rows` batch rows) into `dst` at batch-row
/// offset `row_start`, sizing `dst` as `[batch, src.shape[1..]]` first if
/// its shape is stale.
fn stage_rows(dst: &mut Tensor, src: &Tensor, row_start: usize, batch: usize) {
    let mut target = src.shape().to_vec();
    target[0] = batch;
    if dst.shape() != &target[..] {
        *dst = Tensor::uninit(&target);
    }
    let rows = src.shape()[0];
    let row = src.len() / rows.max(1);
    dst.data_mut()[row_start * row..(row_start + rows) * row].copy_from_slice(src.data());
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::generate;
    use crate::executor::train_step_full;
    use crate::lower::lower;
    use mbs_cnn::networks::toy;
    use mbs_cnn::FeatureShape;
    use mbs_core::ExecConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn multi_group_schedule(nodes: usize, batch: usize) -> Schedule {
        // Two groups with distinct sub-batch sizes — the shape the paper's
        // Fig. 5 schedules take (small early sub-batches, larger deep ones).
        let cut = nodes / 2;
        Schedule::new(
            ExecConfig::Mbs1,
            batch,
            vec![
                Group::new(0, cut, 2, batch),
                Group::new(cut, nodes, batch, batch),
            ],
            true,
        )
    }

    /// Tolerance for comparisons whose two sides only diverge through
    /// bf16 boundary/stash storage: zero-extra at f32, a 2⁻⁸-per-element
    /// rounding budget at bf16 (observed diffs sit well under this).
    fn mode_tol(f32_tol: f32) -> f32 {
        match prec::precision() {
            Precision::F32 => f32_tol,
            Precision::Bf16 => f32_tol.max(2e-2),
        }
    }

    #[test]
    fn grouped_forward_matches_full_forward() {
        let net = toy::conv_chain(&[4, 8], FeatureShape::new(3, 8, 8), 8);
        let mut a = lower(&net, &mut StdRng::seed_from_u64(5)).unwrap();
        let mut b = lower(&net, &mut StdRng::seed_from_u64(5)).unwrap();
        let d = generate(8, 8, 0.3, 41);
        let full = a.forward(&d.images, false);
        let sched = multi_group_schedule(net.nodes().len(), 8);
        let mut exec = GroupedExecutor::new(&sched, b.len());
        let grouped = exec.forward(&mut b, &d.images, false);
        assert!(
            full.max_abs_diff(grouped) < mode_tol(1e-5),
            "grouped forward diverged: {}",
            full.max_abs_diff(grouped)
        );
    }

    #[test]
    #[should_panic(expected = "schedule covers")]
    fn schedule_model_mismatch_is_rejected() {
        let net = toy::conv_chain(&[4], FeatureShape::new(3, 8, 8), 4);
        let model = lower(&net, &mut StdRng::seed_from_u64(1)).unwrap();
        let sched = multi_group_schedule(net.nodes().len() + 1, 4);
        let _ = GroupedExecutor::new(&sched, model.len());
    }

    #[test]
    fn uneven_final_chunks_are_handled() {
        // batch 7 with sub-batches 2 and 7: the re-slicing must cope with
        // remainder chunks on both sides of the boundary, stashed or not.
        for stashing in [true, false] {
            let net = toy::runtime_mix(8, 7);
            let mut full = lower(&net, &mut StdRng::seed_from_u64(9)).unwrap();
            let mut grouped = lower(&net, &mut StdRng::seed_from_u64(9)).unwrap();
            let d = generate(7, 8, 0.3, 43);
            let mut oa = Sgd::new(0.05, 0.9, 0.0);
            let mut ob = Sgd::new(0.05, 0.9, 0.0);
            let sched = multi_group_schedule(net.nodes().len(), 7);
            let mut exec = GroupedExecutor::new(&sched, grouped.len());
            exec.set_stashing(stashing);
            let lf = train_step_full(&mut full, &d.images, &d.labels, &mut oa);
            let lg = exec.train_step(&mut grouped, &d.images, &d.labels, &mut ob);
            assert!(
                (lf - lg).abs() < mode_tol(1e-4),
                "losses {lf} vs {lg} (stash {stashing})"
            );
        }
    }

    /// A stash-mode forward whose backward never ran must not leak its
    /// stashes into a later replay-mode step: `set_stashing(false)` drops
    /// held stashes and replay backward never consults the slots, so the
    /// step matches a pure replay executor exactly.
    #[test]
    fn switching_to_replay_ignores_stale_stashes() {
        let net = toy::runtime_mix(8, 8);
        let mut a = lower(&net, &mut StdRng::seed_from_u64(6)).unwrap();
        let mut b = lower(&net, &mut StdRng::seed_from_u64(6)).unwrap();
        let d_old = generate(8, 8, 0.3, 45);
        let d_new = generate(8, 8, 0.3, 46);
        let sched = multi_group_schedule(net.nodes().len(), 8);
        let mut ea = GroupedExecutor::new(&sched, a.len());
        ea.set_stashing(true);
        // Forward-only: every non-last chunk's stash stays populated.
        let _ = ea.forward(&mut a, &d_old.images, true);
        ea.set_stashing(false);
        let mut eb = GroupedExecutor::new(&sched, b.len());
        eb.set_stashing(false);
        let mut oa = Sgd::new(0.05, 0.9, 1e-4);
        let mut ob = Sgd::new(0.05, 0.9, 1e-4);
        let la = ea.train_step(&mut a, &d_new.images, &d_new.labels, &mut oa);
        let lb = eb.train_step(&mut b, &d_new.images, &d_new.labels, &mut ob);
        assert_eq!(la, lb, "stale stashes leaked into the replay step");
        let mut pa = Vec::new();
        a.visit_params(&mut |p| pa.push(p.value.clone()));
        let mut i = 0;
        b.visit_params(&mut |p| {
            assert_eq!(pa[i], p.value, "param {i}");
            i += 1;
        });
    }

    /// The stashing claim in miniature: at f32 storage precision, stash
    /// and replay backward produce **bitwise identical** parameter
    /// trajectories — replay recomputes exactly the values stashing
    /// saved. Storage precision is pinned to f32 so the pin also holds
    /// under an `MBS_PREC=bf16` process (the GEMM packing precision is
    /// common to both paths and cancels).
    #[test]
    fn stash_and_replay_are_bitwise_identical() {
        let net = toy::runtime_mix(8, 8);
        let mut m_stash = lower(&net, &mut StdRng::seed_from_u64(3)).unwrap();
        let mut m_replay = lower(&net, &mut StdRng::seed_from_u64(3)).unwrap();
        let d = generate(8, 8, 0.3, 44);
        let sched = multi_group_schedule(net.nodes().len(), 8);
        let mut ea = GroupedExecutor::new(&sched, m_stash.len());
        ea.set_stashing(true);
        ea.set_precision(Precision::F32);
        let mut eb = GroupedExecutor::new(&sched, m_replay.len());
        eb.set_stashing(false);
        eb.set_precision(Precision::F32);
        let mut oa = Sgd::new(0.05, 0.9, 1e-4);
        let mut ob = Sgd::new(0.05, 0.9, 1e-4);
        for step in 0..3 {
            let la = ea.train_step(&mut m_stash, &d.images, &d.labels, &mut oa);
            let lb = eb.train_step(&mut m_replay, &d.images, &d.labels, &mut ob);
            assert_eq!(la, lb, "step {step} losses");
        }
        let mut pa = Vec::new();
        m_stash.visit_params(&mut |p| pa.push(p.value.clone()));
        let mut i = 0;
        m_replay.visit_params(&mut |p| {
            assert_eq!(pa[i], p.value, "param {i} diverged");
            i += 1;
        });
    }

    /// The bf16 footprint pin: with bf16 storage, the interior boundary
    /// buffers and the stashed cache tensors occupy **exactly half** the
    /// bytes their f32 counterparts do — and the stash bytes a training
    /// forward leaves resident equal the scheduler's model
    /// ([`Schedule::stash_bytes_at`]) byte for byte at both precisions, on
    /// the hand-built two-group plan and on scheduler-chosen MBS1 plans.
    #[test]
    fn bf16_storage_halves_boundary_and_stash_bytes() {
        use mbs_core::{HardwareConfig, MbsScheduler};

        let hand = toy::runtime_mix(8, 8);
        let hand_sched = multi_group_schedule(hand.nodes().len(), 8);
        // (network, plan, input extent); the scheduler plans at each
        // network's default batch.
        let mut cases = vec![(hand, hand_sched, 8)];
        for (net, buffer, size) in [
            (toy::runtime_mix(16, 16), 16 * 1024, 16),
            (toy::tiny_resnet(1, 8), 128 * 1024, 32),
            (toy::runtime_mix(8, 8), 3 * 1024, 8),
            (toy::tiny_inception(16, 8), 32 * 1024, 16),
        ] {
            let hw = HardwareConfig::cpu().with_global_buffer(buffer);
            let sched = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1).schedule();
            cases.push((net, sched, size));
        }

        for (net, sched, size) in cases {
            let name = net.name();
            let mut m = lower(&net, &mut StdRng::seed_from_u64(7)).unwrap();
            let d = generate(sched.batch(), size, 0.3, 47);
            let mut exec = GroupedExecutor::new(&sched, m.len());
            exec.set_stashing(true);

            let [(b32, s32), (b16, s16)] = [Precision::F32, Precision::Bf16].map(|p| {
                exec.set_precision(p);
                let _ = exec.forward(&mut m, &d.images, true);
                let stash = exec.stash_tensor_bytes();
                assert_eq!(
                    stash,
                    sched.stash_bytes_at(&net, p),
                    "{name} {p:?}: resident stash bytes vs the model"
                );
                (exec.boundary_bytes(), stash)
            });
            if sched.groups().len() > 1 {
                assert!(b32 > 0, "{name}: interior boundary must be staged");
            }
            assert!(s32 > 0, "{name}: multi-chunk group must stash");
            assert_eq!(b16 * 2, b32, "{name}: boundary bytes must halve");
            assert_eq!(s16 * 2, s32, "{name}: stash tensor bytes must halve");
        }
    }

    /// bf16 grouped training tracks the full-batch step within the
    /// documented rounding budget: each boundary/stash element pays one
    /// round-to-nearest-even (relative error ≤ 2⁻⁸ ≈ 0.4%), so a few
    /// SGD steps stay within 2e-2 of the f32 trajectory (observed diffs
    /// are an order of magnitude smaller; the budget leaves headroom).
    #[test]
    fn bf16_grouped_training_matches_full_within_tolerance() {
        for stashing in [true, false] {
            let net = toy::runtime_mix(8, 8);
            let mut full = lower(&net, &mut StdRng::seed_from_u64(11)).unwrap();
            let mut grouped = lower(&net, &mut StdRng::seed_from_u64(11)).unwrap();
            let d = generate(8, 8, 0.3, 48);
            let sched = multi_group_schedule(net.nodes().len(), 8);
            let mut exec = GroupedExecutor::new(&sched, grouped.len());
            exec.set_stashing(stashing);
            exec.set_precision(Precision::Bf16);
            let mut oa = Sgd::new(0.05, 0.9, 1e-4);
            let mut ob = Sgd::new(0.05, 0.9, 1e-4);
            for step in 0..3 {
                let lf = train_step_full(&mut full, &d.images, &d.labels, &mut oa);
                let lg = exec.train_step(&mut grouped, &d.images, &d.labels, &mut ob);
                assert!(
                    (lf - lg).abs() < 2e-2,
                    "step {step} losses {lf} vs {lg} (stash {stashing})"
                );
            }
            let mut pa = Vec::new();
            full.visit_params(&mut |p| pa.push(p.value.clone()));
            let mut i = 0;
            let mut worst = 0.0f32;
            grouped.visit_params(&mut |p| {
                worst = worst.max(pa[i].max_abs_diff(&p.value));
                i += 1;
            });
            assert!(worst < 2e-2, "param diff {worst} (stash {stashing})");
        }
    }

    /// At bf16 storage, stash and replay backward quantize at different
    /// points (stash re-encodes the caches the forward computed; replay
    /// recomputes caches from the already-quantized boundary), so they
    /// are tolerance-equal, not bitwise-equal — the counterpart of
    /// `stash_and_replay_are_bitwise_identical`.
    #[test]
    fn bf16_stash_and_replay_agree_within_tolerance() {
        let net = toy::runtime_mix(8, 8);
        let mut m_stash = lower(&net, &mut StdRng::seed_from_u64(13)).unwrap();
        let mut m_replay = lower(&net, &mut StdRng::seed_from_u64(13)).unwrap();
        let d = generate(8, 8, 0.3, 49);
        let sched = multi_group_schedule(net.nodes().len(), 8);
        let mut ea = GroupedExecutor::new(&sched, m_stash.len());
        ea.set_stashing(true);
        ea.set_precision(Precision::Bf16);
        let mut eb = GroupedExecutor::new(&sched, m_replay.len());
        eb.set_stashing(false);
        eb.set_precision(Precision::Bf16);
        let mut oa = Sgd::new(0.05, 0.9, 1e-4);
        let mut ob = Sgd::new(0.05, 0.9, 1e-4);
        for step in 0..3 {
            let la = ea.train_step(&mut m_stash, &d.images, &d.labels, &mut oa);
            let lb = eb.train_step(&mut m_replay, &d.images, &d.labels, &mut ob);
            assert!((la - lb).abs() < 2e-2, "step {step} losses {la} vs {lb}");
        }
        let mut pa = Vec::new();
        m_stash.visit_params(&mut |p| pa.push(p.value.clone()));
        let mut i = 0;
        let mut worst = 0.0f32;
        m_replay.visit_params(&mut |p| {
            worst = worst.max(pa[i].max_abs_diff(&p.value));
            i += 1;
        });
        assert!(worst < 2e-2, "param diff {worst}");
    }
}
