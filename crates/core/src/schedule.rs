//! Schedules: layer groups with sub-batch sizes (the output of the MBS
//! scheduler, paper Fig. 4/5).

use mbs_cnn::Network;

use crate::config::ExecConfig;
use crate::hash::{fnv1a64_step, FNV_OFFSET};

/// A contiguous range of network nodes processed with one sub-batch size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// First node index (inclusive).
    pub start: usize,
    /// Last node index (exclusive).
    pub end: usize,
    /// Samples propagated together through the group.
    pub sub_batch: usize,
    /// Sub-batch iterations: `ceil(batch / sub_batch)`.
    pub iterations: usize,
}

impl Group {
    /// Builds a group, deriving the iteration count.
    pub fn new(start: usize, end: usize, sub_batch: usize, batch: usize) -> Self {
        let sub = sub_batch.clamp(1, batch.max(1));
        Self {
            start,
            end,
            sub_batch: sub,
            iterations: batch.div_ceil(sub),
        }
    }

    /// Number of nodes in the group.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the group is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// The sub-batch size sequence over one mini-batch, e.g.
    /// `[3,3,3,3,3,3,3,3,3,3,2]` for sub-batch 3 over a 32-sample batch
    /// (paper Fig. 5).
    pub fn sub_batch_sizes(&self, batch: usize) -> Vec<usize> {
        let mut sizes = vec![self.sub_batch; batch / self.sub_batch];
        let rem = batch % self.sub_batch;
        if rem > 0 {
            sizes.push(rem);
        }
        sizes
    }

    /// Samples whose backward caches a **cache-stashing** executor holds
    /// stashed for this group at the end of the group's forward over a
    /// `batch`-sample mini-batch: every chunk except the last one
    /// forwarded (whose caches stay live in the layers). Zero when the
    /// group runs `batch` in a single chunk — like
    /// [`Group::sub_batch_sizes`], the chunking follows the `batch`
    /// argument, which may differ from the planning batch.
    pub fn stashed_samples(&self, batch: usize) -> usize {
        let sizes = self.sub_batch_sizes(batch);
        match sizes.last() {
            Some(&last) if sizes.len() > 1 => batch - last,
            _ => 0,
        }
    }
}

/// A complete schedule for one network under one execution configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    config: ExecConfig,
    batch: usize,
    groups: Vec<Group>,
    fits: bool,
}

impl Schedule {
    /// Builds a schedule from groups.
    ///
    /// # Panics
    ///
    /// Panics if groups are not contiguous and ordered — schedules are only
    /// produced by the scheduler, so this indicates an internal bug.
    pub fn new(config: ExecConfig, batch: usize, groups: Vec<Group>, fits: bool) -> Self {
        let mut expected = 0;
        for g in &groups {
            assert_eq!(g.start, expected, "groups must be contiguous");
            assert!(g.end > g.start, "groups must be non-empty");
            expected = g.end;
        }
        Self {
            config,
            batch,
            groups,
            fits,
        }
    }

    /// The uniform schedule of paper Tab. 3's MBS-FS: one
    /// [`ExecConfig::MbsFs`] group over every node of `net`, propagating
    /// `sub` samples at a time (clamped to `1..=batch`, as
    /// [`Group::new`] does). `sub = batch` is the conventional full-batch
    /// step. Nothing about the hardware is known here, so the schedule
    /// reports that it [`fits`](Schedule::fits).
    ///
    /// # Examples
    ///
    /// ```
    /// use mbs_core::Schedule;
    ///
    /// let net = mbs_cnn::networks::toy::runtime_mix(8, 8);
    /// let s = Schedule::uniform(&net, 8, 3);
    /// assert_eq!(s.groups().len(), 1);
    /// assert_eq!(s.node_count(), net.nodes().len());
    /// assert_eq!(s.groups()[0].iterations, 3);
    /// ```
    pub fn uniform(net: &Network, batch: usize, sub: usize) -> Self {
        let len = net.nodes().len();
        let groups = (len > 0)
            .then(|| Group::new(0, len, sub, batch))
            .into_iter()
            .collect();
        Self::new(ExecConfig::MbsFs, batch, groups, true)
    }

    /// This schedule with its [`fits`](Schedule::fits) flag replaced.
    pub(crate) fn with_fits(mut self, fits: bool) -> Self {
        self.fits = fits;
        self
    }

    /// The execution configuration this schedule was built for.
    pub fn config(&self) -> ExecConfig {
        self.config
    }

    /// Per-core mini-batch size.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The layer groups in execution order.
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Whether every group's per-sample footprint fits the buffer (always
    /// true for the paper's networks at ≥ 5 MiB; false signals that the
    /// traffic model's on-chip assumptions are optimistic).
    pub fn fits(&self) -> bool {
        self.fits
    }

    /// Number of scheduling units (network nodes) the schedule covers —
    /// the node count a lowered runtime model must match.
    pub fn node_count(&self) -> usize {
        self.groups.last().map_or(0, |g| g.end)
    }

    /// Per-group sub-batch sizes in execution order (the annotation of the
    /// paper's Fig. 5).
    pub fn sub_batches(&self) -> Vec<usize> {
        self.groups.iter().map(|g| g.sub_batch).collect()
    }

    /// Smallest sub-batch across groups: the single size a uniform (MBS-FS
    /// style) serialization of the same network would have to use to stay
    /// within the same buffer — the natural baseline when benchmarking
    /// grouped against uniform execution.
    pub fn min_sub_batch(&self) -> usize {
        self.groups
            .iter()
            .map(|g| g.sub_batch)
            .min()
            .unwrap_or(self.batch)
    }

    /// Bytes of backward caches a **cache-stashing** grouped executor
    /// keeps stashed across this schedule's forward pass — the working-set
    /// cost of skipping the backward replay. Per group: the per-sample
    /// cached-input bytes of its nodes
    /// ([`crate::footprint::node_stash_bytes`]) times the samples stashed
    /// ([`Group::stashed_samples`]). Single-iteration groups contribute
    /// nothing, so uniform full-batch schedules stash nothing.
    ///
    /// These bytes live in DRAM, not the on-chip buffer (stashes are only
    /// read back chunk-by-chunk during backward), so they do **not**
    /// constrain sub-batch sizing — but they are exactly the memory the
    /// executor's replay strategy (`set_stashing(false)`) trades back for
    /// recompute, so the
    /// schedule reports them next to its DRAM-traffic model.
    ///
    /// Reported at the **active runtime precision** (`MBS_PREC`,
    /// [`mbs_tensor::ops::Exec::process`]): stashes are stored as f32 or
    /// bf16 words, so bf16 mode reports half the f32 bytes. Use
    /// [`Schedule::stash_bytes_at`] for an explicit precision.
    ///
    /// # Panics
    ///
    /// Panics if the schedule covers more nodes than `net` has.
    pub fn stash_bytes(&self, net: &Network) -> usize {
        self.stash_bytes_at(net, mbs_tensor::ops::Exec::process().precision)
    }

    /// [`Schedule::stash_bytes`] at an explicit runtime precision.
    ///
    /// The footprint model ([`crate::footprint::node_stash_bytes`])
    /// counts [`crate::WORD_BYTES`]-byte (16-bit) words; a runtime
    /// storing its stashes at `prec` pays `prec.word_bytes()` bytes per
    /// word, so the model's byte count is rescaled by
    /// `prec.word_bytes() / WORD_BYTES`.
    pub fn stash_bytes_at(&self, net: &Network, prec: mbs_tensor::prec::Precision) -> usize {
        let nodes = net.nodes();
        let model_bytes: usize = self
            .groups
            .iter()
            .map(|g| {
                let per_sample: usize = nodes[g.start..g.end]
                    .iter()
                    .map(crate::footprint::node_stash_bytes)
                    .sum();
                per_sample * g.stashed_samples(self.batch)
            })
            .sum();
        model_bytes * prec.word_bytes() / crate::WORD_BYTES
    }

    /// A stable 64-bit fingerprint of this schedule applied to `net`:
    /// FNV-1a over the network identity (name, node count, per-node names,
    /// total parameter elements) and the execution plan (config label,
    /// batch, and every group's `start`/`end`/`sub_batch`/`iterations`).
    ///
    /// Durable state (checkpoints, tuning caches) records this value so a
    /// load against a *different* network or plan is refused instead of
    /// silently mapping weights onto the wrong layers. Renaming a node,
    /// resizing a layer, or re-planning the groups all change the
    /// fingerprint; it is independent of weights, RNG state, and progress
    /// counters.
    pub fn fingerprint(&self, net: &Network) -> u64 {
        let mut h = FNV_OFFSET;
        let mut eat = |bytes: &[u8]| {
            h = fnv1a64_step(h, bytes);
            h = fnv1a64_step(h, &[0xff]); // field separator
        };
        eat(net.name().as_bytes());
        eat(&(net.nodes().len() as u64).to_le_bytes());
        for node in net.nodes() {
            eat(node.name().as_bytes());
        }
        eat(&(net.param_elems() as u64).to_le_bytes());
        eat(self.config.label().as_bytes());
        eat(&(self.batch as u64).to_le_bytes());
        for g in &self.groups {
            for v in [g.start, g.end, g.sub_batch, g.iterations] {
                eat(&(v as u64).to_le_bytes());
            }
        }
        h
    }

    /// The group containing node `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is beyond the scheduled range.
    pub fn group_of(&self, i: usize) -> &Group {
        self.groups
            .iter()
            .find(|g| g.start <= i && i < g.end)
            .unwrap_or_else(|| panic!("node {i} not covered by schedule"))
    }

    /// Iterations of the group containing node `i`.
    pub fn iterations_of(&self, i: usize) -> usize {
        self.group_of(i).iterations
    }

    /// Renders the schedule like the paper's Fig. 5 annotation.
    pub fn describe(&self, net: &Network) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "{} / {} / batch {}: {} group(s)",
            net.name(),
            self.config.label(),
            self.batch,
            self.groups.len()
        );
        for (i, g) in self.groups.iter().enumerate() {
            let names: Vec<&str> = net.nodes()[g.start..g.end]
                .iter()
                .map(|n| n.name())
                .collect();
            let sizes = g
                .sub_batch_sizes(self.batch)
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",");
            let _ = writeln!(
                s,
                "  Group{}: nodes {}..{} ({} -> {}), {} iterations, sizes = {}",
                i + 1,
                g.start,
                g.end,
                names.first().copied().unwrap_or("-"),
                names.last().copied().unwrap_or("-"),
                g.iterations,
                sizes
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_iteration_math() {
        let g = Group::new(0, 4, 3, 32);
        assert_eq!(g.iterations, 11);
        assert_eq!(g.sub_batch_sizes(32), vec![3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2]);
        let g = Group::new(0, 4, 16, 32);
        assert_eq!(g.iterations, 2);
        assert_eq!(g.sub_batch_sizes(32), vec![16, 16]);
    }

    #[test]
    fn group_clamps_oversized_sub_batch() {
        let g = Group::new(0, 1, 100, 32);
        assert_eq!(g.sub_batch, 32);
        assert_eq!(g.iterations, 1);
    }

    #[test]
    fn fingerprint_separates_net_and_plan_changes() {
        let net = mbs_cnn::networks::toy::runtime_mix(8, 8);
        let other_net = mbs_cnn::networks::toy::tiny_resnet(1, 8);
        let n = net.nodes().len();
        let plan =
            |sub: usize| Schedule::new(ExecConfig::Mbs1, 8, vec![Group::new(0, n, sub, 8)], true);
        let base = plan(2).fingerprint(&net);
        // Stable across calls.
        assert_eq!(base, plan(2).fingerprint(&net));
        // A different plan over the same net differs.
        assert_ne!(base, plan(4).fingerprint(&net));
        // The same plan over a different net differs.
        assert_ne!(base, plan(2).fingerprint(&other_net));
        // A different config label differs.
        let re = Schedule::new(ExecConfig::Mbs2, 8, vec![Group::new(0, n, 2, 8)], true);
        assert_ne!(base, re.fingerprint(&net));
    }

    #[test]
    fn schedule_accessors() {
        let groups = vec![Group::new(0, 2, 4, 8), Group::new(2, 5, 8, 8)];
        let s = Schedule::new(ExecConfig::Mbs1, 8, groups, true);
        assert_eq!(s.group_of(1).start, 0);
        assert_eq!(s.group_of(3).start, 2);
        assert_eq!(s.iterations_of(0), 2);
        assert_eq!(s.iterations_of(4), 1);
        assert!(s.fits());
        assert_eq!(s.node_count(), 5);
        assert_eq!(s.sub_batches(), vec![4, 8]);
        assert_eq!(s.min_sub_batch(), 4);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn schedule_rejects_gaps() {
        let groups = vec![Group::new(0, 2, 4, 8), Group::new(3, 5, 8, 8)];
        let _ = Schedule::new(ExecConfig::Mbs1, 8, groups, true);
    }

    #[test]
    fn stashed_samples_excludes_the_last_chunk() {
        // 8 samples at sub-batch 3 -> chunks [3,3,2]; the last (2) stays
        // live, 6 are stashed.
        assert_eq!(Group::new(0, 2, 3, 8).stashed_samples(8), 6);
        // Single-iteration groups never stash.
        assert_eq!(Group::new(0, 2, 8, 8).stashed_samples(8), 0);
        assert_eq!(Group::new(0, 2, 4, 8).stashed_samples(8), 4);
    }

    #[test]
    fn stash_bytes_counts_cached_inputs_of_multi_iteration_groups() {
        use mbs_cnn::networks::toy;
        use mbs_cnn::FeatureShape;

        let net = toy::conv_chain(&[4], FeatureShape::new(3, 8, 8), 8);
        let nodes = net.nodes().len(); // conv, norm, relu
                                       // Conv and norm cache their inputs; ReLU does not (1-bit mask).
        let per_sample: usize = net
            .nodes()
            .iter()
            .map(crate::footprint::node_stash_bytes)
            .sum();
        assert!(per_sample > 0);

        // One full-batch group: nothing stashed.
        let uniform = Schedule::new(ExecConfig::MbsFs, 8, vec![Group::new(0, nodes, 8, 8)], true);
        assert_eq!(uniform.stash_bytes(&net), 0);

        // Sub-batch 2 over 8 samples: 6 samples' caches stashed.
        // `per_sample` is in the model's 16-bit words; an f32 runtime
        // pays twice that, a bf16 runtime pays it exactly.
        use mbs_tensor::prec::Precision;
        let serialized = Schedule::new(ExecConfig::Mbs1, 8, vec![Group::new(0, nodes, 2, 8)], true);
        assert_eq!(
            serialized.stash_bytes_at(&net, Precision::F32),
            per_sample * 6 * 2
        );
        assert_eq!(
            serialized.stash_bytes_at(&net, Precision::Bf16),
            per_sample * 6
        );
        // The halving pin: bf16 stashes are exactly half the f32 bytes.
        assert_eq!(
            serialized.stash_bytes_at(&net, Precision::Bf16) * 2,
            serialized.stash_bytes_at(&net, Precision::F32)
        );
        // The knob-driven accessor follows the active precision.
        assert_eq!(
            serialized.stash_bytes(&net),
            serialized.stash_bytes_at(&net, mbs_tensor::ops::Exec::process().precision)
        );
    }
}
