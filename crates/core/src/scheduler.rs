//! The MBS scheduler: sub-batch sizing and layer grouping (paper §3).
//!
//! Grouping proceeds exactly as the paper describes: initial groups join
//! adjacent nodes that need the same number of sub-batch iterations
//! (Fig. 4's red line), then adjacent groups are greedily merged — reducing
//! one group's sub-batch to its neighbour's — whenever the modeled DRAM
//! traffic improves. [`MbsScheduler::optimal_schedule`] implements the
//! exact contiguous-partition optimum via dynamic programming (the paper's
//! footnote 1 used exhaustive search and found it ≈ 1 % better than
//! greedy).

use mbs_cnn::Network;

use crate::config::{ExecConfig, HardwareConfig};
use crate::footprint::{max_sub_batch, node_space};
use crate::schedule::{Group, Schedule};
use crate::traffic::analyze;

/// Builds [`Schedule`]s for a network on given hardware under a given
/// execution configuration.
///
/// # Examples
///
/// ```
/// use mbs_core::{ExecConfig, HardwareConfig, MbsScheduler};
/// use mbs_cnn::networks::resnet;
///
/// let net = resnet(50);
/// let hw = HardwareConfig::default();
/// let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs2).schedule();
/// assert!(schedule.groups().len() >= 2); // multiple groups for ResNet50
/// ```
#[derive(Debug, Clone)]
pub struct MbsScheduler<'a> {
    net: &'a Network,
    hw: &'a HardwareConfig,
    config: ExecConfig,
    batch: usize,
}

impl<'a> MbsScheduler<'a> {
    /// Creates a scheduler using the network's default per-core mini-batch.
    pub fn new(net: &'a Network, hw: &'a HardwareConfig, config: ExecConfig) -> Self {
        Self {
            net,
            hw,
            config,
            batch: net.default_batch(),
        }
    }

    /// Overrides the per-core mini-batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch must be positive");
        self.batch = batch;
        self
    }

    /// Produces the schedule for the configured execution mode.
    pub fn schedule(&self) -> Schedule {
        match self.config {
            ExecConfig::Baseline | ExecConfig::ArchOpt | ExecConfig::InterLayer => {
                self.unserialized()
            }
            ExecConfig::MbsFs => self.full_serial(),
            ExecConfig::Mbs1 | ExecConfig::Mbs2 => self.greedy(),
        }
    }

    /// The exact optimum over contiguous layer groupings, by dynamic
    /// programming on the (additive) per-group traffic cost. Only
    /// meaningful for the MBS configurations; other configs return their
    /// regular schedule.
    pub fn optimal_schedule(&self) -> Schedule {
        if !self.config.is_mbs() || self.net.nodes().is_empty() {
            return self.schedule();
        }
        let subs = self.node_subs().0;
        let len = self.net.nodes().len();

        // cost[i][j] = DRAM bytes attributed to nodes i..j when they form
        // one group (boundary locality depends only on the boundary, so the
        // total over a partition is the sum of its group costs).
        let mut best: Vec<u64> = vec![u64::MAX; len + 1];
        let mut cut: Vec<usize> = vec![0; len + 1];
        best[0] = 0;
        for j in 1..=len {
            for i in 0..j {
                let cost = self.range_cost(i, j, &subs);
                let total = best[i].saturating_add(cost);
                if total < best[j] {
                    best[j] = total;
                    cut[j] = i;
                }
            }
        }
        let mut bounds = vec![len];
        let mut j = len;
        while j > 0 {
            j = cut[j];
            bounds.push(j);
        }
        bounds.reverse();
        let groups: Vec<Group> = bounds
            .windows(2)
            .map(|w| {
                let sub = subs[w[0]..w[1]].iter().copied().min().unwrap_or(self.batch);
                Group::new(w[0], w[1], sub, self.batch)
            })
            .collect();
        let fits = self.node_subs().1;
        Schedule::new(self.config, self.batch, groups, fits)
    }

    /// Max sub-batch per node (clamped to the mini-batch) and whether every
    /// node fits at least one sample.
    fn node_subs(&self) -> (Vec<usize>, bool) {
        let branch_reuse = self.config.branch_reuse();
        let mut all_fit = true;
        let subs = self
            .net
            .nodes()
            .iter()
            .map(|n| {
                let space = node_space(n, branch_reuse);
                let (s, fits) = max_sub_batch(space, self.hw.global_buffer_bytes);
                all_fit &= fits;
                s.min(self.batch)
            })
            .collect();
        (subs, all_fit)
    }

    fn unserialized(&self) -> Schedule {
        let groups = (0..self.net.nodes().len())
            .map(|i| Group::new(i, i + 1, self.batch, self.batch))
            .collect();
        Schedule::new(self.config, self.batch, groups, true)
    }

    fn full_serial(&self) -> Schedule {
        let (subs, fits) = self.node_subs();
        let sub = subs.iter().copied().min().unwrap_or(self.batch);
        Schedule::uniform(self.net, self.batch, sub).with_fits(fits)
    }

    /// Initial groups (equal iteration counts) followed by greedy merging.
    fn greedy(&self) -> Schedule {
        let (subs, fits) = self.node_subs();
        let mut groups = self.initial_groups(&subs);
        if groups.is_empty() {
            return Schedule::new(self.config, self.batch, groups, fits);
        }
        let mut current = self.eval(&groups);
        loop {
            let mut best: Option<(usize, u64)> = None;
            for i in 0..groups.len().saturating_sub(1) {
                let cand = Self::merge_at(&groups, i, self.batch);
                let t = self.eval(&cand);
                if t < current && best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((i, t));
                }
            }
            match best {
                Some((i, t)) => {
                    groups = Self::merge_at(&groups, i, self.batch);
                    current = t;
                }
                None => break,
            }
        }
        Schedule::new(self.config, self.batch, groups, fits)
    }

    fn initial_groups(&self, subs: &[usize]) -> Vec<Group> {
        let mut groups: Vec<Group> = Vec::new();
        for (i, &sub) in subs.iter().enumerate() {
            let it = self.batch.div_ceil(sub);
            match groups.last_mut() {
                Some(g) if g.iterations == it => {
                    g.end = i + 1;
                    g.sub_batch = g.sub_batch.min(sub);
                }
                _ => groups.push(Group::new(i, i + 1, sub, self.batch)),
            }
        }
        groups
    }

    fn merge_at(groups: &[Group], i: usize, batch: usize) -> Vec<Group> {
        let mut out = Vec::with_capacity(groups.len() - 1);
        out.extend_from_slice(&groups[..i]);
        let sub = groups[i].sub_batch.min(groups[i + 1].sub_batch);
        out.push(Group::new(groups[i].start, groups[i + 1].end, sub, batch));
        out.extend_from_slice(&groups[i + 2..]);
        out
    }

    /// Total modeled DRAM traffic for a candidate grouping.
    fn eval(&self, groups: &[Group]) -> u64 {
        let schedule = Schedule::new(self.config, self.batch, groups.to_vec(), true);
        analyze(self.net, &schedule, self.hw.global_buffer_bytes).dram_bytes()
    }

    #[allow(clippy::needless_range_loop)]
    /// DRAM bytes attributed to nodes `i..j` when grouped together (other
    /// nodes are scheduled as singletons; their records are discarded).
    fn range_cost(&self, i: usize, j: usize, subs: &[usize]) -> u64 {
        let len = self.net.nodes().len();
        let mut groups = Vec::new();
        for k in 0..i {
            groups.push(Group::new(k, k + 1, subs[k], self.batch));
        }
        let sub = subs[i..j].iter().copied().min().unwrap_or(self.batch);
        groups.push(Group::new(i, j, sub, self.batch));
        for k in j..len {
            groups.push(Group::new(k, k + 1, subs[k], self.batch));
        }
        let schedule = Schedule::new(self.config, self.batch, groups, true);
        let report = analyze(self.net, &schedule, self.hw.global_buffer_bytes);
        report
            .layers
            .iter()
            .filter(|l| l.node >= i && l.node < j)
            .map(|l| l.dram_total())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mbs_cnn::networks::{resnet, toy};

    fn hw() -> HardwareConfig {
        HardwareConfig::default()
    }

    #[test]
    fn unserialized_schedules_have_one_iteration() {
        let net = resnet(50);
        let hw = hw();
        for cfg in [
            ExecConfig::Baseline,
            ExecConfig::ArchOpt,
            ExecConfig::InterLayer,
        ] {
            let s = MbsScheduler::new(&net, &hw, cfg).schedule();
            assert_eq!(s.groups().len(), net.nodes().len());
            assert!(s.groups().iter().all(|g| g.iterations == 1));
        }
    }

    #[test]
    fn full_serial_is_single_group() {
        let net = resnet(50);
        let hw = hw();
        let s = MbsScheduler::new(&net, &hw, ExecConfig::MbsFs).schedule();
        assert_eq!(s.groups().len(), 1);
        assert!(
            s.groups()[0].iterations > 1,
            "early layers force serialization"
        );
    }

    #[test]
    fn greedy_groups_cover_network_and_respect_buffer() {
        let net = resnet(50);
        let hw = hw();
        for cfg in [ExecConfig::Mbs1, ExecConfig::Mbs2] {
            let sched = MbsScheduler::new(&net, &hw, cfg).schedule();
            let covered: usize = sched.groups().iter().map(Group::len).sum();
            assert_eq!(covered, net.nodes().len());
            assert!(sched.fits());
            for g in sched.groups() {
                for node in &net.nodes()[g.start..g.end] {
                    let space = node_space(node, cfg.branch_reuse());
                    assert!(
                        space * g.sub_batch <= hw.global_buffer_bytes,
                        "group footprint exceeds buffer at {}",
                        node.name()
                    );
                }
            }
        }
    }

    #[test]
    fn resnet50_mbs1_sub_batches_grow_with_depth() {
        let net = resnet(50);
        let hw = hw();
        let sched = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1).schedule();
        let subs: Vec<usize> = sched.groups().iter().map(|g| g.sub_batch).collect();
        assert!(subs.len() >= 3, "expected several groups, got {subs:?}");
        assert!(
            subs.last().unwrap() > subs.first().unwrap(),
            "deeper groups should carry more samples: {subs:?}"
        );
    }

    #[test]
    fn greedy_never_worse_than_initial_grouping() {
        let net = resnet(50);
        let hw = hw();
        let s = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1);
        let (subs, _) = s.node_subs();
        let initial = s.initial_groups(&subs);
        let greedy = s.schedule();
        assert!(s.eval(greedy.groups()) <= s.eval(&initial));
    }

    #[test]
    fn optimal_never_worse_than_greedy() {
        let net = toy::tiny_resnet(2, 8);
        let hw = hw();
        for cfg in [ExecConfig::Mbs1, ExecConfig::Mbs2] {
            let s = MbsScheduler::new(&net, &hw, cfg);
            let greedy = s.eval(s.schedule().groups());
            let optimal = s.eval(s.optimal_schedule().groups());
            assert!(
                optimal <= greedy,
                "{cfg}: optimal {optimal} greedy {greedy}"
            );
        }
    }

    #[test]
    fn tiny_buffer_does_not_fit() {
        let net = resnet(50);
        let hw = HardwareConfig::default().with_global_buffer(64 * 1024);
        let s = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1).schedule();
        assert!(!s.fits());
    }

    #[test]
    fn batch_override() {
        let net = toy::fig1_toy();
        let hw = hw();
        let s = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1)
            .with_batch(4)
            .schedule();
        assert_eq!(s.batch(), 4);
    }

    #[test]
    #[should_panic(expected = "batch must be positive")]
    fn zero_batch_rejected() {
        let net = toy::fig1_toy();
        let hw = hw();
        let _ = MbsScheduler::new(&net, &hw, ExecConfig::Mbs1).with_batch(0);
    }
}
