//! The CNN-training DRAM/global-buffer traffic model.
//!
//! For a network, a [`Schedule`], and an [`ExecConfig`], this module walks
//! every layer of the forward and backward passes and accounts each tensor
//! transfer to DRAM or to the on-chip global buffer, following the dataflow
//! of the paper's Fig. 2:
//!
//! - producer→consumer feature tensors stay on chip within an MBS group (or
//!   under IL when whole-mini-batch footprints fit), otherwise they are
//!   written to and re-read from DRAM;
//! - tensors needed during back propagation (conv/FC inputs, norm inputs,
//!   max-pool inputs) are stored to DRAM during forward and reloaded during
//!   backward under *every* configuration (their reuse distance exceeds any
//!   buffer);
//! - weights are read once per pass per sub-batch iteration, and weight
//!   gradients are accumulated across sub-batch iterations through DRAM
//!   (`2·it − 1` partial-sum transfers);
//! - normalization layers stream their input twice (statistics + apply) and
//!   convolutions stream the output gradient twice (weight-gradient and
//!   data-gradient GEMMs); buffering removes the second DRAM read;
//! - ReLU gradients use 1-bit masks under MBS instead of 16-bit values
//!   (paper §3 "Back Propagation").

use mbs_cnn::{Block, Layer, LayerKind, Network, Node, PoolKind};

use crate::config::ExecConfig;
use crate::footprint::whole_batch_fits;
use crate::schedule::Schedule;

/// Bytes moved by one layer (forward + backward of one training step, one
/// core's share of the mini-batch).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTraffic {
    /// The layer (cloned from the network for self-contained reports).
    pub layer: Layer,
    /// Index of the network node that contains the layer.
    pub node: usize,
    /// Index of the schedule group that contains the layer's node.
    pub group: usize,
    /// Sub-batch size of that group.
    pub sub_batch: usize,
    /// Sub-batch iterations of that group.
    pub iterations: u64,
    /// Overlappable DRAM bytes in the forward pass.
    pub dram_fwd: u64,
    /// Overlappable DRAM bytes in the backward pass.
    pub dram_bwd: u64,
    /// Non-overlappable DRAM bytes: the *extra* weight-gradient partial-sum
    /// reads/writes beyond the single baseline store (paper §6: this time
    /// "cannot be hidden").
    pub dram_serial: u64,
    /// Global-buffer bytes in the forward pass (on-chip transfers only;
    /// DRAM staging is added at report level).
    pub gbuf_fwd: u64,
    /// Global-buffer bytes in the backward pass.
    pub gbuf_bwd: u64,
}

impl LayerTraffic {
    /// All DRAM bytes attributable to the layer.
    pub fn dram_total(&self) -> u64 {
        self.dram_fwd + self.dram_bwd + self.dram_serial
    }
}

/// Traffic aggregated by cause, for reporting (paper §6 discussion).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficBreakdown {
    /// Weight/parameter reads (forward + backward), including sub-batch
    /// re-reads.
    pub weight_read: u64,
    /// Weight-gradient writes plus partial-sum read/write traffic.
    pub weight_grad: u64,
    /// Forward feature reads from DRAM.
    pub fwd_feature_read: u64,
    /// Forward feature transfer writes to DRAM (tensors *not* needed in
    /// backward crossing a group/layer boundary).
    pub fwd_feature_write: u64,
    /// Forward stores of tensors required during back propagation
    /// (including ReLU masks).
    pub stored_write: u64,
    /// Backward reloads of stored tensors.
    pub stored_read: u64,
    /// Backward gradient reads.
    pub bwd_grad_read: u64,
    /// Backward gradient writes.
    pub bwd_grad_write: u64,
}

impl TrafficBreakdown {
    /// Sum of all DRAM traffic.
    pub fn total(&self) -> u64 {
        self.weight_read
            + self.weight_grad
            + self.fwd_feature_read
            + self.fwd_feature_write
            + self.stored_write
            + self.stored_read
            + self.bwd_grad_read
            + self.bwd_grad_write
    }
}

/// Full traffic analysis of one training step on one core.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficReport {
    /// Configuration analyzed.
    pub config: ExecConfig,
    /// Per-core mini-batch size.
    pub batch: usize,
    /// Per-layer records in execution order.
    pub layers: Vec<LayerTraffic>,
    /// DRAM traffic by cause.
    pub breakdown: TrafficBreakdown,
}

impl TrafficReport {
    /// Total DRAM bytes for one core's share of the step.
    pub fn dram_bytes(&self) -> u64 {
        self.breakdown.total()
    }

    /// Total DRAM bytes for the whole chip (`cores` cores train disjoint
    /// shards of the mini-batch, so traffic scales linearly).
    pub fn dram_bytes_chip(&self, cores: usize) -> u64 {
        self.dram_bytes() * cores as u64
    }

    /// Global-buffer bytes (on-chip transfers plus staging of all DRAM
    /// traffic through the buffer, per the paper's Fig. 9 datapath).
    pub fn gbuf_bytes(&self) -> u64 {
        let on_chip: u64 = self.layers.iter().map(|l| l.gbuf_fwd + l.gbuf_bwd).sum();
        on_chip + self.dram_bytes()
    }

    /// DRAM bytes grouped by layer-type tag (`conv`, `norm`, `pool`, `fc`,
    /// `sum`, `relu`, `concat`).
    pub fn dram_by_type(&self) -> Vec<(String, u64)> {
        let mut acc: Vec<(String, u64)> = Vec::new();
        for l in &self.layers {
            let tag = l.layer.kind.type_tag().to_owned();
            match acc.iter_mut().find(|(t, _)| *t == tag) {
                Some((_, v)) => *v += l.dram_total(),
                None => acc.push((tag, l.dram_total())),
            }
        }
        acc
    }
}

/// One input operand of a layer visit.
#[derive(Debug, Clone, Copy)]
struct Operand {
    bytes: u64,
    on_chip: bool,
}

/// Context for visiting one layer.
struct Visit<'a> {
    layer: &'a Layer,
    group: usize,
    sub_batch: usize,
    iterations: u64,
    inputs: Vec<Operand>,
    output_on_chip: bool,
    output_stored: bool,
    /// `false` for the first network layer (no dX is produced for the
    /// input samples).
    produce_dx: bool,
    /// `true` when the layer output feeds the loss (final node) — treated
    /// as stored.
    is_final: bool,
}

struct Walker<'n> {
    net: &'n Network,
    schedule: &'n Schedule,
    cfg: ExecConfig,
    batch: u64,
    buffer: usize,
    layers: Vec<LayerTraffic>,
    breakdown: TrafficBreakdown,
}

/// Analyzes the DRAM and global-buffer traffic of one training step of
/// `net` under `schedule`.
///
/// The schedule must cover all nodes of the network (schedules produced by
/// [`crate::MbsScheduler`] always do).
///
/// # Panics
///
/// Panics if the schedule does not cover every node of the network.
///
/// # Examples
///
/// ```
/// use mbs_core::{analyze, ExecConfig, HardwareConfig, MbsScheduler};
/// use mbs_cnn::networks::resnet;
///
/// let net = resnet(50);
/// let hw = HardwareConfig::default();
/// let schedule = MbsScheduler::new(&net, &hw, ExecConfig::Mbs2).schedule();
/// let report = analyze(&net, &schedule, hw.global_buffer_bytes);
/// assert!(report.dram_bytes() > 0);
/// ```
pub fn analyze(net: &Network, schedule: &Schedule, buffer_bytes: usize) -> TrafficReport {
    let covered: usize = schedule.groups().iter().map(|g| g.end - g.start).sum();
    assert_eq!(
        covered,
        net.nodes().len(),
        "schedule must cover the network"
    );
    let mut w = Walker {
        net,
        schedule,
        cfg: schedule.config(),
        batch: schedule.batch() as u64,
        buffer: buffer_bytes,
        layers: Vec::new(),
        breakdown: TrafficBreakdown::default(),
    };
    w.run();
    TrafficReport {
        config: schedule.config(),
        batch: schedule.batch(),
        layers: w.layers,
        breakdown: w.breakdown,
    }
}

impl<'n> Walker<'n> {
    fn run(&mut self) {
        for idx in 0..self.net.nodes().len() {
            let group_idx = self
                .schedule
                .groups()
                .iter()
                .position(|g| g.start <= idx && idx < g.end)
                .expect("covered");
            let node = &self.net.nodes()[idx];
            let node_in_on_chip = self.node_input_on_chip(idx);
            let (out_on_chip, out_stored, is_final) = self.node_output_ctx(idx);
            let first_record = self.layers.len();
            match node {
                Node::Single(layer) => {
                    let v = Visit {
                        layer,
                        group: group_idx,
                        sub_batch: self.schedule.groups()[group_idx].sub_batch,
                        iterations: self.schedule.groups()[group_idx].iterations as u64,
                        inputs: vec![Operand {
                            bytes: layer.input_bytes() as u64 * self.batch,
                            on_chip: node_in_on_chip,
                        }],
                        output_on_chip: out_on_chip,
                        output_stored: out_stored,
                        produce_dx: idx != 0,
                        is_final,
                    };
                    self.visit(v);
                }
                Node::Block(block) => {
                    self.visit_block(
                        block,
                        idx,
                        group_idx,
                        node_in_on_chip,
                        out_on_chip,
                        out_stored,
                        is_final,
                    );
                }
            }
            for rec in &mut self.layers[first_record..] {
                rec.node = idx;
            }
        }
    }

    /// Whether two directly chained layers keep their tensor on chip.
    fn chain_on_chip(&self, producer: &Layer, consumer: &Layer) -> bool {
        if !self.cfg.inter_layer_reuse() {
            return false;
        }
        if self.cfg.is_mbs() {
            return true;
        }
        // IL: whole-mini-batch footprints of both sides must fit.
        whole_batch_fits(producer, self.batch as usize, self.buffer)
            && whole_batch_fits(consumer, self.batch as usize, self.buffer)
    }

    /// Whether a layer can buffer a tensor it streams twice (norm input,
    /// conv output-gradient) instead of re-reading DRAM.
    fn second_pass_on_chip(&self, layer: &Layer) -> bool {
        if !self.cfg.inter_layer_reuse() {
            return false;
        }
        if self.cfg.is_mbs() {
            return true;
        }
        whole_batch_fits(layer, self.batch as usize, self.buffer)
    }

    /// Locality of the tensor flowing from node `idx - 1` into node `idx`.
    fn node_input_on_chip(&self, idx: usize) -> bool {
        if idx == 0 || !self.cfg.inter_layer_reuse() {
            return false;
        }
        if self.cfg.is_mbs() {
            // On chip iff both nodes share a group.
            let g = self.schedule.group_of(idx);
            return g.start < idx;
        }
        let producer = last_layer(&self.net.nodes()[idx - 1]);
        let consumer = first_layer(&self.net.nodes()[idx]);
        self.chain_on_chip(producer, consumer)
    }

    /// (`on_chip`, `stored`, `is_final`) for the output tensor of node
    /// `idx`.
    fn node_output_ctx(&self, idx: usize) -> (bool, bool, bool) {
        if idx + 1 == self.net.nodes().len() {
            // Final output feeds the loss: always stored.
            return (false, true, true);
        }
        let on_chip = self.node_input_on_chip(idx + 1);
        let stored = consumers_need_stored(&self.net.nodes()[idx + 1]);
        (on_chip, stored, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn visit_block(
        &mut self,
        block: &Block,
        node_idx: usize,
        group_idx: usize,
        node_in_on_chip: bool,
        out_on_chip: bool,
        out_stored: bool,
        is_final: bool,
    ) {
        let g = &self.schedule.groups()[group_idx];
        let (sub, it) = (g.sub_batch, g.iterations as u64);
        let n = self.batch;
        let block_in_bytes = block.input.bytes() as u64 * n;

        let mut merge_operands: Vec<Operand> = Vec::new();
        let mut block_input_dram_reads_needed = false;

        // Branches execute shortcut/auxiliary first and the main branch
        // (index 0) last, so the main output chains directly into the merge
        // even without MBS2's inter-branch provisioning.
        let branch_count = block.branches.len();
        let order: Vec<usize> = if branch_count > 1 {
            (1..branch_count).chain(std::iter::once(0)).collect()
        } else {
            vec![0]
        };
        let first_processed = order
            .iter()
            .copied()
            .find(|&bi| !block.branches[bi].is_empty())
            .unwrap_or(0);
        let last_processed = order
            .iter()
            .rev()
            .copied()
            .find(|&bi| !block.branches[bi].is_empty())
            .unwrap_or(0);

        for &bi in &order {
            let branch = &block.branches[bi];
            if branch.is_empty() {
                // Identity shortcut: the block input itself is a merge
                // operand, held on chip only under MBS2's provisioning.
                let on_chip = self.cfg.branch_reuse() && self.cfg.inter_layer_reuse();
                if !on_chip {
                    block_input_dram_reads_needed = true;
                }
                merge_operands.push(Operand {
                    bytes: block_in_bytes,
                    on_chip,
                });
                continue;
            }
            for (li, layer) in branch.iter().enumerate() {
                let input_on_chip = if li == 0 {
                    if bi == first_processed {
                        node_in_on_chip
                    } else {
                        let oc = self.extra_branch_input_on_chip(node_idx, layer);
                        if !oc {
                            block_input_dram_reads_needed = true;
                        }
                        oc
                    }
                } else {
                    self.chain_on_chip(&branch[li - 1], layer)
                };
                let last_in_branch = li + 1 == branch.len();
                let output_on_chip = if last_in_branch {
                    if bi == last_processed {
                        // Direct producer→consumer chain into the merge.
                        self.chain_on_chip(layer, &block.merge)
                    } else {
                        // Operand must wait for the remaining branches.
                        self.merge_operand_on_chip(layer, &block.merge)
                    }
                } else {
                    self.chain_on_chip(layer, &branch[li + 1])
                };
                let consumer_kind = if last_in_branch {
                    &block.merge.kind
                } else {
                    &branch[li + 1].kind
                };
                let v = Visit {
                    layer,
                    group: group_idx,
                    sub_batch: sub,
                    iterations: it,
                    inputs: vec![Operand {
                        bytes: layer.input_bytes() as u64 * n,
                        on_chip: input_on_chip,
                    }],
                    output_on_chip,
                    output_stored: consumer_kind.needs_input_in_backward(),
                    produce_dx: node_idx != 0 || li != 0,
                    is_final: false,
                };
                if last_in_branch {
                    merge_operands.push(Operand {
                        bytes: layer.output_bytes() as u64 * n,
                        on_chip: output_on_chip,
                    });
                }
                self.visit(v);
            }
        }

        // If any branch (or the identity shortcut) must read the block
        // input from DRAM, make sure a copy exists there: the producer only
        // wrote one if the tensor was stored-for-backward or crossed a
        // group boundary.
        if block_input_dram_reads_needed {
            let stored = consumers_need_stored(&self.net.nodes()[node_idx]);
            if node_in_on_chip && !stored {
                self.breakdown.fwd_feature_write += block_in_bytes;
                if let Some(first) = self.layers.iter_mut().rev().find(|l| {
                    // attribute the availability write to this block's first
                    // visited layer for time accounting
                    l.group == group_idx
                }) {
                    first.dram_fwd += block_in_bytes;
                    first.dram_bwd += block_in_bytes; // mirrored in backward
                }
                self.breakdown.bwd_grad_read += block_in_bytes;
            }
        }

        // Merge layer (Add / Concat), then post layers.
        let mut chain_prev = &block.merge;
        let post_first = block.post.first();
        let merge_out_on_chip = match post_first {
            Some(p) => self.chain_on_chip(&block.merge, p),
            None => out_on_chip,
        };
        let merge_stored = match post_first {
            Some(p) => p.kind.needs_input_in_backward(),
            None => out_stored,
        };
        let v = Visit {
            layer: &block.merge,
            group: group_idx,
            sub_batch: sub,
            iterations: it,
            inputs: merge_operands,
            output_on_chip: merge_out_on_chip,
            output_stored: merge_stored,
            produce_dx: true,
            is_final: is_final && block.post.is_empty(),
        };
        self.visit(v);

        for (pi, layer) in block.post.iter().enumerate() {
            let last = pi + 1 == block.post.len();
            let input_on_chip = self.chain_on_chip(chain_prev, layer);
            let output_on_chip = if last {
                out_on_chip
            } else {
                self.chain_on_chip(layer, &block.post[pi + 1])
            };
            let output_stored = if last {
                out_stored
            } else {
                block.post[pi + 1].kind.needs_input_in_backward()
            };
            let v = Visit {
                layer,
                group: group_idx,
                sub_batch: sub,
                iterations: it,
                inputs: vec![Operand {
                    bytes: layer.input_bytes() as u64 * n,
                    on_chip: input_on_chip,
                }],
                output_on_chip,
                output_stored,
                produce_dx: true,
                is_final: is_final && last,
            };
            self.visit(v);
            chain_prev = layer;
        }
    }

    /// Locality of the shared block input for branches beyond the first:
    /// provisioned on chip by MBS2 (Eq. 1/2); re-read from DRAM by MBS1;
    /// IL keeps it if the fit rule holds for the producer/consumer pair.
    fn extra_branch_input_on_chip(&self, node_idx: usize, consumer: &Layer) -> bool {
        if self.cfg.branch_reuse() {
            return self.cfg.inter_layer_reuse();
        }
        if self.cfg.is_mbs() || !self.cfg.inter_layer_reuse() || node_idx == 0 {
            return false;
        }
        let producer = last_layer(&self.net.nodes()[node_idx - 1]);
        self.chain_on_chip(producer, consumer)
    }

    /// Whether a branch output operand waits on chip for the merge.
    fn merge_operand_on_chip(&self, producer: &Layer, merge: &Layer) -> bool {
        if self.cfg.branch_reuse() {
            return true;
        }
        if self.cfg.is_mbs() || !self.cfg.inter_layer_reuse() {
            return false;
        }
        self.chain_on_chip(producer, merge)
    }

    /// Accounts forward and backward traffic for one layer.
    fn visit(&mut self, v: Visit<'_>) {
        let n = self.batch;
        let layer = v.layer;
        let it = v.iterations;
        let out_b = layer.output_bytes() as u64 * n;
        let in_b_total: u64 = v.inputs.iter().map(|o| o.bytes).sum();
        let w = layer.param_bytes() as u64;
        let is_conv_like = matches!(
            layer.kind,
            LayerKind::Conv { .. } | LayerKind::FullyConnected
        );
        let is_norm = matches!(layer.kind, LayerKind::Norm { .. });
        let second_pass_buffered = self.second_pass_on_chip(layer);

        let mut rec = LayerTraffic {
            layer: layer.clone(),
            node: 0, // patched by the caller after the node finishes
            group: v.group,
            sub_batch: v.sub_batch,
            iterations: it,
            dram_fwd: 0,
            dram_bwd: 0,
            dram_serial: 0,
            gbuf_fwd: 0,
            gbuf_bwd: 0,
        };

        // ------------------------------------------------ forward pass
        // Parameters are re-read once per sub-batch iteration.
        if w > 0 {
            rec.dram_fwd += w * it;
            self.breakdown.weight_read += w * it;
        }
        for op in &v.inputs {
            let passes: u64 = if is_norm { 2 } else { 1 };
            if op.on_chip {
                rec.gbuf_fwd += op.bytes * passes;
            } else if passes == 2 && second_pass_buffered {
                rec.dram_fwd += op.bytes;
                rec.gbuf_fwd += op.bytes;
                self.breakdown.fwd_feature_read += op.bytes;
            } else {
                rec.dram_fwd += op.bytes * passes;
                self.breakdown.fwd_feature_read += op.bytes * passes;
            }
        }
        let stored = v.output_stored || v.is_final;
        if stored {
            rec.dram_fwd += out_b;
            self.breakdown.stored_write += out_b;
        }
        if v.output_on_chip {
            rec.gbuf_fwd += out_b;
        } else if !stored {
            rec.dram_fwd += out_b;
            self.breakdown.fwd_feature_write += out_b;
        }

        // ReLU backward sign source: 1-bit masks under MBS; otherwise the
        // stored 16-bit activation (stored here if no consumer stores it).
        let mut relu_mask_read: u64 = 0;
        if matches!(layer.kind, LayerKind::Relu) {
            if self.cfg.is_mbs() {
                let mask = (layer.input.elems() as u64 * n).div_ceil(8);
                rec.dram_fwd += mask;
                self.breakdown.stored_write += mask;
                relu_mask_read = mask;
            } else if stored {
                relu_mask_read = out_b; // reuse the consumer-stored tensor
            } else {
                rec.dram_fwd += out_b;
                self.breakdown.stored_write += out_b;
                relu_mask_read = out_b;
            }
        }

        // ----------------------------------------------- backward pass
        // Output gradient (dY): mirrors the forward output locality;
        // convolutions stream it twice (dW and dX GEMMs).
        let dy_passes: u64 = if is_conv_like { 2 } else { 1 };
        if v.output_on_chip {
            rec.gbuf_bwd += out_b * dy_passes;
        } else if dy_passes == 2 && second_pass_buffered {
            rec.dram_bwd += out_b;
            rec.gbuf_bwd += out_b;
            self.breakdown.bwd_grad_read += out_b;
        } else {
            rec.dram_bwd += out_b * dy_passes;
            self.breakdown.bwd_grad_read += out_b * dy_passes;
        }

        // Input gradients (dX): mirror of each forward operand.
        if v.produce_dx {
            for op in &v.inputs {
                if op.on_chip {
                    rec.gbuf_bwd += op.bytes;
                } else {
                    rec.dram_bwd += op.bytes;
                    self.breakdown.bwd_grad_write += op.bytes;
                }
            }
        }

        // Reloads of tensors stored during forward.
        let reload = match layer.kind {
            // z (the conv/FC input) streams once for the weight-gradient
            // GEMM.
            LayerKind::Conv { .. } | LayerKind::FullyConnected => in_b_total,
            // Norm re-reads its input for parameter and data gradients;
            // buffering collapses the two passes into one DRAM read.
            LayerKind::Norm { .. } => {
                if second_pass_buffered {
                    in_b_total
                } else {
                    2 * in_b_total
                }
            }
            LayerKind::Pool {
                kind: PoolKind::Max,
                ..
            } => in_b_total,
            LayerKind::Relu => relu_mask_read,
            _ => 0,
        };
        rec.dram_bwd += reload;
        self.breakdown.stored_read += reload;

        // Weights re-read for the data-gradient GEMM.
        if w > 0 && is_conv_like {
            rec.dram_bwd += w * it;
            self.breakdown.weight_read += w * it;
        }
        // Parameter gradients: one store at it == 1; partial-sum
        // accumulation through DRAM otherwise (it writes + it-1 reads).
        if w > 0 {
            let base = w;
            let partial_extra = if it > 1 { (2 * it - 2) * w } else { 0 };
            rec.dram_bwd += base;
            rec.dram_serial += partial_extra;
            self.breakdown.weight_grad += base + partial_extra;
        }

        self.layers.push(rec);
    }
}

fn first_layer(node: &Node) -> &Layer {
    match node {
        Node::Single(l) => l,
        Node::Block(b) => b
            .branches
            .iter()
            .find_map(|br| br.first())
            .unwrap_or(&b.merge),
    }
}

fn last_layer(node: &Node) -> &Layer {
    match node {
        Node::Single(l) => l,
        Node::Block(b) => b.post.last().unwrap_or(&b.merge),
    }
}

/// Whether any first consumer inside `node` needs its input tensor during
/// back propagation (which forces a forward store of that tensor).
fn consumers_need_stored(node: &Node) -> bool {
    match node {
        Node::Single(l) => l.kind.needs_input_in_backward(),
        Node::Block(b) => b
            .branches
            .iter()
            .map(|br| br.first().unwrap_or(&b.merge))
            .any(|l| l.kind.needs_input_in_backward()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HardwareConfig;
    use crate::scheduler::MbsScheduler;
    use mbs_cnn::networks::{resnet, toy};

    fn traffic(config: ExecConfig, net: &Network) -> TrafficReport {
        let hw = HardwareConfig::default();
        let s = MbsScheduler::new(net, &hw, config).schedule();
        analyze(net, &s, hw.global_buffer_bytes)
    }

    #[test]
    fn baseline_and_archopt_have_identical_traffic() {
        let net = toy::tiny_resnet(2, 8);
        let a = traffic(ExecConfig::Baseline, &net);
        let b = traffic(ExecConfig::ArchOpt, &net);
        assert_eq!(a.dram_bytes(), b.dram_bytes());
    }

    #[test]
    fn il_never_exceeds_baseline() {
        for net in [toy::tiny_resnet(2, 8), toy::fig1_toy()] {
            let base = traffic(ExecConfig::Baseline, &net);
            let il = traffic(ExecConfig::InterLayer, &net);
            assert!(il.dram_bytes() <= base.dram_bytes(), "{}", net.name());
        }
    }

    #[test]
    fn mbs_reduces_resnet50_traffic_substantially() {
        let net = resnet(50);
        let base = traffic(ExecConfig::Baseline, &net).dram_bytes() as f64;
        let mbs1 = traffic(ExecConfig::Mbs1, &net).dram_bytes() as f64;
        let mbs2 = traffic(ExecConfig::Mbs2, &net).dram_bytes() as f64;
        assert!(mbs1 / base < 0.45, "mbs1/base = {}", mbs1 / base);
        assert!(mbs2 <= mbs1 * 1.001, "mbs2 {mbs2} mbs1 {mbs1}");
    }

    #[test]
    fn traffic_scales_with_batch_for_baseline() {
        let net = toy::fig1_toy();
        let hw = HardwareConfig::default();
        let s8 = MbsScheduler::new(&net, &hw, ExecConfig::Baseline)
            .with_batch(8)
            .schedule();
        let s16 = MbsScheduler::new(&net, &hw, ExecConfig::Baseline)
            .with_batch(16)
            .schedule();
        let t8 = analyze(&net, &s8, hw.global_buffer_bytes);
        let t16 = analyze(&net, &s16, hw.global_buffer_bytes);
        // Feature traffic doubles; weight traffic is batch-independent.
        let w8 = t8.breakdown.weight_read + t8.breakdown.weight_grad;
        let w16 = t16.breakdown.weight_read + t16.breakdown.weight_grad;
        assert_eq!(w8, w16);
        assert_eq!((t8.dram_bytes() - w8) * 2, t16.dram_bytes() - w16);
    }

    #[test]
    fn per_layer_records_cover_all_layers() {
        let net = resnet(50);
        let t = traffic(ExecConfig::Mbs2, &net);
        assert_eq!(t.layers.len(), net.layers().count());
        let sum: u64 = t.layers.iter().map(LayerTraffic::dram_total).sum();
        // Availability writes are attributed to both breakdown and records.
        assert!(sum >= t.dram_bytes() - t.breakdown.fwd_feature_write);
    }

    #[test]
    fn by_type_includes_conv_and_norm() {
        let net = resnet(50);
        let t = traffic(ExecConfig::Baseline, &net);
        let types: Vec<String> = t.dram_by_type().into_iter().map(|(k, _)| k).collect();
        assert!(types.iter().any(|t| t == "conv"));
        assert!(types.iter().any(|t| t == "norm"));
    }
}
