//! Multi-branch blocks (residual / inception modules) and the [`Node`]
//! scheduling unit.
//!
//! The paper treats a multi-branch module as a single unit for locality
//! optimization (§3, "Data Reuse Within Multi-Branch Modules"): the block
//! input is shared by all branches and branch outputs merge via a sum
//! (residual) or concatenation (inception).

use std::fmt;

use crate::layer::{FeatureShape, Layer, ShapeError};

/// How branch outputs are merged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeOp {
    /// Element-wise sum (residual blocks). All branches must produce the
    /// same shape.
    Sum,
    /// Channel-wise concatenation (inception modules). All branches must
    /// produce the same spatial extent.
    Concat,
}

/// Block flavor, which selects the buffer-provisioning equation used by the
/// MBS scheduler (paper Eq. 1 for residual, Eq. 2 for inception).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlockKind {
    /// Two-branch residual module: a main branch plus a shortcut branch
    /// (identity or a projection convolution).
    Residual,
    /// N-branch inception module merged by concatenation.
    Inception,
}

/// A multi-branch module scheduled as one unit.
///
/// Branch 0 is the *main* branch by convention (paper Eq. 1 uses `b = 1` for
/// the main branch). An empty branch represents an identity shortcut.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Block name (e.g. `res2a`).
    pub name: String,
    /// Residual or inception.
    pub kind: BlockKind,
    /// Layer chains, each starting from the block input.
    pub branches: Vec<Vec<Layer>>,
    /// The merge layer (`Add` or `Concat`).
    pub merge: Layer,
    /// Post-merge layers (e.g. the ReLU after a residual add).
    pub post: Vec<Layer>,
    /// Block input shape (shared by all branches).
    pub input: FeatureShape,
    /// Block output shape (after merge and post layers).
    pub output: FeatureShape,
}

fn branch_output(input: FeatureShape, branch: &[Layer]) -> FeatureShape {
    branch.last().map_or(input, |l| l.output)
}

impl Block {
    /// Builds a residual block from a main branch and a shortcut branch
    /// (empty = identity), adding the merge `Add` and a post-merge ReLU.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if branch outputs disagree or a branch does
    /// not start from the block input shape.
    pub fn residual(
        name: impl Into<String>,
        input: FeatureShape,
        main: Vec<Layer>,
        shortcut: Vec<Layer>,
    ) -> Result<Self, ShapeError> {
        let name = name.into();
        let branches = vec![main, shortcut];
        let out = validate_branches(input, &branches)?;
        for b in &branches {
            let o = branch_output(input, b);
            if o != out {
                return Err(ShapeError::new(format!(
                    "residual block {name}: branch output {o} != {out}"
                )));
            }
        }
        let merge = Layer::add(format!("{name}.add"), out);
        let post = vec![Layer::relu(format!("{name}.relu"), out)];
        Ok(Self {
            name,
            kind: BlockKind::Residual,
            branches,
            merge,
            post,
            input,
            output: out,
        })
    }

    /// Builds an inception block whose branches merge by concatenation.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if branch spatial extents disagree or a branch
    /// is empty (identity branches are not meaningful under `Concat`).
    pub fn inception(
        name: impl Into<String>,
        input: FeatureShape,
        branches: Vec<Vec<Layer>>,
    ) -> Result<Self, ShapeError> {
        let name = name.into();
        if branches.iter().any(Vec::is_empty) {
            return Err(ShapeError::new(format!(
                "inception block {name}: empty branch not allowed"
            )));
        }
        validate_branches(input, &branches)?;
        let outs: Vec<FeatureShape> = branches.iter().map(|b| branch_output(input, b)).collect();
        let (h, w) = (outs[0].height, outs[0].width);
        for o in &outs {
            if (o.height, o.width) != (h, w) {
                return Err(ShapeError::new(format!(
                    "inception block {name}: branch spatial {o} != {h}x{w}"
                )));
            }
        }
        let total_c: usize = outs.iter().map(|o| o.channels).sum();
        let merge = Layer::concat(
            format!("{name}.concat"),
            FeatureShape::new(0, h, w),
            total_c,
        );
        let output = merge.output;
        Ok(Self {
            name,
            kind: BlockKind::Inception,
            branches,
            merge,
            post: Vec::new(),
            input,
            output,
        })
    }

    /// Number of branches.
    pub fn branch_count(&self) -> usize {
        self.branches.len()
    }

    /// Iterates over every layer inside the block, in execution order
    /// (branch by branch, then merge, then post layers).
    pub fn layers(&self) -> impl Iterator<Item = &Layer> {
        self.branches
            .iter()
            .flatten()
            .chain(std::iter::once(&self.merge))
            .chain(self.post.iter())
    }

    /// Output shape of branch `b` (the block input for identity branches).
    pub fn branch_output(&self, b: usize) -> FeatureShape {
        branch_output(self.input, &self.branches[b])
    }

    /// Total learnable parameter elements in the block.
    pub fn param_elems(&self) -> usize {
        self.layers().map(Layer::param_elems).sum()
    }

    /// Total forward multiply-accumulates per sample in the block.
    pub fn forward_macs(&self) -> usize {
        self.layers().map(Layer::forward_macs).sum()
    }
}

fn validate_branches(
    input: FeatureShape,
    branches: &[Vec<Layer>],
) -> Result<FeatureShape, ShapeError> {
    if branches.is_empty() {
        return Err(ShapeError::new("block must have at least one branch"));
    }
    for branch in branches {
        let mut cur = input;
        for layer in branch {
            if layer.input != cur {
                return Err(ShapeError::new(format!(
                    "layer {} expects input {} but receives {}",
                    layer.name, layer.input, cur
                )));
            }
            cur = layer.output;
        }
    }
    Ok(branch_output(input, &branches[0]))
}

impl fmt::Display for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{:?}, {} branches] {} -> {}",
            self.name,
            self.kind,
            self.branch_count(),
            self.input,
            self.output
        )
    }
}

/// One scheduling unit in a [`crate::Network`]: either a single layer or a
/// whole multi-branch block (the granularity of the paper's Fig. 4).
#[derive(Debug, Clone, PartialEq)]
pub enum Node {
    /// A single layer.
    Single(Layer),
    /// A multi-branch block.
    Block(Block),
}

impl Node {
    /// Node name.
    pub fn name(&self) -> &str {
        match self {
            Node::Single(l) => &l.name,
            Node::Block(b) => &b.name,
        }
    }

    /// Per-sample input shape.
    pub fn input(&self) -> FeatureShape {
        match self {
            Node::Single(l) => l.input,
            Node::Block(b) => b.input,
        }
    }

    /// Per-sample output shape.
    pub fn output(&self) -> FeatureShape {
        match self {
            Node::Single(l) => l.output,
            Node::Block(b) => b.output,
        }
    }

    /// Iterates over all layers contained in the node.
    pub fn layers(&self) -> Box<dyn Iterator<Item = &Layer> + '_> {
        match self {
            Node::Single(l) => Box::new(std::iter::once(l)),
            Node::Block(b) => Box::new(b.layers()),
        }
    }

    /// Total learnable parameter elements.
    pub fn param_elems(&self) -> usize {
        self.layers().map(Layer::param_elems).sum()
    }

    /// Total forward multiply-accumulates per sample.
    pub fn forward_macs(&self) -> usize {
        self.layers().map(Layer::forward_macs).sum()
    }

    /// Short tag describing the node for schedule printouts, mirroring the
    /// x-axis labels of the paper's Fig. 4 (`CONV`, `POOL`, `RES_BLK`, ...).
    pub fn tag(&self) -> String {
        match self {
            Node::Single(l) => l.kind.type_tag().to_uppercase(),
            Node::Block(b) => match b.kind {
                BlockKind::Residual => "RES_BLK".to_owned(),
                BlockKind::Inception => "INC_BLK".to_owned(),
            },
        }
    }

    /// Whether the first layer(s) consuming the node input require it again
    /// during back propagation (drives forward stores, see traffic model).
    pub fn is_block(&self) -> bool {
        matches!(self, Node::Block(_))
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Single(l) => l.fmt(f),
            Node::Block(b) => b.fmt(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::NormKind;

    fn shape() -> FeatureShape {
        FeatureShape::new(64, 56, 56)
    }

    fn conv_norm_relu(
        prefix: &str,
        input: FeatureShape,
        co: usize,
        k: usize,
        stride: usize,
        pad: usize,
    ) -> Vec<Layer> {
        let conv = Layer::conv(format!("{prefix}.conv"), input, co, k, stride, pad).unwrap();
        let norm = Layer::norm(
            format!("{prefix}.norm"),
            conv.output,
            NormKind::Group { groups: 32 },
        );
        let relu = Layer::relu(format!("{prefix}.relu"), norm.output);
        vec![conv, norm, relu]
    }

    #[test]
    fn residual_block_with_identity_shortcut() {
        let s = shape();
        let mut main = conv_norm_relu("a", s, 64, 3, 1, 1);
        main.extend(conv_norm_relu("b", s, 64, 3, 1, 1));
        let block = Block::residual("res", s, main, vec![]).unwrap();
        assert_eq!(block.output, s);
        assert_eq!(block.branch_count(), 2);
        assert_eq!(block.branch_output(1), s);
        // 6 branch layers + add + post relu
        assert_eq!(block.layers().count(), 8);
    }

    #[test]
    fn residual_block_rejects_mismatched_branches() {
        let s = shape();
        let main = conv_norm_relu("a", s, 128, 3, 1, 1);
        let err = Block::residual("res", s, main, vec![]).unwrap_err();
        assert!(err.to_string().contains("branch output"));
    }

    #[test]
    fn residual_block_rejects_discontinuous_chain() {
        let s = shape();
        let c1 = Layer::conv("c1", s, 64, 3, 1, 1).unwrap();
        let c2 = Layer::conv("c2", FeatureShape::new(32, 56, 56), 64, 3, 1, 1).unwrap();
        let err = Block::residual("res", s, vec![c1, c2], vec![]).unwrap_err();
        assert!(err.to_string().contains("expects input"));
    }

    #[test]
    fn inception_block_concatenates_channels() {
        let s = FeatureShape::new(192, 35, 35);
        let b1 = vec![Layer::conv("b1", s, 64, 1, 1, 0).unwrap()];
        let b2 = vec![
            Layer::conv("b2a", s, 48, 1, 1, 0).unwrap(),
            Layer::conv("b2b", FeatureShape::new(48, 35, 35), 64, 5, 1, 2).unwrap(),
        ];
        let block = Block::inception("incA", s, vec![b1, b2]).unwrap();
        assert_eq!(block.output, FeatureShape::new(128, 35, 35));
    }

    #[test]
    fn inception_block_rejects_empty_branch() {
        let s = FeatureShape::new(192, 35, 35);
        let b1 = vec![Layer::conv("b1", s, 64, 1, 1, 0).unwrap()];
        assert!(Block::inception("incA", s, vec![b1, vec![]]).is_err());
    }

    #[test]
    fn inception_block_rejects_spatial_mismatch() {
        let s = FeatureShape::new(192, 35, 35);
        let b1 = vec![Layer::conv("b1", s, 64, 1, 1, 0).unwrap()];
        let b2 = vec![Layer::conv("b2", s, 64, 3, 2, 0).unwrap()];
        assert!(Block::inception("incA", s, vec![b1, b2]).is_err());
    }

    #[test]
    fn node_accessors() {
        let s = shape();
        let node = Node::Single(Layer::relu("r", s));
        assert_eq!(node.name(), "r");
        assert_eq!(node.input(), s);
        assert_eq!(node.tag(), "RELU");
        assert!(!node.is_block());
    }
}
