//! The layer/module abstraction for the CPU training substrate.

use std::collections::VecDeque;
use std::fmt;

use mbs_tensor::ops::BitMask;
use mbs_tensor::prec::{Bf16Tensor, Precision};
use mbs_tensor::Tensor;

/// A learnable parameter with its accumulated gradient.
///
/// Gradients *accumulate* across backward calls (`+=`), which is what lets
/// the MBS executor serialize a mini-batch into sub-batches and still
/// produce exactly the full-batch gradient (paper §3 "Data
/// Synchronization").
#[derive(Debug, Clone)]
pub struct Param {
    /// Parameter values.
    pub value: Tensor,
    /// Accumulated gradient.
    pub grad: Tensor,
}

impl Param {
    /// Creates a parameter with a zeroed gradient.
    pub fn new(value: Tensor) -> Self {
        let grad = state_zeros(value.shape());
        Self { value, grad }
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        self.grad.scale(0.0);
    }
}

/// Zeros in an allocation of exactly their size, for state that lives as
/// long as the model (gradients, momentum). The arena may serve a request
/// from a pooled buffer of up to twice its size plus 256 KiB: run-long
/// state settled in one keeps an activation's buffer for the whole run,
/// and that activation then misses until the pool has grown another.
pub(crate) fn state_zeros(shape: &[usize]) -> Tensor {
    Tensor::from_vec(shape, vec![0.0; shape.iter().product()])
}

/// One moved-out piece of a module's backward state. Every variant wraps
/// the `Option` the owning module stores, so stashing is a plain
/// `Option::take` — ownership moves, nothing is copied, and tensor
/// storage stays arena-pooled wherever it goes.
#[derive(Debug)]
pub enum CacheEntry {
    /// A cached activation tensor (layer inputs, normalized values).
    Tensor(Option<Tensor>),
    /// A [`CacheEntry::Tensor`] compressed to bf16 while stashed. Modules
    /// never see this variant: a bf16-precision [`CacheStash`] converts
    /// `Tensor` entries to `Packed` on [`CacheStash::push`] and back on
    /// [`CacheStash::pop`], so compression is transparent to the
    /// stash/unstash protocol.
    Packed(Option<Bf16Tensor>),
    /// A ReLU sign mask.
    Mask(Option<BitMask>),
    /// Max-pool state: each output's argmax as a window-tap index (one
    /// byte, `ky·kernel + kx`) plus the input shape.
    Pool(Option<(Vec<u8>, Vec<usize>)>),
    /// A cached shape (pooling layers, FC flatten plumbing).
    Shape(Option<Vec<usize>>),
    /// Per-sample / per-group statistics (normalization inverse stddevs,
    /// LRN scale denominators).
    Stats(Option<Vec<f32>>),
}

/// An ordered bag of [`CacheEntry`] values: the backward state of a module
/// chain for **one** forwarded chunk, moved out of the layers so the next
/// chunk's forward cannot overwrite it.
///
/// [`crate::grouped::GroupedExecutor`] keeps one stash per (group, chunk)
/// and consumes them in reverse chunk order during backward — the
/// cache-stashing alternative to replaying each chunk's forward. Entries
/// are FIFO: modules push in forward order ([`Module::stash_caches`]) and
/// pull in the same order ([`Module::unstash_caches`]), so a chain's stash
/// and unstash walks can both iterate the chain front to back.
///
/// # Examples
///
/// ```
/// use mbs_train::layers::Relu;
/// use mbs_train::module::{CacheStash, Module};
/// use mbs_tensor::Tensor;
///
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(&[2], vec![-1.0, 2.0]);
/// let _ = relu.forward(&x, true);
/// let mut stash = CacheStash::default();
/// relu.stash_caches(&mut stash);       // mask moves out of the layer
/// assert_eq!(stash.len(), 1);
/// relu.unstash_caches(&mut stash);     // ...and back in
/// assert!(stash.is_empty());
/// let dx = relu.backward(&Tensor::full(&[2], 1.0));
/// assert_eq!(dx.data(), &[0.0, 1.0]);
/// ```
/// Stashed tensors are held at the stash's **precision**
/// ([`CacheStash::with_precision`]): an f32 stash (the default) moves
/// tensors untouched; a bf16 stash re-encodes them to half the bytes on
/// push and decodes on pop — one round-to-nearest-even per element, the
/// same rounding the bf16 GEMM applies to its packed operands. Masks,
/// max-pool window-tap indices, shapes, and statistics vectors are small
/// residue and stay uncompressed at either precision.
#[derive(Debug, Default)]
pub struct CacheStash {
    entries: VecDeque<CacheEntry>,
    precision: Precision,
}

impl CacheStash {
    /// An empty stash holding tensor entries at `prec` (the default is
    /// [`Precision::F32`], which moves tensors without conversion).
    pub fn with_precision(prec: Precision) -> Self {
        Self {
            entries: VecDeque::new(),
            precision: prec,
        }
    }

    /// The precision tensor entries are held at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Appends one entry (modules call this from
    /// [`Module::stash_caches`]). A bf16 stash compresses
    /// [`CacheEntry::Tensor`] entries here.
    pub fn push(&mut self, entry: CacheEntry) {
        let entry = match (self.precision, entry) {
            (Precision::Bf16, CacheEntry::Tensor(Some(t))) => {
                CacheEntry::Packed(Some(Bf16Tensor::compress(&t)))
            }
            (_, e) => e,
        };
        self.entries.push_back(entry);
    }

    /// Removes and returns the oldest entry, decoding
    /// [`CacheEntry::Packed`] entries back to [`CacheEntry::Tensor`] so
    /// modules always receive the variant they pushed.
    ///
    /// # Panics
    ///
    /// Panics if the stash is empty — a module pulled more entries than
    /// were pushed, i.e. stash/unstash walked different module sequences.
    pub fn pop(&mut self) -> CacheEntry {
        let entry = self
            .entries
            .pop_front()
            .expect("cache stash underflow: unstash order must mirror stash order");
        match entry {
            CacheEntry::Packed(p) => CacheEntry::Tensor(p.map(|b| b.decompress())),
            e => e,
        }
    }

    /// Resident bytes of the tensor-valued entries currently held — the
    /// measurable footprint the bf16 mode halves (masks, indices, and
    /// statistics residue are not counted).
    pub fn tensor_bytes(&self) -> usize {
        self.entries
            .iter()
            .map(|e| match e {
                CacheEntry::Tensor(Some(t)) => t.len() * 4,
                CacheEntry::Packed(Some(b)) => b.bytes(),
                _ => 0,
            })
            .sum()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the stash holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops all entries (tensor storage returns to the arena) while
    /// keeping the deque's capacity for reuse.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Panic helper for a [`CacheEntry`] variant mismatch during unstash.
#[cold]
pub(crate) fn stash_mismatch(wanted: &str, got: &CacheEntry) -> ! {
    panic!("cache stash mismatch: expected {wanted} entry, found {got:?}")
}

/// One serialized piece of a module's durable state: a shaped f32 blob
/// (a parameter tensor, or auxiliary state like batch-norm running
/// statistics). Checkpoints store `data` as raw little-endian bit
/// patterns, so every value — NaN payloads and `-0.0` included — round
/// trips bitwise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateEntry {
    /// Tensor shape (auxiliary vectors use a rank-1 shape).
    pub shape: Vec<usize>,
    /// Row-major values, `shape.iter().product()` of them.
    pub data: Vec<f32>,
}

/// Error raised when a [`StateDict`] does not match the module tree it is
/// imported into — wrong entry count or wrong shapes. The schedule
/// fingerprint check normally rejects such checkpoints before import; this
/// is the defense in depth behind it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StateError {
    /// The dict ran out of entries before the module tree was satisfied.
    Missing {
        /// Entries the tree consumed before running dry.
        consumed: usize,
    },
    /// An entry's shape does not match the slot it would be restored into.
    ShapeMismatch {
        /// Shape the module expects.
        expected: Vec<usize>,
        /// Shape found in the dict.
        found: Vec<usize>,
    },
    /// Entries were left over after the module tree was fully restored.
    Leftover {
        /// Number of unconsumed entries.
        remaining: usize,
    },
}

impl fmt::Display for StateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateError::Missing { consumed } => write!(
                f,
                "state dict exhausted after {consumed} entries — it belongs to a smaller model"
            ),
            StateError::ShapeMismatch { expected, found } => write!(
                f,
                "state entry shape {found:?} does not match the module's {expected:?}"
            ),
            StateError::Leftover { remaining } => write!(
                f,
                "state dict has {remaining} unconsumed entries — it belongs to a larger model"
            ),
        }
    }
}

impl std::error::Error for StateError {}

/// An ordered bag of [`StateEntry`] values: the durable state of a module
/// tree, flattened in the tree's stable walk order (the same order
/// [`Module::visit_params`] uses, with auxiliary state interleaved where
/// its owning module sits in the walk).
///
/// Export pushes ([`Module::export_state`]); import pops in the identical
/// order ([`Module::import_state`]). Matching is positional, not named:
/// the checkpoint layer guards identity with the schedule fingerprint, so
/// the dict never crosses model architectures, and [`StateError`] catches
/// drift if it somehow does.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct StateDict {
    entries: VecDeque<StateEntry>,
    /// How many entries at the front are retired storage awaiting reuse
    /// (see [`StateDict::recycling`]) rather than content.
    stale: usize,
}

impl StateDict {
    /// An empty dict that refills `retired` entries **in place**: each
    /// [`push_tensor`](StateDict::push_tensor) /
    /// [`push_slice`](StateDict::push_slice) overwrites the oldest retired
    /// entry's `shape` and `data` vectors instead of allocating new ones.
    /// Re-exporting the same module tree into its previous export (what
    /// every checkpoint after a run's first two does) is then one memcpy
    /// per entry and no allocation. Retired entries never count as
    /// content: `len`, `pop` and `into_entries` see only what was pushed.
    pub fn recycling(retired: Vec<StateEntry>) -> Self {
        Self {
            stale: retired.len(),
            entries: retired.into(),
        }
    }

    /// The oldest retired entry, if any is left.
    fn take_stale(&mut self) -> Option<StateEntry> {
        self.stale = self.stale.checked_sub(1)?;
        self.entries.pop_front()
    }

    /// Appends one entry (modules call this from
    /// [`Module::export_state`]).
    pub fn push(&mut self, entry: StateEntry) {
        // Popping before pushing keeps the ring from growing past the
        // retired set's capacity.
        drop(self.take_stale());
        self.entries.push_back(entry);
    }

    fn push_parts(&mut self, shape: &[usize], data: &[f32]) {
        let mut entry = self.take_stale().unwrap_or_default();
        entry.shape.clear();
        entry.shape.extend_from_slice(shape);
        entry.data.clear();
        entry.data.extend_from_slice(data);
        self.entries.push_back(entry);
    }

    /// Appends a tensor's shape and values.
    pub fn push_tensor(&mut self, t: &Tensor) {
        self.push_parts(t.shape(), t.data());
    }

    /// Appends a flat f32 vector as a rank-1 entry.
    pub fn push_slice(&mut self, v: &[f32]) {
        self.push_parts(&[v.len()], v);
    }

    /// Removes and returns the oldest entry; `consumed` is how many the
    /// caller already popped (for the error message).
    pub fn pop(&mut self, consumed: usize) -> Result<StateEntry, StateError> {
        while self.take_stale().is_some() {}
        self.entries
            .pop_front()
            .ok_or(StateError::Missing { consumed })
    }

    /// Pops the oldest entry into `t`, requiring an exact shape match.
    pub fn pop_into_tensor(&mut self, t: &mut Tensor) -> Result<(), StateError> {
        let e = self.pop(0)?;
        if e.shape != t.shape() || e.data.len() != t.len() {
            return Err(StateError::ShapeMismatch {
                expected: t.shape().to_vec(),
                found: e.shape,
            });
        }
        t.data_mut().copy_from_slice(&e.data);
        Ok(())
    }

    /// Pops the oldest entry into `v`, requiring a rank-1 length match.
    pub fn pop_into_slice(&mut self, v: &mut [f32]) -> Result<(), StateError> {
        let e = self.pop(0)?;
        if e.shape != [v.len()] || e.data.len() != v.len() {
            return Err(StateError::ShapeMismatch {
                expected: vec![v.len()],
                found: e.shape,
            });
        }
        v.copy_from_slice(&e.data);
        Ok(())
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len() - self.stale
    }

    /// Whether the dict holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the dict into its entries, in walk order.
    pub fn into_entries(mut self) -> Vec<StateEntry> {
        while self.take_stale().is_some() {}
        self.entries.into()
    }

    /// Rebuilds a dict from entries produced by
    /// [`StateDict::into_entries`] (or deserialized from a checkpoint).
    pub fn from_entries(entries: Vec<StateEntry>) -> Self {
        Self {
            entries: entries.into(),
            stale: 0,
        }
    }
}

/// A differentiable module.
pub trait Module {
    /// Forward pass. `train` selects training behavior (batch-norm batch
    /// statistics, caching for backward).
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor;

    /// Forward pass **consuming** an owned input. Semantically identical to
    /// [`Module::forward`]; layers override it to exploit ownership — ReLU
    /// clamps in place instead of allocating an output, Conv2d/Linear/LRN
    /// move the input into their backward cache instead of cloning it.
    /// Chains that own their
    /// intermediates (every layer-to-layer hop inside a model) should call
    /// this so the serialized sub-batch loop recycles activations instead
    /// of copying them.
    fn forward_owned(&mut self, x: Tensor, train: bool) -> Tensor {
        self.forward(&x, train)
    }

    /// Backward pass: consumes the output gradient, *accumulates* parameter
    /// gradients, and returns the input gradient.
    fn backward(&mut self, dy: &Tensor) -> Tensor;

    /// [`Module::backward`] for a caller that discards the input gradient:
    /// accumulates exactly the same parameter gradients and returns
    /// nothing. The default runs `backward` and drops its result; layers
    /// whose input gradient costs real work (convolution) skip it.
    fn backward_params(&mut self, dy: &Tensor) {
        let _ = self.backward(dy);
    }

    /// Visits every parameter (used by optimizers and gradient checks).
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param));

    /// **Moves** this module's backward caches (the state a training
    /// forward left behind for [`Module::backward`]) into `stash`, in a
    /// fixed per-module order. After the call the module behaves as if no
    /// training forward had run. Modules that cache nothing push nothing.
    ///
    /// Together with [`Module::unstash_caches`] this is the cache-stashing
    /// protocol the grouped executor uses to keep every chunk's backward
    /// state alive across a multi-chunk group forward (instead of
    /// replaying forwards during backward).
    fn stash_caches(&mut self, stash: &mut CacheStash) {
        let _ = stash;
    }

    /// Restores caches previously moved out by [`Module::stash_caches`],
    /// consuming the same number of entries in the same order.
    ///
    /// # Panics
    ///
    /// Implementations panic if the next entries do not match this
    /// module's expected sequence (the stash belongs to a different chain
    /// or the walk orders diverged).
    fn unstash_caches(&mut self, stash: &mut CacheStash) {
        let _ = stash;
    }

    /// Clears all accumulated gradients.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |p| p.zero_grad());
    }

    /// Appends this module's durable state to `dict` — everything a
    /// checkpoint must capture to reproduce the module's future behavior:
    /// parameter values plus non-parameter state (batch-norm running
    /// statistics). Gradients and backward caches are *not* state —
    /// checkpoints are taken at step boundaries where both are dead.
    ///
    /// The default exports every parameter in [`Module::visit_params`]
    /// order, which is complete for a layer whose only state is its
    /// parameters; a layer with extra state (e.g. `BatchNorm2d`)
    /// overrides it to append that state after its parameters.
    fn export_state(&mut self, dict: &mut StateDict) {
        self.visit_params(&mut |p| dict.push_tensor(&p.value));
    }

    /// Restores state previously appended by [`Module::export_state`],
    /// consuming the same entries in the same order.
    ///
    /// # Errors
    ///
    /// Returns a [`StateError`] if the dict runs dry or an entry's shape
    /// does not match — the dict belongs to a different model. The module
    /// may be left partially restored in that case; callers treat the
    /// error as fatal for the load, not something to resume from.
    fn import_state(&mut self, dict: &mut StateDict) -> Result<(), StateError> {
        let mut err = None;
        let mut consumed = 0usize;
        self.visit_params(&mut |p| {
            if err.is_some() {
                return;
            }
            match dict.pop_into_tensor(&mut p.value) {
                Ok(()) => consumed += 1,
                Err(StateError::Missing { .. }) => {
                    err = Some(StateError::Missing { consumed });
                }
                Err(e) => err = Some(e),
            }
        });
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// Extracts rows `[start, end)` along the batch (first) dimension.
///
/// # Panics
///
/// Panics if the range is out of bounds.
pub fn slice_batch(x: &Tensor, start: usize, end: usize) -> Tensor {
    let n = x.shape()[0];
    assert!(start <= end && end <= n, "batch slice out of range");
    let row = x.len() / n.max(1);
    let mut shape = x.shape().to_vec();
    shape[0] = end - start;
    Tensor::from_vec(&shape, x.data()[start * row..end * row].to_vec())
}

/// [`slice_batch`], but the returned tensor's storage comes from the
/// pooled arena (`Tensor::uninit`) instead of a fresh `Vec` — the chunk is
/// a *private* staging buffer the caller owns outright, so chunked loops
/// (grouped execution, [`crate::executor::evaluate`]) can hand it to
/// [`Module::forward_owned`] and let the chain recycle it in place rather
/// than paying a defensive clone per chunk. Steady-state loops see pure
/// pool hits.
///
/// # Panics
///
/// Panics if the range is out of bounds.
pub fn slice_batch_owned(x: &Tensor, start: usize, end: usize) -> Tensor {
    let n = x.shape()[0];
    assert!(start <= end && end <= n, "batch slice out of range");
    let row = x.len() / n.max(1);
    let mut shape = x.shape().to_vec();
    shape[0] = end - start;
    let mut out = Tensor::uninit(&shape);
    out.data_mut()
        .copy_from_slice(&x.data()[start * row..end * row]);
    out
}

/// [`slice_batch`] into an existing tensor, reusing its allocation — the
/// MBS executor calls this once per sub-batch so the serialized loop does
/// not allocate a fresh input tensor per iteration.
///
/// # Panics
///
/// Panics if the range is out of bounds.
pub fn slice_batch_into(x: &Tensor, start: usize, end: usize, out: &mut Tensor) {
    let n = x.shape()[0];
    assert!(start <= end && end <= n, "batch slice out of range");
    let row = x.len() / n.max(1);
    let mut shape = x.shape().to_vec();
    shape[0] = end - start;
    out.assign(&shape, &x.data()[start * row..end * row]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slice_batch_into_reuses_allocation() {
        let x = Tensor::from_vec(&[4, 2], (0..8).map(|v| v as f32).collect());
        let mut buf = Tensor::zeros(&[0]);
        slice_batch_into(&x, 1, 3, &mut buf);
        assert_eq!(buf.shape(), &[2, 2]);
        assert_eq!(buf.data(), &[2.0, 3.0, 4.0, 5.0]);
        // Shrinking to a smaller final sub-batch also works.
        slice_batch_into(&x, 3, 4, &mut buf);
        assert_eq!(buf.shape(), &[1, 2]);
        assert_eq!(buf.data(), &[6.0, 7.0]);
    }

    #[test]
    fn slice_batch_owned_matches_slice_batch() {
        let x = Tensor::from_vec(&[4, 3], (0..12).map(|v| v as f32).collect());
        assert_eq!(slice_batch_owned(&x, 1, 3), slice_batch(&x, 1, 3));
        assert_eq!(slice_batch_owned(&x, 0, 4), x);
    }

    #[test]
    fn slice_batch_extracts_rows() {
        let x = Tensor::from_vec(&[3, 2], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let s = slice_batch(&x, 1, 3);
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn recycling_dict_refills_retired_entries_in_place() {
        let a = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let b = Tensor::from_vec(&[3], vec![5.0, 6.0, 7.0]);
        let mut first = StateDict::default();
        first.push_tensor(&a);
        first.push_tensor(&b);
        first.push_slice(&[8.0]);
        let retired = first.clone().into_entries();
        let storage: Vec<*const f32> = retired.iter().map(|e| e.data.as_ptr()).collect();

        // Retired entries are storage, not content.
        let mut dict = StateDict::recycling(retired);
        assert_eq!((dict.len(), dict.is_empty()), (0, true));
        // A shorter re-export reuses the leading buffers and drops the rest.
        dict.push_tensor(&b);
        dict.push_slice(&[9.0, 10.0, 11.0]);
        assert_eq!(dict.len(), 2);
        let entries = dict.into_entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            (&entries[0].shape, &entries[0].data),
            (&vec![3], &vec![5.0, 6.0, 7.0])
        );
        assert_eq!(entries[1].data, [9.0, 10.0, 11.0]);
        assert_eq!(
            entries[0].data.as_ptr(),
            storage[0],
            "4-float buffer reused"
        );
        assert_eq!(
            entries[1].data.as_ptr(),
            storage[1],
            "3-float buffer reused"
        );

        // A longer one runs out of retired entries and allocates the tail;
        // the same walk twice gives the same dict either way.
        let mut dict = StateDict::recycling(entries);
        dict.push_tensor(&a);
        dict.push_tensor(&b);
        dict.push_slice(&[8.0]);
        assert_eq!(dict, first);
        // Popping never hands out a retired entry.
        let mut dict = StateDict::recycling(first.clone().into_entries());
        dict.push_slice(&[1.5]);
        assert_eq!(dict.pop(0).unwrap().data, [1.5]);
        assert_eq!(dict.pop(1), Err(StateError::Missing { consumed: 1 }));
    }

    #[test]
    fn param_zero_grad() {
        let mut p = Param::new(Tensor::full(&[2], 1.0));
        p.grad = Tensor::full(&[2], 3.0);
        p.zero_grad();
        assert_eq!(p.grad.data(), &[0.0, 0.0]);
    }
}
