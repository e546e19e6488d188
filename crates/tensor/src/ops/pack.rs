//! Cache-blocked GEMM core with operand packing, SIMD micro-kernel
//! dispatch, and deterministic multi-threading — the compute engine behind
//! `Linear` and the `matmul*` family.
//!
//! # Architecture
//!
//! The classic three-level blocking (BLIS-style): the k dimension is split
//! into `KC`-deep panels, columns into `NC`-wide panels, and rows into
//! `MC`-tall blocks. For each panel the operands are *packed* into
//! contiguous tiles — A into `mr`-row strips, B into `nr`-column strips —
//! so the `mr×nr` register micro-kernel streams both operands sequentially
//! and keeps all `mr·nr` accumulators live across the whole `KC` depth.
//! The tile shape comes from the micro-kernel chosen at startup
//! ([`crate::ops::kernel`]): hand-written AVX-512 (16×16) or AVX2 (8×8)
//! FMA kernels where the CPU supports them, the portable autovectorized
//! 8×8 tile otherwise. The store that writes the last depth panel's sums
//! into C also adds the optional per-column bias (the Linear bias), the
//! one post-op a GEMM carries.
//!
//! Operands are described by [`MatSrc`]: a row-major matrix in memory or
//! a column-major (transposed) view of one, so `Aᵀ·B` and `A·Bᵀ` need no
//! materialized transpose. Convolutions are not lowered onto this core:
//! they run as direct correlations ([`crate::ops::direct`]).
//!
//! # Threading, the shared B panel, and determinism
//!
//! Row blocks are distributed contiguously over scoped threads
//! (`std::thread::scope`); each thread owns a disjoint slice of C rows and
//! packs its own A strips. The packed **B panel is shared**: for every
//! `(KC, NC)` panel the workers pack disjoint strip ranges of one
//! arena-backed buffer, meet at a [`Barrier`], and then all read the same
//! panel — so B is packed exactly once per panel instead of once per
//! worker (the seed paid T× redundant B traffic at T threads).
//!
//! Thread boundaries are aligned to the `MC` grid and `MC` is a multiple
//! of every kernel's `mr`, so every output element sees the *same*
//! accumulation order regardless of thread count: results are bitwise
//! identical for 1 thread and N threads. Thread count, micro-kernel and
//! precision come from the [`Exec`] value each call is given; `matmul*`
//! pass [`Exec::process`] (`MBS_THREADS`, `MBS_KERNEL`, `MBS_PREC`,
//! resolved once per process), so a run never mixes tile shapes, which
//! round differently.
//!
//! Unlike the original naive kernels there is no `a == 0.0` skip: zeros
//! are multiplied like any other value, so NaN/Inf propagate correctly and
//! the inner loop carries no data-dependent branch.
//!
//! # Reduced precision
//!
//! The packing pass is the single place operand elements are touched
//! before the micro-kernel, so it is also where reduced precision lives:
//! under [`Precision::Bf16`] (see [`crate::prec`]) every packing loop encodes elements as bfloat16 while writing the
//! strips — including the cooperative shared-B-panel path, whose packed
//! bytes stay a pure function of `(B, jc, pc)` because the encoding is
//! deterministic bit arithmetic — and the micro-kernels widen on load,
//! accumulating in f32. The whole blocked core is written once, generic
//! over the packed element type, and monomorphized per precision; the f32
//! instantiation is operation-for-operation the pre-`MBS_PREC` code, so
//! f32 results are bitwise unchanged.

use std::marker::PhantomData;
use std::ops::Range;
use std::sync::Barrier;

use crate::arena;
use crate::ops::kernel::{Exec, MicroKernel, MAX_MR, MAX_NR};
use crate::prec::{self, Precision};

/// Rows per packed A block. A multiple of every registered kernel's `mr`
/// (8 and 16), which keeps packed-strip boundaries on a global grid no
/// matter how rows are split across threads; sized for L1.
pub const MC: usize = 64;
/// Depth of one packed panel (shared by A and B; sized for L1/L2).
pub const KC: usize = 128;
/// Columns per packed B panel. A multiple of every registered kernel's
/// `nr`; sized for L2.
pub const NC: usize = 256;

/// A packed-operand element type: `f32` (identity packing) or bf16-coded
/// `u16`. Everything a packing loop or a kernel dispatch needs is a method
/// here, so the blocked GEMM is written once and monomorphized per
/// precision — the f32 instantiation compiles to exactly the pre-precision
/// code (identity conversion, `memcpy` strip copies, the f32 tile body).
trait PackElem: Copy + Send + Sync + 'static {
    /// The strip padding value (`0.0` in both encodings).
    const ZERO: Self;
    /// Encodes one element (identity for f32, RNE bf16 otherwise).
    fn from_f32(v: f32) -> Self;
    /// `dst = encode(src)` — the converting strip copy (a `memcpy` for
    /// f32).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length.
    fn pack_from(dst: &mut [Self], src: &[f32]);
    /// Runs the micro-kernel tile body for this element type.
    fn run_tile(kern: &MicroKernel, kc: usize, a: &[Self], b: &[Self], acc: &mut [f32]);
}

impl PackElem for f32 {
    const ZERO: Self = 0.0;

    #[inline(always)]
    fn from_f32(v: f32) -> Self {
        v
    }

    #[inline(always)]
    fn pack_from(dst: &mut [Self], src: &[f32]) {
        dst.copy_from_slice(src);
    }

    #[inline(always)]
    fn run_tile(kern: &MicroKernel, kc: usize, a: &[Self], b: &[Self], acc: &mut [f32]) {
        kern.run(kc, a, b, acc);
    }
}

impl PackElem for u16 {
    const ZERO: Self = 0;

    #[inline(always)]
    fn from_f32(v: f32) -> Self {
        prec::f32_to_bf16(v)
    }

    #[inline(always)]
    fn pack_from(dst: &mut [Self], src: &[f32]) {
        prec::encode_slice(dst, src);
    }

    #[inline(always)]
    fn run_tile(kern: &MicroKernel, kc: usize, a: &[Self], b: &[Self], acc: &mut [f32]) {
        kern.run_bf16(kc, a, b, acc);
    }
}

/// An arena-backed packing buffer of `len` elements of `E`. The arena
/// pools f32 buffers; a bf16 buffer reinterprets one as u16 words
/// (alignment 4 ≥ 2, every bit pattern valid), so both precisions recycle
/// through the same pool and the zero-steady-state-miss pins keep holding.
struct ElemBuf<E> {
    raw: arena::Scratch,
    len: usize,
    _marker: PhantomData<E>,
}

impl<E: PackElem> ElemBuf<E> {
    fn take(len: usize) -> Self {
        let words = (len * std::mem::size_of::<E>()).div_ceil(std::mem::size_of::<f32>());
        Self {
            raw: arena::take(words),
            len,
            _marker: PhantomData,
        }
    }

    fn as_mut_ptr(&mut self) -> *mut E {
        self.raw.as_mut_ptr().cast::<E>()
    }

    fn as_mut_slice(&mut self) -> &mut [E] {
        // SAFETY: the scratch holds ≥ len·size_of::<E> bytes (see `take`),
        // f32 alignment covers both element types, and u16/f32 accept any
        // bit pattern; &mut self guarantees uniqueness.
        unsafe { std::slice::from_raw_parts_mut(self.as_mut_ptr(), self.len) }
    }
}

/// Where a GEMM operand's elements come from.
///
/// Logical coordinates are always `(r, c)` in the orientation the GEMM
/// needs: A sources are indexed `(i ∈ m, p ∈ k)`, B sources `(p ∈ k,
/// j ∈ n)`.
///
/// # Examples
///
/// A transposed view multiplies without materializing the transpose:
///
/// ```
/// use mbs_tensor::ops::{gemm, Exec, MatSrc};
///
/// // A = [[1, 2], [3, 4]] stored column-major (i.e. as [[1, 3], [2, 4]]).
/// let a_t = [1.0f32, 3.0, 2.0, 4.0];
/// let b = [1.0f32, 0.0, 0.0, 1.0]; // identity
/// let mut c = [0.0f32; 4];
/// gemm(
///     &MatSrc::ColMajor { data: &a_t, stride: 2 },
///     &MatSrc::RowMajor { data: &b, stride: 2 },
///     &mut c,
///     2,
///     2,
///     2,
///     None,
///     Exec::process(),
/// );
/// assert_eq!(c, [1.0, 2.0, 3.0, 4.0]);
/// ```
#[derive(Debug, Clone, Copy)]
pub enum MatSrc<'a> {
    /// `(r, c) → data[r·stride + c]`.
    RowMajor {
        /// Backing storage.
        data: &'a [f32],
        /// Row stride.
        stride: usize,
    },
    /// `(r, c) → data[c·stride + r]` — a transposed view, used for `Aᵀ·B`
    /// and `A·Bᵀ` without materializing the transpose.
    ColMajor {
        /// Backing storage.
        data: &'a [f32],
        /// Column stride (the stored row length).
        stride: usize,
    },
}

/// `C[m×n] = A[m×k] · B[k×n]` (`+ bias[j]` on every row when `bias` is
/// given), run on `exec`'s micro-kernel, worker threads and operand
/// precision — the one GEMM entry point (`matmul*` pass
/// [`Exec::process`]).
///
/// `c` must hold exactly `m·n` elements and is overwritten (it need not be
/// zeroed first); when `k == 0` the output is left untouched. The bias is
/// added in the store that writes the last depth panel's sums, after that
/// panel's accumulation — the order of GEMM-then-bias, so the result is
/// bitwise that of a separate bias pass. Under [`Precision::Bf16`] the A/B
/// panels are packed as bfloat16 (round-to-nearest-even) and the
/// micro-kernel widens on load, accumulating in f32; `c` and the bias stay
/// f32. Results are bitwise invariant to `exec.threads` for a fixed kernel
/// and precision.
///
/// # Panics
///
/// Panics if `c.len() != m·n`, an operand is smaller than its logical
/// extent, `bias` is shorter than `n`, or `k == 0` with a bias (an empty
/// reduction never reaches the store, so the bias could not be added).
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    bias: Option<&[f32]>,
    exec: Exec,
) {
    assert_eq!(c.len(), m * n, "output buffer must be m·n");
    if let Some(bias) = bias {
        assert!(bias.len() >= n, "bias shorter than n");
        assert!(k > 0, "a bias needs a non-empty reduction");
    }
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    // Validate operand extents up-front, on the calling thread: a panic
    // inside a spawned worker would leave its siblings waiting forever on
    // the shared-panel barrier instead of propagating.
    check_extent(a, m, k, "A");
    check_extent(b, k, n, "B");
    let Exec {
        kernel: kern,
        threads,
        precision,
    } = exec;
    // Hard asserts (not debug): a non-dividing tile would mis-slice the
    // packing buffers inside a worker thread, and a worker panic strands
    // its siblings at the shared-panel barrier. One comparison per call.
    assert_eq!(MC % kern.mr, 0, "MC must be a multiple of the tile mr");
    assert_eq!(NC % kern.nr, 0, "NC must be a multiple of the tile nr");
    match precision {
        Precision::F32 => run_shared::<f32>(a, b, c, m, n, k, threads, kern, bias),
        Precision::Bf16 => run_shared::<u16>(a, b, c, m, n, k, threads, kern, bias),
    }
}

/// Panics unless `src` can serve every access of a logical `rows × cols`
/// operand (the packing loops then never index out of bounds, so worker
/// threads cannot panic mid-panel and strand their siblings at a barrier).
fn check_extent(src: &MatSrc<'_>, rows: usize, cols: usize, which: &str) {
    let (len, need) = match *src {
        MatSrc::RowMajor { data, stride } => (data.len(), (rows - 1) * stride + cols),
        MatSrc::ColMajor { data, stride } => (data.len(), (cols - 1) * stride + rows),
    };
    assert!(
        len >= need,
        "{which} operand too small: {len} elements, logical {rows}×{cols} extent needs {need}"
    );
}

/// Raw view of the shared packed-B panel handed to every worker. Workers
/// write disjoint strip ranges before the pack barrier and only read after
/// it; the `Barrier` orders those accesses, so no two live references ever
/// alias.
struct SharedPanel<E> {
    ptr: *mut E,
    len: usize,
}

// SAFETY: access is coordinated by the barrier protocol described above;
// the raw pointer itself is just an address.
unsafe impl<E: PackElem> Sync for SharedPanel<E> {}

impl<E: PackElem> SharedPanel<E> {
    /// Mutable view of elements `[start, start + len)`.
    ///
    /// # Safety
    ///
    /// The caller must be the only worker touching that range until the
    /// next barrier (the strip partition in [`shared_worker`] is disjoint).
    // The &self → &mut route is the point of this type: exclusivity is
    // guaranteed by the barrier protocol, not the borrow checker.
    #[allow(clippy::mut_from_ref)]
    unsafe fn strips_mut(&self, start: usize, len: usize) -> &mut [E] {
        debug_assert!(start + len <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(start), len)
    }

    /// Shared view of the first `len` elements.
    ///
    /// # Safety
    ///
    /// Callable only between the pack barrier and the end-of-panel barrier,
    /// while no `strips_mut` view is live.
    unsafe fn panel(&self, len: usize) -> &[E] {
        debug_assert!(len <= self.len);
        std::slice::from_raw_parts(self.ptr, len)
    }
}

/// The schedule behind every GEMM: C rows are split contiguously
/// (MC-aligned) across scoped workers that cooperatively pack one shared
/// B panel per `(jc, pc)` block. At one worker the body runs inline on
/// the calling thread and the one-participant barrier waits are no-ops.
#[allow(clippy::too_many_arguments)]
fn run_shared<E: PackElem>(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    threads: usize,
    kern: &MicroKernel,
    bias: Option<&[f32]>,
) {
    let blocks = m.div_ceil(MC);
    // The barrier size must equal the spawned worker count: both come
    // from the same `chunk_workers` clamp (`scoped_chunks` applies it
    // idempotently to the value we pass).
    let workers = chunk_workers(blocks, threads);
    let mut b_buf = ElemBuf::<E>::take(KC * NC);
    let shared = SharedPanel {
        ptr: b_buf.as_mut_ptr(),
        len: KC * NC,
    };
    let barrier = Barrier::new(workers);
    let bound = |block: usize| (block * MC).min(m) * n;
    let a_panel = |_| ElemBuf::<E>::take(MC * KC);
    let work = |t, run: Range<usize>, chunk: &mut [f32], a_buf: &mut ElemBuf<E>| {
        shared_worker(
            a,
            b,
            chunk,
            run.start * MC,
            n,
            k,
            t,
            workers,
            kern,
            bias,
            &shared,
            &barrier,
            a_buf,
        );
    };
    scoped_chunks(c, blocks, workers, a_panel, bound, work);
    // `b_buf` outlives every worker's panel view (the scope inside
    // `scoped_chunks` joins them) before the buffer returns to the arena.
    drop(b_buf);
}

/// One worker of the shared-panel schedule: packs its strip share of B,
/// waits for the panel to be complete, then computes its own C rows
/// (packing its own A strips into `a_buf`). Every worker executes the same
/// `(jc, pc)` loop so the two barriers per panel always pair up across
/// threads.
#[allow(clippy::too_many_arguments)]
fn shared_worker<E: PackElem>(
    a: &MatSrc<'_>,
    b: &MatSrc<'_>,
    c_rows: &mut [f32],
    r0: usize,
    n: usize,
    k: usize,
    t: usize,
    threads: usize,
    kern: &MicroKernel,
    bias: Option<&[f32]>,
    shared: &SharedPanel<E>,
    barrier: &Barrier,
    a_buf: &mut ElemBuf<E>,
) {
    let nr = kern.nr;
    let rows = c_rows.len() / n;
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        let strips = nc.div_ceil(nr);
        // This worker's contiguous strip share of the panel. The packed
        // bytes are a pure function of (B, jc, pc), not of which worker
        // writes them, so the shared panel preserves bitwise determinism.
        let s_per = strips / threads;
        let s_extra = strips % threads;
        let s_lo = t * s_per + t.min(s_extra);
        let s_hi = s_lo + s_per + usize::from(t < s_extra);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            if s_hi > s_lo {
                // SAFETY: strip ranges are disjoint across workers, and no
                // worker reads the panel before the barrier below.
                let my = unsafe { shared.strips_mut(s_lo * kc * nr, (s_hi - s_lo) * kc * nr) };
                let nc_local = (nc - s_lo * nr).min((s_hi - s_lo) * nr);
                pack_b(b, my, pc, kc, jc + s_lo * nr, nc_local, nr);
            }
            barrier.wait();
            // SAFETY: every write to the panel happened before the barrier
            // (which orders them), and nobody writes again until the
            // end-of-panel barrier.
            let b_panel = unsafe { shared.panel(strips * kc * nr) };
            let last_kpanel = pc + kc == k;
            compute_block(
                a,
                b_panel,
                c_rows,
                r0,
                rows,
                n,
                jc,
                nc,
                pc,
                kc,
                last_kpanel,
                kern,
                bias,
                a_buf.as_mut_slice(),
            );
            // The panel buffer is reused for the next (jc, pc) block; no
            // worker may repack while another still reads. The last panel
            // has no successor, so its drain barrier is skipped (the
            // thread-scope join provides the final synchronization).
            let last_panel = jc + NC >= n && pc + KC >= k;
            if !last_panel {
                barrier.wait();
            }
        }
    }
}

/// Computes C rows `[r0, r0 + rows)` of one `(jc, pc)` panel given its
/// packed B, packing A strips on the fly. `c_rows` is the `rows × n` slice
/// owned by the calling worker. On the last depth panel (`last_kpanel`)
/// the bias is added in the same store that writes the final sums, so no
/// later pass re-reads C.
#[allow(clippy::too_many_arguments)]
fn compute_block<E: PackElem>(
    a: &MatSrc<'_>,
    b_panel: &[E],
    c_rows: &mut [f32],
    r0: usize,
    rows: usize,
    n: usize,
    jc: usize,
    nc: usize,
    pc: usize,
    kc: usize,
    last_kpanel: bool,
    kern: &MicroKernel,
    bias: Option<&[f32]>,
    a_buf: &mut [E],
) {
    let (mr, nr) = (kern.mr, kern.nr);
    // The first depth panel *stores* its tile into C, later panels
    // accumulate — so callers never pre-zero C and the store pass skips
    // C's read traffic.
    let first_panel = pc == 0;
    let bias = bias.filter(|_| last_kpanel);
    let nr_strips = nc.div_ceil(nr);
    let mut acc = [0.0f32; MAX_MR * MAX_NR];
    for ic in (0..rows).step_by(MC) {
        let mc = MC.min(rows - ic);
        pack_a(a, a_buf, r0 + ic, mc, pc, kc, mr);
        let mr_strips = mc.div_ceil(mr);
        for js in 0..nr_strips {
            let b_strip = &b_panel[js * kc * nr..(js + 1) * kc * nr];
            let j_hi = nr.min(nc - js * nr);
            let j0 = jc + js * nr;
            for is in 0..mr_strips {
                let a_strip = &a_buf[is * kc * mr..(is + 1) * kc * mr];
                let i_hi = mr.min(mc - is * mr);
                E::run_tile(kern, kc, a_strip, b_strip, &mut acc);
                let row0 = ic + is * mr;
                let bias_row = bias.map(|b| &b[j0..j0 + j_hi]);
                for i in 0..i_hi {
                    let acc_row = &acc[i * nr..i * nr + j_hi];
                    let off = (row0 + i) * n + j0;
                    let c_row = &mut c_rows[off..off + j_hi];
                    match (bias_row, first_panel) {
                        (None, true) => c_row.copy_from_slice(acc_row),
                        (None, false) => {
                            for (cv, av) in c_row.iter_mut().zip(acc_row) {
                                *cv += av;
                            }
                        }
                        (Some(bias_row), true) => {
                            for ((cv, av), bv) in c_row.iter_mut().zip(acc_row).zip(bias_row) {
                                *cv = av + bv;
                            }
                        }
                        (Some(bias_row), false) => {
                            for ((cv, av), bv) in c_row.iter_mut().zip(acc_row).zip(bias_row) {
                                *cv = *cv + av + bv;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Workers [`scoped_chunks`] will actually run for `items` work items
/// under a requested `threads` — the single source of the clamp, so
/// callers that need the count up front (the shared-panel barrier) cannot
/// drift from the split itself.
pub(crate) fn chunk_workers(items: usize, threads: usize) -> usize {
    threads.max(1).min(items)
}

/// Splits `buf` at `bound(item)` offsets into one contiguous run of items
/// per worker (`bound` is monotone, `bound(0) = 0`, `bound(items) =
/// buf.len()`) and runs `f(worker, items, chunk, state(worker))` for each
/// run on a scoped thread. The partition is a pure function of `(items,
/// threads)`, so any work whose per-item order is fixed stays
/// bitwise-deterministic for every thread count. Shared by the GEMM row
/// split ([`run_shared`]) and the direct convolutions' `(sample, channel
/// block)` split.
///
/// A worker's `state` is its arena scratch. Every state is built on the
/// calling thread, in worker order, before any worker starts, and dropped
/// there after every worker has joined, so the scratch comes from and
/// returns to the caller's arena pool: a scoped thread's own pool dies
/// with it, so scratch dropped there would miss again on every call. A
/// worker that checked its scratch out itself could also finish (and
/// recycle it) before the next one starts, so how many buffers the pool
/// needs at once would depend on thread timing.
pub(crate) fn scoped_chunks<S, I, B, F>(
    buf: &mut [f32],
    items: usize,
    threads: usize,
    state: I,
    bound: B,
    f: F,
) where
    S: Send,
    I: FnMut(usize) -> S,
    B: Fn(usize) -> usize,
    F: Fn(usize, Range<usize>, &mut [f32], &mut S) + Sync,
{
    if buf.is_empty() || items == 0 {
        return;
    }
    let threads = chunk_workers(items, threads);
    let mut states = (0..threads).map(state);
    if threads == 1 {
        let mut only = states.next().expect("one worker state");
        f(0, 0..items, buf, &mut only);
        return;
    }
    let mut states: Vec<S> = states.collect();
    let per = items / threads;
    let extra = items % threads;
    std::thread::scope(|scope| {
        let mut rest = buf;
        let mut item = 0usize;
        for (t, st) in states.iter_mut().enumerate() {
            let count = per + usize::from(t < extra);
            let (chunk, tail) = rest.split_at_mut(bound(item + count) - bound(item));
            rest = tail;
            let run = item..item + count;
            item += count;
            let f = &f;
            scope.spawn(move || f(t, run, chunk, st));
        }
    });
}

/// Packs A rows `[i0, i0+mc) × depth [p0, p0+kc)` into `mr`-row strips:
/// `buf[strip·kc·mr + p·mr + i]`, zero-padded to full strips. Every source
/// variant gets a specialized loop (contiguous copies or one divmod per
/// run) — the packing pass is the fused paths' only touch of the operand,
/// so its per-element cost directly bounds kernel throughput.
#[allow(clippy::too_many_arguments)]
fn pack_a<E: PackElem>(
    src: &MatSrc<'_>,
    buf: &mut [E],
    i0: usize,
    mc: usize,
    p0: usize,
    kc: usize,
    mr: usize,
) {
    let strips = mc.div_ceil(mr);
    match *src {
        MatSrc::RowMajor { data, stride } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * mr..(s + 1) * kc * mr];
                let lanes = mr.min(mc - s * mr);
                for ii in 0..mr {
                    if ii >= lanes {
                        zero_lane(strip, kc, mr, ii);
                        continue;
                    }
                    let row = &data[(i0 + s * mr + ii) * stride + p0..][..kc];
                    for (p, &v) in row.iter().enumerate() {
                        strip[p * mr + ii] = E::from_f32(v);
                    }
                }
            }
        }
        MatSrc::ColMajor { data, stride } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * mr..(s + 1) * kc * mr];
                let lanes = mr.min(mc - s * mr);
                for p in 0..kc {
                    let col = &data[(p0 + p) * stride + i0 + s * mr..][..lanes];
                    let cell = &mut strip[p * mr..(p + 1) * mr];
                    E::pack_from(&mut cell[..lanes], col);
                    for slot in &mut cell[lanes..] {
                        *slot = E::ZERO;
                    }
                }
            }
        }
    }
}

/// Packs B depth `[p0, p0+kc) × cols [j0, j0+nc)` into `nr`-column strips:
/// `buf[strip·kc·nr + p·nr + j]`, zero-padded to full strips. Callable on
/// any strip-aligned column sub-range, which is how the shared-panel
/// workers each pack a disjoint slice of the same panel.
#[allow(clippy::too_many_arguments)]
fn pack_b<E: PackElem>(
    src: &MatSrc<'_>,
    buf: &mut [E],
    p0: usize,
    kc: usize,
    j0: usize,
    nc: usize,
    nr: usize,
) {
    let strips = nc.div_ceil(nr);
    match *src {
        MatSrc::RowMajor { data, stride } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * nr..(s + 1) * kc * nr];
                let lanes = nr.min(nc - s * nr);
                for p in 0..kc {
                    let row = &data[(p0 + p) * stride + j0 + s * nr..][..lanes];
                    let cell = &mut strip[p * nr..(p + 1) * nr];
                    E::pack_from(&mut cell[..lanes], row);
                    for slot in &mut cell[lanes..] {
                        *slot = E::ZERO;
                    }
                }
            }
        }
        MatSrc::ColMajor { data, stride } => {
            for s in 0..strips {
                let strip = &mut buf[s * kc * nr..(s + 1) * kc * nr];
                let lanes = nr.min(nc - s * nr);
                for jj in 0..nr {
                    if jj >= lanes {
                        zero_lane(strip, kc, nr, jj);
                        continue;
                    }
                    let col = &data[(j0 + s * nr + jj) * stride + p0..][..kc];
                    for (p, &v) in col.iter().enumerate() {
                        strip[p * nr + jj] = E::from_f32(v);
                    }
                }
            }
        }
    }
}

/// Zeroes one padding lane of a packed strip (`width` = mr or nr).
#[inline(always)]
fn zero_lane<E: PackElem>(strip: &mut [E], kc: usize, width: usize, lane: usize) {
    for p in 0..kc {
        strip[p * width + lane] = E::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::kernel;

    fn seq(len: usize, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|v| ((v * 13 + salt * 7) % 19) as f32 - 9.0)
            .collect()
    }

    fn naive(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for p in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + p] * b[p * n + j];
                }
            }
        }
        c
    }

    /// Plain `gemm` of row-major `a: [m, k]` and `b: [k, n]` into a fresh C.
    fn run(a: &[f32], b: &[f32], m: usize, n: usize, k: usize, exec: Exec) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        gemm(
            &MatSrc::RowMajor { data: a, stride: k },
            &MatSrc::RowMajor { data: b, stride: n },
            &mut c,
            m,
            n,
            k,
            None,
            exec,
        );
        c
    }

    #[test]
    fn matches_naive_on_non_tile_shapes() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (7, 9, 5),
            (65, 17, 130),
            (64, 256, 128),
            (100, 3, 300),
        ] {
            let a = seq(m * k, 1);
            let b = seq(k * n, 2);
            let c = run(&a, &b, m, n, k, Exec::process());
            let expect = naive(&a, &b, m, n, k);
            for (x, y) in c.iter().zip(&expect) {
                assert!(
                    (x - y).abs() <= 1e-3 * y.abs().max(1.0),
                    "({m},{n},{k}): {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn thread_counts_are_bitwise_identical() {
        let (m, n, k) = (133, 37, 97);
        let a = seq(m * k, 3);
        let b = seq(k * n, 4);
        let one = Exec {
            threads: 1,
            ..Exec::process()
        };
        let c1 = run(&a, &b, m, n, k, one);
        let c4 = run(&a, &b, m, n, k, Exec { threads: 4, ..one });
        assert_eq!(c1, c4, "thread count must not change results bitwise");
    }

    #[test]
    fn every_kernel_and_thread_count_agrees_bitwise_per_kernel() {
        // For every kernel and precision, N threads reproduce 1 thread
        // bit-for-bit: the shared B panel's packed bytes (bf16 encodings
        // included) are a pure function of (B, jc, pc), whichever worker
        // writes them. One shape with ragged tiles at every level, one that
        // spans several MC blocks and NC panels.
        for (m, n, k, salt) in [(133, 37, 97, 3), (200, 300, 150, 11)] {
            let a = seq(m * k, salt);
            let b = seq(k * n, salt + 1);
            for kernel in kernel::available() {
                for precision in [Precision::F32, Precision::Bf16] {
                    let exec = Exec {
                        kernel,
                        threads: 1,
                        precision,
                    };
                    let one = run(&a, &b, m, n, k, exec);
                    for threads in [2usize, 3, 4, 5, 8] {
                        let got = run(&a, &b, m, n, k, Exec { threads, ..exec });
                        assert_eq!(
                            one,
                            got,
                            "{} {} with {threads} threads ({m},{n},{k})",
                            kernel.name,
                            precision.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn transposed_sources_match_explicit_transpose() {
        let (m, n, k) = (13, 11, 21);
        let a = seq(m * k, 5);
        let b = seq(k * n, 6);
        // A stored column-major ([k, m] layout).
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c = vec![0.0f32; m * n];
        gemm(
            &MatSrc::ColMajor {
                data: &at,
                stride: m,
            },
            &MatSrc::RowMajor {
                data: &b,
                stride: n,
            },
            &mut c,
            m,
            n,
            k,
            None,
            Exec::process(),
        );
        let expect = naive(&a, &b, m, n, k);
        for (x, y) in c.iter().zip(&expect) {
            assert!((x - y).abs() <= 1e-3 * y.abs().max(1.0));
        }
    }

    #[test]
    fn zero_operands_propagate_nan() {
        // The old kernels skipped a==0.0, silently dropping NaN/Inf in B.
        let c = run(&[0.0, 0.0], &[f32::NAN, 1.0], 1, 1, 2, Exec::process());
        assert!(c[0].is_nan(), "0·NaN must propagate, got {}", c[0]);
    }

    #[test]
    fn overwrites_existing_output() {
        let mut c = vec![5.0f32];
        gemm(
            &MatSrc::RowMajor {
                data: &[1.0],
                stride: 1,
            },
            &MatSrc::RowMajor {
                data: &[2.0],
                stride: 1,
            },
            &mut c,
            1,
            1,
            1,
            None,
            Exec::process(),
        );
        assert_eq!(c[0], 2.0, "gemm overwrites stale output contents");
    }

    #[test]
    #[should_panic(expected = "A operand too small")]
    fn undersized_operand_panics_on_the_calling_thread() {
        // Validated before any worker spawns: a panic inside a worker
        // would strand its siblings at the shared-panel barrier (hang,
        // not panic).
        let a = vec![0.0f32; 10]; // needs 200·150
        let b = vec![0.0f32; 150 * 8];
        let exec = Exec {
            threads: 4,
            ..Exec::process()
        };
        run(&a, &b, 200, 8, 150, exec);
    }

    #[test]
    fn every_registered_kernel_divides_the_blocking_grid() {
        // The determinism argument needs packed-strip boundaries on one
        // global grid: MC and NC must be multiples of every kernel's tile.
        // A future kernel that breaks this would otherwise only trip a
        // debug_assert (absent in release builds).
        for kern in kernel::available() {
            assert_eq!(MC % kern.mr, 0, "{}: MC % mr != 0", kern.name);
            assert_eq!(NC % kern.nr, 0, "{}: NC % nr != 0", kern.name);
        }
    }

    #[test]
    fn bf16_gemm_is_exact_on_bf16_representable_data() {
        // seq() yields integers in [-9, 9] — exactly representable in
        // bf16, so encoding is lossless and the bf16 GEMM must reproduce
        // the f32 GEMM bit-for-bit (the kernels accumulate in f32 either
        // way). Pins that reduced precision costs nothing when the data
        // already fits the format.
        let (m, n, k) = (70, 40, 150);
        let a = seq(m * k, 21);
        let b = seq(k * n, 22);
        for kernel in kernel::available() {
            let f32e = Exec {
                kernel,
                threads: 1,
                precision: Precision::F32,
            };
            let bf16 = Exec {
                precision: Precision::Bf16,
                ..f32e
            };
            let c32 = run(&a, &b, m, n, k, f32e);
            let c16 = run(&a, &b, m, n, k, bf16);
            assert_eq!(c32, c16, "{}", kernel.name);
        }
    }

    #[test]
    fn bf16_gemm_matches_f32_within_encoding_tolerance() {
        // Non-representable data: the only error source is one RNE
        // encoding per operand element (relative 2^-8), so the result must
        // sit within a small multiple of that around the f32 answer.
        let (m, n, k) = (65, 33, 130);
        let a: Vec<f32> = (0..m * k)
            .map(|v| ((v * 13) % 19) as f32 * 0.37 - 3.3)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|v| ((v * 7) % 23) as f32 * 0.29 - 3.1)
            .collect();
        let f32e = Exec {
            threads: 1,
            precision: Precision::F32,
            ..Exec::process()
        };
        let c32 = run(&a, &b, m, n, k, f32e);
        let c16 = run(
            &a,
            &b,
            m,
            n,
            k,
            Exec {
                precision: Precision::Bf16,
                ..f32e
            },
        );
        // Row i of C is a k-term dot product of values ≤ ~4: |error| ≲
        // 2·2^-8 · Σ|aᵢ||bⱼ| ≤ 2^-7 · k · 16. Use half that as the bound —
        // errors are signed and cancel — with slack for edge cases.
        let budget = (k as f32) * 16.0 / 256.0;
        for (i, (x, y)) in c16.iter().zip(&c32).enumerate() {
            assert!(
                (x - y).abs() <= budget,
                "idx {i}: bf16 {x} vs f32 {y} (budget {budget})"
            );
        }
    }

    #[test]
    fn bf16_thread_counts_are_bitwise_identical() {
        // The shared-B-panel protocol must preserve per-precision bitwise
        // thread invariance: packed bf16 bytes are a pure function of
        // (B, jc, pc), regardless of which worker encodes them.
        let (m, n, k) = (200, 300, 150);
        let a = seq(m * k, 31);
        let b = seq(k * n, 32);
        let one = Exec {
            threads: 1,
            precision: Precision::Bf16,
            ..Exec::process()
        };
        let c1 = run(&a, &b, m, n, k, one);
        for threads in [2usize, 3, 5, 8] {
            let cn = run(&a, &b, m, n, k, Exec { threads, ..one });
            assert_eq!(c1, cn, "bf16 with {threads} threads");
        }
    }
}
