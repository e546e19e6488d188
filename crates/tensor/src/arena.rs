//! Reusable scratch-buffer arena for the compute kernels **and** every
//! [`crate::Tensor`]'s backing storage.
//!
//! The MBS executor serializes a mini-batch into many small sub-batch
//! propagations (paper §3), so the per-op intermediates — GEMM packing
//! panels, the convolutions' staged planes — would otherwise be allocated
//! and freed once per layer per sub-batch. This arena keeps those buffers
//! alive in a pool: [`take`] hands out a buffer (reusing a pooled
//! allocation when one fits) and dropping the returned [`Scratch`]
//! recycles it.
//!
//! Since the fused-epilogue PR the arena is also the **activation
//! allocator**: `Tensor` stores its data as a [`Scratch`], so every layer
//! output, gradient, and cache produced inside the serialized training loop
//! recycles a pooled buffer instead of hitting the system allocator. After
//! a warm-up step the steady-state grouped training step runs with zero
//! arena misses (pinned by `crates/train/tests/grouped_steady_state.rs`;
//! the repository benchmark reports `tensor.arena_misses_per_step`).
//!
//! **One pool per thread.** Every thread has its own pool, created empty
//! on its first use: a `take` and a `Scratch` drop touch only the calling
//! thread's pool and never take a lock. A buffer dropped on another thread
//! than the one that took it joins *that* thread's pool — ownership is
//! wherever the drop happens. A thread's pool, and every buffer in it, is
//! freed when the thread exits. The kernels' worker threads therefore
//! check out nothing themselves: their scratch is taken on the calling
//! thread and dropped there after the workers join
//! (`ops::pack::scoped_chunks`), so it returns to the caller's pool.
//! [`stats`] exposes process-wide hit/miss counters so tests and the
//! benchmark can pin the reuse behavior.
//!
//! **Scopes.** A [`LocalArena`] guard gives the thread a fresh, empty pool
//! for as long as it lives and, when dropped, frees that pool and puts the
//! thread's previous one back; guards nest. A training run
//! (`mbs_train::training::train_grouped*`) runs under one, so the buffers
//! it leaves pooled go back to the allocator when it returns and the next
//! run's peak is its own, not stacked on an earlier run's idle buffers.
//!
//! **Caps.** A pool holds at most 256 buffers and 256 MiB; a drop into a
//! full pool frees its least recently adopted buffers to make room, so a
//! pool that an earlier phase filled with other sizes follows the sizes
//! its thread uses now.
//!
//! A training step checks out over a thousand buffers, so the free list is
//! ordered by capacity: a `take` finds its best fit — the smallest pooled
//! capacity within the fit bound, its most recently dropped buffer — with
//! one binary search instead of a walk over every pooled buffer, and a
//! take + drop costs about what a `malloc`/`free` pair does.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};

/// Buffers kept in the pool at once; a full pool frees its least recently
/// adopted buffer to make room for the next. Sized for the training hot
/// loop: a sub-batch step cycles layer outputs, backward gradients, and
/// per-layer caches through the pool, and evicting any of them
/// re-introduces a steady-state miss.
const MAX_POOLED: usize = 256;

/// Largest single buffer worth pooling (elements). Anything bigger is
/// returned to the allocator so a one-off huge tensor cannot pin memory.
const MAX_POOLED_LEN: usize = 1 << 24; // 64 MiB of f32

/// Total elements the pool may hold across all buffers (256 MiB of f32).
/// A count cap alone would let 256 large buffers pin ~16 GiB now that
/// every `Tensor` routes through the arena; the byte budget bounds what a
/// transient large-tensor phase can leave behind for its thread's (or
/// scope's) lifetime.
const MAX_POOLED_TOTAL: usize = 1 << 26;

// Any buffer the pool is offered fits once the pool is empty, so making
// room for it always ends.
const _: () = assert!(MAX_POOLED_LEN <= MAX_POOLED_TOTAL);

/// Elements a pooled buffer may exceed twice a request by and still serve
/// it (256 KiB): small tensors take whatever is free, as they always did.
const MAX_FIT_SLACK: usize = 1 << 16;

/// Ends a chain of [`Slot`]s.
const END: usize = usize::MAX;

/// A pooled buffer, the slot of the next-older pooled buffer of the same
/// capacity, and when the buffer was adopted (the pool's adoption count at
/// the time). An emptied slot holds no allocation and chains to the next
/// emptied one instead.
struct Slot {
    buf: Vec<f32>,
    next: usize,
    adopted: u64,
}

/// The free list, ordered by capacity, plus running count and capacity
/// totals so the cap checks in `Scratch::drop` are O(1) instead of a sum
/// over the pool (every `Tensor` drop makes them).
///
/// The best fit is a binary search over the distinct pooled capacities and
/// a pop off that capacity's chain; a drop is a search and a push. Only a
/// capacity that appears or leaves shifts the 16-byte entries above it, and
/// a steady state repeats a handful of sizes, so that is rare. A drop into
/// a full pool first frees the least recently adopted buffer, found by a
/// walk over the slots: a pool whose working set fits never pays it. The
/// unit tests pin every fit and every eviction against a linear walk over
/// the pooled buffers.
///
/// Neither vector shrinks, and each grows only to the most capacities
/// (`caps`) or buffers (`slots`, at most [`MAX_POOLED`]) the pool has held
/// at once: past its warm-up a steady state allocates nothing here. (A
/// `BTreeMap` would allocate and free nodes as the number of pooled
/// capacities crosses a node boundary.)
struct Pool {
    /// One entry per capacity the pool holds, ascending: the capacity and
    /// the slot of its most recently adopted buffer (the one most likely
    /// still in cache). An entry leaves with its last buffer, so the list
    /// never grows with the number of distinct sizes a thread has seen.
    caps: Vec<(usize, usize)>,
    /// The pooled buffers' slots and the emptied ones.
    slots: Vec<Slot>,
    /// First emptied slot, or [`END`].
    free: usize,
    /// Invariant: `count` is the number of pooled buffers and `total` the
    /// sum of their capacities.
    count: usize,
    total: usize,
    /// Buffers adopted so far: the next adopted buffer's stamp.
    adoptions: u64,
}

impl Pool {
    const fn new() -> Self {
        Self {
            caps: Vec::new(),
            slots: Vec::new(),
            free: END,
            count: 0,
            total: 0,
            adoptions: 0,
        }
    }

    /// Pops the smallest pooled buffer with capacity ≥ `len`, if any —
    /// but never one more than twice the request (plus
    /// [`MAX_FIT_SLACK`]): a long-lived tensor settled in a buffer several
    /// times its size wastes the difference for its whole life, and the
    /// next request of the big size misses (on `train_dram_resnet` the
    /// bound took peak RSS from 683 to 431 MiB). A steady state repeats
    /// its sizes exactly, so the bound costs it no hit.
    fn pop_best_fit(&mut self, len: usize) -> Option<Vec<f32>> {
        let max_cap = len.saturating_mul(2).saturating_add(MAX_FIT_SLACK);
        let i = self.caps.partition_point(|&(cap, _)| cap < len);
        let (cap, head) = *self.caps.get(i).filter(|&&(cap, _)| cap <= max_cap)?;
        let slot = &mut self.slots[head];
        let buf = std::mem::take(&mut slot.buf);
        match std::mem::replace(&mut slot.next, self.free) {
            END => {
                self.caps.remove(i);
            }
            next => self.caps[i].1 = next,
        }
        self.free = head;
        self.count -= 1;
        self.total -= cap;
        Some(buf)
    }

    /// Adopts `buf` (never empty, at most [`MAX_POOLED_LEN`]), first
    /// freeing the least recently adopted buffers until the count and byte
    /// caps allow it. A full pool so follows what its thread uses now: the
    /// sizes an earlier phase left behind (a probe, a different net) give
    /// way instead of turning every new buffer away for good.
    fn adopt(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        while self.count == MAX_POOLED || self.total + cap > MAX_POOLED_TOTAL {
            self.evict_oldest();
        }
        self.count += 1;
        self.total += cap;
        let i = match self.caps.binary_search_by_key(&cap, |&(cap, _)| cap) {
            Ok(i) => i,
            Err(i) => {
                self.caps.insert(i, (cap, END));
                i
            }
        };
        let slot = Slot {
            buf,
            next: self.caps[i].1,
            adopted: self.adoptions,
        };
        self.adoptions += 1;
        self.caps[i].1 = if self.free == END {
            self.slots.push(slot);
            self.slots.len() - 1
        } else {
            let emptied = self.free;
            self.free = std::mem::replace(&mut self.slots[emptied], slot).next;
            emptied
        };
    }

    /// Frees the least recently adopted buffer. It is also the oldest of
    /// its capacity, so it ends that capacity's chain.
    fn evict_oldest(&mut self) {
        let oldest = (0..self.slots.len())
            .filter(|&s| self.slots[s].buf.capacity() > 0)
            .min_by_key(|&s| self.slots[s].adopted)
            .expect("a pool past a cap holds a buffer");
        let cap = self.slots[oldest].buf.capacity();
        let i = self.caps.partition_point(|&(c, _)| c < cap);
        if self.caps[i].1 == oldest {
            self.caps.remove(i);
        } else {
            let mut slot = self.caps[i].1;
            while self.slots[slot].next != oldest {
                slot = self.slots[slot].next;
            }
            self.slots[slot].next = END;
        }
        self.slots[oldest] = Slot {
            buf: Vec::new(),
            next: self.free,
            adopted: 0,
        };
        self.free = oldest;
        self.count -= 1;
        self.total -= cap;
    }
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The calling thread's pool: the innermost live [`LocalArena`]'s, or
    /// the thread's own outside every scope.
    static POOL: RefCell<Pool> = const { RefCell::new(Pool::new()) };
}

/// Scope guard giving the current thread a fresh, empty arena pool. While
/// it lives, [`take`]/[`take_zeroed`] and `Scratch` drops on this thread
/// use that pool; dropping the guard frees every buffer it pooled and puts
/// back the pool the thread had before. Guards nest: drop them in reverse
/// order of installation (as scoped locals are).
///
/// A training run installs one for its whole length, so what it leaves
/// pooled is freed when it returns.
///
/// # Examples
///
/// ```
/// use mbs_tensor::arena;
///
/// drop(arena::take(256)); // pooled in the thread's own pool
/// let outer = arena::pooled();
/// let guard = arena::LocalArena::install();
/// assert_eq!(arena::pooled(), (0, 0)); // a fresh pool
/// drop(arena::take(512)); // recycles into the scope's pool
/// let b = arena::take(512); // a hit in the scope's pool
/// drop(b);
/// drop(guard); // the scope's buffers are freed
/// assert_eq!(arena::pooled(), outer);
/// ```
pub struct LocalArena {
    /// The pool this guard displaced, restored on drop.
    outer: Pool,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl std::fmt::Debug for LocalArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LocalArena").finish_non_exhaustive()
    }
}

impl LocalArena {
    /// Installs a fresh pool for the current thread, saving the one it
    /// replaces.
    pub fn install() -> Self {
        let outer = POOL.with(|p| std::mem::replace(&mut *p.borrow_mut(), Pool::new()));
        Self {
            outer,
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for LocalArena {
    fn drop(&mut self) {
        let outer = std::mem::replace(&mut self.outer, Pool::new());
        // In TLS teardown the outer pool is simply freed with this guard.
        let _freed = POOL.try_with(|p| std::mem::replace(&mut *p.borrow_mut(), outer));
    }
}

/// A pooled `f32` buffer; returns to the arena on drop.
#[derive(Debug)]
pub struct Scratch {
    buf: Vec<f32>,
}

impl Scratch {
    /// Wraps an existing vector so it joins the pool when dropped (how
    /// `Tensor::from_vec` adopts caller-built storage without copying).
    pub(crate) fn from_vec(buf: Vec<f32>) -> Self {
        Self { buf }
    }

    /// The backing vector (for `Tensor::assign`, which resizes in place).
    pub(crate) fn buf_mut(&mut self) -> &mut Vec<f32> {
        &mut self.buf
    }
}

impl Deref for Scratch {
    type Target = [f32];

    fn deref(&self) -> &[f32] {
        &self.buf
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [f32] {
        &mut self.buf
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if self.buf.capacity() == 0 || self.buf.capacity() > MAX_POOLED_LEN {
            return;
        }
        let buf = std::mem::take(&mut self.buf);
        // In TLS teardown the closure never runs and the buffer is freed.
        let _ = POOL.try_with(|p| p.borrow_mut().adopt(buf));
    }
}

/// Checks out a buffer of exactly `len` elements with **unspecified
/// contents** (a reused allocation keeps its previous values), reusing a
/// pooled allocation when one with sufficient capacity exists.
///
/// Every current consumer — packing panels, GEMM staging (the blocked core
/// *stores* its first depth panel rather than accumulating), the staged
/// convolution planes — fully overwrites the buffer before reading it, so
/// `take` skips the zero-fill pass a fresh `vec![0.0; len]` would pay on
/// every call.
/// Use [`take_zeroed`] when the contract actually needs zeros.
pub fn take(len: usize) -> Scratch {
    match reuse(len) {
        Some(mut buf) => {
            // Shrink without writing; only growth into untouched capacity
            // pays a fill.
            if buf.len() > len {
                buf.truncate(len);
            } else {
                buf.resize(len, 0.0);
            }
            Scratch { buf }
        }
        None => Scratch {
            buf: vec![0.0; len],
        },
    }
}

/// [`take`], but the returned buffer is guaranteed to be all zeros. Only a
/// *reused* buffer pays the zero-fill pass; a miss's fresh `vec![0.0; len]`
/// is already zeroed (and lands on calloc's zero pages).
pub fn take_zeroed(len: usize) -> Scratch {
    match reuse(len) {
        Some(mut buf) => {
            // Empty-then-grow writes exactly `len` zeros.
            buf.clear();
            buf.resize(len, 0.0);
            Scratch { buf }
        }
        None => Scratch {
            buf: vec![0.0; len],
        },
    }
}

/// Pops the best-fit pooled buffer for a `len`-element request (smallest
/// sufficient capacity, so a small request does not burn a large buffer)
/// from the calling thread's pool and bumps the hit/miss counters.
///
/// An empty request needs no storage, so it touches neither the pool nor
/// the counters: the fit bound would let it hold a pooled buffer of up to
/// [`MAX_FIT_SLACK`] elements for its whole life.
fn reuse(len: usize) -> Option<Vec<f32>> {
    if len == 0 {
        return None;
    }
    let reused = POOL
        .try_with(|p| p.borrow_mut().pop_best_fit(len))
        .unwrap_or(None);
    match &reused {
        Some(_) => HITS.fetch_add(1, Ordering::Relaxed),
        None => MISSES.fetch_add(1, Ordering::Relaxed),
    };
    reused
}

/// `(hits, misses)` counters over every thread since process start (or
/// the last [`reset_stats`]).
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Zeroes the hit/miss counters (test isolation).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// `(buffers, bytes)` the calling thread's pool holds.
pub fn pooled() -> (usize, usize) {
    POOL.with(|p| {
        let pool = p.borrow();
        (pool.count, pool.total * std::mem::size_of::<f32>())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buffers_are_reused_and_take_zeroed_zeroes() {
        let _scope = LocalArena::install();
        let recycled = {
            let mut a = take(1000);
            a[0] = 7.0;
            a[999] = 3.0;
            a.as_ptr()
        }; // recycled here
        let b = take_zeroed(500);
        assert_eq!(
            (b.as_ptr(), b.buf.capacity()),
            (recycled, 1000),
            "take_zeroed(500) must reuse the capacity-1000 buffer just dropped"
        );
        assert!(
            b.iter().all(|&v| v == 0.0),
            "take_zeroed must clear reused contents"
        );
        assert_eq!(b.len(), 500);
    }

    #[test]
    fn empty_requests_do_not_borrow_a_pooled_buffer() {
        let _scope = LocalArena::install();
        drop(take(100));
        let empty = take(0);
        let empty_zeroed = take_zeroed(0);
        assert_eq!(empty.buf.capacity(), 0);
        assert_eq!(empty_zeroed.buf.capacity(), 0);
        assert_eq!(pooled().0, 1, "an empty request must leave the pool alone");
    }

    #[test]
    fn oversized_requests_still_work() {
        let s = take(10);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn local_arena_reuses_buffers_within_the_thread() {
        let _scope = LocalArena::install();
        drop(take(4096));
        assert_eq!(pooled(), (1, 4096 * 4));
        let s = take(4096); // must be served by the scope's free list
        assert_eq!(s.len(), 4096);
        assert_eq!(
            pooled(),
            (0, 0),
            "take must have consumed the pooled buffer"
        );
    }

    #[test]
    fn nested_scopes_restore_the_outer_pool() {
        let _outer = LocalArena::install();
        let kept = {
            let a = take(1000);
            a.as_ptr()
        };
        assert_eq!(pooled(), (1, 4000));
        let inner = LocalArena::install();
        assert_eq!(pooled(), (0, 0), "a scope starts on an empty pool");
        drop(take(2000));
        let nested = LocalArena::install();
        drop(take(3000));
        assert_eq!(pooled(), (1, 12_000));
        drop(nested);
        assert_eq!(pooled(), (1, 8000), "the middle scope's pool is back");
        drop(inner);
        assert_eq!(pooled(), (1, 4000), "the outer pool is back");
        assert_eq!(
            take(1000).as_ptr(),
            kept,
            "the outer pool still holds its own buffer"
        );
    }

    #[test]
    fn a_scope_frees_its_buffers_at_its_end() {
        let _outer = LocalArena::install();
        drop(take(100));
        let before = pooled();
        {
            let _run = LocalArena::install();
            let held: Vec<Scratch> = (1..=5).map(|i| take(i * 10_000)).collect();
            drop(held);
            assert_eq!(pooled().0, 5);
        }
        assert_eq!(
            pooled(),
            before,
            "the scope's buffers went to the allocator"
        );
    }

    #[test]
    fn a_buffer_dropped_on_another_thread_joins_that_threads_pool() {
        let _scope = LocalArena::install();
        let moved = take(5000);
        let there = std::thread::spawn(move || {
            assert_eq!(pooled(), (0, 0), "a new thread starts on an empty pool");
            drop(moved);
            pooled()
        })
        .join()
        .unwrap();
        assert_eq!(
            there,
            (1, 5000 * 4),
            "the drop pooled it on the other thread"
        );
        assert_eq!(pooled(), (0, 0), "the taking thread's pool never saw it");
    }

    #[test]
    fn worker_scratch_returns_to_the_callers_pool() {
        let _scope = LocalArena::install();
        let mut out = vec![0.0f32; 64];
        let call = |out: &mut [f32], hits: &mut usize| {
            let state = |_| {
                let before = pooled().0;
                let s = take(1000);
                *hits += usize::from(pooled().0 < before);
                s
            };
            let work = |t: usize, _, chunk: &mut [f32], s: &mut Scratch| {
                s[0] = t as f32;
                chunk.fill(s[0]);
            };
            crate::ops::pack::scoped_chunks(out, 2, 2, state, |i| i * 32, work);
        };
        let mut hits = 0;
        call(&mut out, &mut hits);
        assert_eq!(hits, 0, "a first call on an empty pool misses");
        assert_eq!(pooled().0, 2, "both workers' scratch came home");
        call(&mut out, &mut hits);
        assert_eq!(hits, 2, "a second identical call is all hits");
        assert_eq!(pooled().0, 2);
        assert_eq!(out[..32], [0.0; 32]);
        assert_eq!(out[32..], [1.0; 32]);
    }

    #[test]
    fn concurrent_local_arenas_do_not_interfere() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let _scope = LocalArena::install();
                    for round in 0..50 {
                        let len = 128 + 64 * t + round;
                        let mut s = take(len);
                        s[0] = t as f32;
                        s[len - 1] = round as f32;
                        assert_eq!(s.len(), len);
                    }
                    pooled().0
                })
            })
            .collect();
        for h in handles {
            assert!(h.join().unwrap() >= 1, "each thread pooled its own buffers");
        }
    }

    #[test]
    fn a_full_pool_gives_way_to_the_sizes_in_use() {
        let _scope = LocalArena::install();
        // An earlier phase leaves the pool at its count cap, in sizes the
        // loop below never asks for.
        let stale: Vec<Scratch> = (0..MAX_POOLED).map(|_| take(3)).collect();
        drop(stale);
        assert_eq!(pooled().0, MAX_POOLED);
        let sizes = [1000, 2000, 3000, 5000, 8000];
        let round = || {
            let mut hits = 0;
            let held: Vec<Scratch> = sizes
                .iter()
                .map(|&len| {
                    let before = pooled().0;
                    let s = take(len);
                    hits += usize::from(pooled().0 < before);
                    s
                })
                .collect();
            drop(held);
            hits
        };
        assert_eq!(round(), 0, "a first round misses");
        assert_eq!(round(), sizes.len(), "the next round is all hits");
        assert_eq!(round(), sizes.len());
        assert_eq!(pooled().0, MAX_POOLED, "the cap still holds");
    }

    #[test]
    fn pool_respects_the_total_byte_budget() {
        let _scope = LocalArena::install();
        // Drop budget-sized buffers until the total cap must reject one.
        let each = MAX_POOLED_LEN / 2;
        let fits = MAX_POOLED_TOTAL / each;
        for _ in 0..fits + 3 {
            drop(Scratch {
                buf: Vec::with_capacity(each),
            });
        }
        let (pooled, total) = POOL.with(|p| {
            let pool = p.borrow();
            (
                pool.slots.iter().map(|s| s.buf.capacity()).sum::<usize>(),
                pool.total,
            )
        });
        assert!(
            pooled <= MAX_POOLED_TOTAL,
            "pool holds {pooled} elements, budget is {MAX_POOLED_TOTAL}"
        );
        assert_eq!(pooled, total, "running total must track actual capacity");
    }

    /// The free list as a linear walk for the smallest fitting capacity
    /// (the most recently adopted among equals) and for the oldest buffer
    /// to evict: the oracle the capacity-ordered [`Pool`] must match
    /// decision for decision. Each buffer carries its adoption stamp.
    struct ScanPool {
        bufs: Vec<(u64, Vec<f32>)>,
        total: usize,
        adoptions: u64,
    }

    impl ScanPool {
        fn pop_best_fit(&mut self, len: usize) -> Option<Vec<f32>> {
            let mut best: Option<(usize, usize, u64)> = None;
            for (i, (stamp, b)) in self.bufs.iter().enumerate() {
                let cap = b.capacity();
                let fits = cap >= len && cap <= 2 * len + MAX_FIT_SLACK;
                let better = best.is_none_or(|(_, c, s)| cap < c || (cap == c && *stamp > s));
                if fits && better {
                    best = Some((i, cap, *stamp));
                }
            }
            best.map(|(i, cap, _)| {
                self.total -= cap;
                self.bufs.swap_remove(i).1
            })
        }

        fn adopt(&mut self, buf: Vec<f32>) {
            while self.bufs.len() == MAX_POOLED || self.total + buf.capacity() > MAX_POOLED_TOTAL {
                let oldest = (0..self.bufs.len())
                    .min_by_key(|&i| self.bufs[i].0)
                    .unwrap();
                self.total -= self.bufs.swap_remove(oldest).1.capacity();
            }
            self.total += buf.capacity();
            self.bufs.push((self.adoptions, buf));
            self.adoptions += 1;
        }
    }

    /// Pooled buffers as `(capacity, adoption stamp)` pairs.
    type Stamped = Vec<(usize, u64)>;

    /// The two pools side by side, plus the buffers checked out of them
    /// (each pair of equal capacity).
    struct Twin {
        pool: Pool,
        scan: ScanPool,
        out: Vec<(Vec<f32>, Vec<f32>)>,
    }

    /// How often the oracle run reached each case the policy distinguishes,
    /// summed over all sequences.
    #[derive(Debug, Default)]
    struct Seen {
        empty_requests: usize,
        exact_fits: usize,
        fits_on_the_bound: usize,
        misses_beside_a_bound: usize,
        picks_among_equals: usize,
        count_cap_evictions: usize,
        byte_cap_evictions: usize,
        multiple_evictions: usize,
        byte_cap_filled: usize,
    }

    impl Twin {
        /// Both pools' `(capacity, adoption stamp)` pairs, ascending; the
        /// ordered pool's read off its chains, checking each entry holds
        /// only its own capacity, newest first.
        fn pooled(&self) -> (Stamped, Stamped) {
            let mut ordered = Vec::new();
            for &(cap, head) in &self.pool.caps {
                assert_ne!(head, END, "capacity {cap} outlived its last buffer");
                let mut slot = head;
                let mut newer = u64::MAX;
                while slot != END {
                    let Slot { buf, next, adopted } = &self.pool.slots[slot];
                    assert_eq!(buf.capacity(), cap);
                    assert!(*adopted < newer, "capacity {cap}'s chain is out of order");
                    newer = *adopted;
                    ordered.push((cap, *adopted));
                    slot = *next;
                }
            }
            ordered.sort_unstable();
            let mut scanned: Stamped = self
                .scan
                .bufs
                .iter()
                .map(|(s, b)| (b.capacity(), *s))
                .collect();
            scanned.sort_unstable();
            (ordered, scanned)
        }

        /// Both pools must hold the same buffers (capacity and adoption)
        /// and the same totals, and the ordered one must keep its own books.
        fn assert_in_step(&self) {
            let (ordered, scanned) = self.pooled();
            assert_eq!(ordered, scanned, "pooled buffers diverged");
            assert_eq!(self.pool.total, self.scan.total);
            assert_eq!(self.pool.adoptions, self.scan.adoptions);
            assert_eq!(
                self.pool.total,
                ordered.iter().map(|&(cap, _)| cap).sum::<usize>()
            );
            assert_eq!(self.pool.count, ordered.len());
            assert!(self.pool.caps.is_sorted_by(|a, b| a.0 < b.0));
            let mut emptied = 0;
            let mut slot = self.pool.free;
            while slot != END {
                assert_eq!(self.pool.slots[slot].buf.capacity(), 0);
                emptied += 1;
                slot = self.pool.slots[slot].next;
            }
            assert_eq!(self.pool.slots.len(), self.pool.count + emptied);
            assert!(self.pool.slots.len() <= MAX_POOLED);
        }

        fn take(&mut self, len: usize, seen: &mut Seen) {
            let held: Vec<usize> = self.pooled().1.iter().map(|&(cap, _)| cap).collect();
            let max_cap = 2 * len + MAX_FIT_SLACK;
            let got = self.pool.pop_best_fit(len);
            let want = self.scan.pop_best_fit(len);
            let cap = want.as_ref().map(Vec::capacity);
            assert_eq!(
                got.as_ref().map(Vec::capacity),
                cap,
                "take({len}) from capacities {held:?}"
            );
            seen.empty_requests += usize::from(len == 0);
            seen.exact_fits += usize::from(cap == Some(len));
            seen.fits_on_the_bound += usize::from(cap == Some(max_cap));
            let beside = held.iter().any(|&c| c + 1 == len || c == max_cap + 1);
            seen.misses_beside_a_bound += usize::from(cap.is_none() && beside);
            seen.picks_among_equals +=
                usize::from(cap.is_some_and(|c| held.iter().filter(|&&h| h == c).count() > 1));
            let pair = match (got, want) {
                (Some(a), Some(b)) => (a, b),
                // A miss allocates; `Scratch::drop` never offers an empty buffer.
                _ => (
                    Vec::with_capacity(len.max(1)),
                    Vec::with_capacity(len.max(1)),
                ),
            };
            self.out.push(pair);
        }

        /// Offers a buffer of capacity `cap` to both pools; both always
        /// adopt it, `assert_in_step` checks they evicted the same ones.
        fn adopt(&mut self, pair: (Vec<f32>, Vec<f32>), seen: &mut Seen) {
            let cap = pair.0.capacity();
            assert_eq!(cap, pair.1.capacity());
            let count_full = self.scan.bufs.len() >= MAX_POOLED;
            let bytes_full = self.scan.total + cap > MAX_POOLED_TOTAL;
            let before = self.scan.bufs.len();
            self.pool.adopt(pair.0);
            self.scan.adopt(pair.1);
            seen.count_cap_evictions += usize::from(count_full);
            seen.byte_cap_evictions += usize::from(bytes_full && !count_full);
            seen.multiple_evictions += usize::from(self.scan.bufs.len() + 1 < before);
            seen.byte_cap_filled += usize::from(self.scan.total == MAX_POOLED_TOTAL);
        }
    }

    /// A length from one of the size classes the policy treats
    /// differently: tiny (many equal capacities, and 0), either side of
    /// [`MAX_FIT_SLACK`], medium, and — when `large` — large enough to
    /// reach the byte cap.
    fn draw_len(large: bool, rng: &mut TestRng) -> usize {
        match (0u8..3 + u8::from(large)).generate(rng) {
            0 => (0..24usize).generate(rng),
            1 => (MAX_FIT_SLACK - 24..MAX_FIT_SLACK + 24).generate(rng),
            2 => (0..4 * MAX_FIT_SLACK).generate(rng),
            _ => (MAX_POOLED_LEN / 8..MAX_POOLED_LEN + 1).generate(rng),
        }
    }

    /// A request on the fit bound of the pooled capacity `cap`: `cap`
    /// itself or one off it, or a length whose `2·len + MAX_FIT_SLACK`
    /// lands on or next to `cap`.
    fn edge_len(cap: usize, rng: &mut TestRng) -> usize {
        let base = if proptest::bool::ANY.generate(rng) {
            cap
        } else {
            cap.saturating_sub(MAX_FIT_SLACK) / 2
        };
        (base + (0..3usize).generate(rng)).saturating_sub(1)
    }

    #[test]
    fn ordered_pool_makes_the_linear_scans_decisions() {
        const OUT_MAX: usize = 32;
        let mut seen = Seen::default();
        for case in 0..48 {
            let mut rng = TestRng::deterministic("ordered_pool_oracle", case);
            let mut twin = Twin {
                pool: Pool::new(),
                scan: ScanPool {
                    bufs: Vec::new(),
                    total: 0,
                    adoptions: 0,
                },
                out: Vec::new(),
            };
            // Tenths of the operations that offer a fresh buffer: from a
            // draining pool to one that fills past both caps.
            let fresh = (2..8u8).generate(&mut rng);
            // Half the sequences probe the byte cap's edge; the rest draw
            // no large buffer, so they reach the count cap instead.
            let probe_bytes = proptest::bool::ANY.generate(&mut rng);
            for _ in 0..(200..900usize).generate(&mut rng) {
                let op = (0..10u8).generate(&mut rng);
                let returning = op == fresh || (op > fresh && twin.out.len() >= OUT_MAX);
                if op < fresh {
                    // Now and then exactly the byte budget left, or one off it.
                    let cap = match MAX_POOLED_TOTAL - twin.scan.total {
                        left if probe_bytes
                            && left <= MAX_POOLED_LEN
                            && (0..8u8).generate(&mut rng) == 0 =>
                        {
                            (left + (0..3usize).generate(&mut rng)).saturating_sub(1)
                        }
                        _ => draw_len(probe_bytes, &mut rng),
                    };
                    let a = Vec::with_capacity(cap.max(1));
                    let b = Vec::with_capacity(a.capacity());
                    twin.adopt((a, b), &mut seen);
                } else if returning && !twin.out.is_empty() {
                    let i = (0..twin.out.len()).generate(&mut rng);
                    let pair = twin.out.swap_remove(i);
                    twin.adopt(pair, &mut seen);
                } else {
                    let len = match twin.scan.bufs.len() {
                        n if n > 0 && proptest::bool::ANY.generate(&mut rng) => edge_len(
                            twin.scan.bufs[(0..n).generate(&mut rng)].1.capacity(),
                            &mut rng,
                        ),
                        _ => draw_len(probe_bytes, &mut rng),
                    };
                    twin.take(len, &mut seen);
                }
                twin.assert_in_step();
            }
        }
        let reached = [
            seen.empty_requests,
            seen.exact_fits,
            seen.fits_on_the_bound,
            seen.misses_beside_a_bound,
            seen.picks_among_equals,
            seen.count_cap_evictions,
            seen.byte_cap_evictions,
            seen.multiple_evictions,
            seen.byte_cap_filled,
        ];
        assert!(
            reached.iter().all(|&n| n > 0),
            "a policy case went untested: {seen:?}"
        );
    }
}
