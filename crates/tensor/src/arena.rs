//! Reusable scratch-buffer arena for the compute kernels **and** every
//! [`crate::Tensor`]'s backing storage.
//!
//! The MBS executor serializes a mini-batch into many small sub-batch
//! propagations (paper §3), so the per-op intermediates — GEMM packing
//! panels, the convolutions' staged planes — would otherwise be allocated
//! and freed once per layer per sub-batch. This arena keeps those buffers
//! alive in a global pool: [`take`] hands out a buffer (reusing a pooled
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
//! The pool is process-global and thread-safe; GEMM worker threads check
//! buffers in and out independently. [`stats`] exposes hit/miss counters so
//! tests can pin the reuse behavior.
//!
//! A training step checks out over a thousand buffers, so the free list is
//! ordered by capacity: a `take` finds its best fit — the smallest pooled
//! capacity within the fit bound, its most recently dropped buffer — with
//! one binary search instead of a walk over every pooled buffer, and a
//! take + drop costs about what a `malloc`/`free` pair does.
//!
//! Long-lived worker threads that must not contend on the global mutex —
//! the `mbs-serve` inference workers, which each run a private model
//! replica — can instead install a **thread-local** pool with
//! [`LocalArena::install`]: while the guard lives, every `take` and every
//! `Scratch` drop on that thread goes through the local free list (no
//! lock, no cross-worker interference), and dropping the guard frees the
//! local buffers. Threads without a guard keep the global-pool behavior
//! unchanged, so the steady-state zero-miss pins on the training loop are
//! unaffected. A buffer allocated under a local arena and dropped on
//! another thread simply recycles into *that* thread's pool (local or
//! global) — ownership is wherever the drop happens.

use std::cell::RefCell;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Buffers kept in the pool at once; excess buffers are simply freed.
/// Sized for the training hot loop: a sub-batch step cycles layer
/// outputs, backward gradients, and per-layer caches through the pool,
/// and evicting any of them re-introduces a steady-state miss.
const MAX_POOLED: usize = 256;

/// Largest single buffer worth pooling (elements). Anything bigger is
/// returned to the allocator so a one-off huge tensor cannot pin memory.
const MAX_POOLED_LEN: usize = 1 << 24; // 64 MiB of f32

/// Total elements the pool may hold across all buffers (256 MiB of f32).
/// A count cap alone would let 256 large buffers pin ~16 GiB now that
/// every `Tensor` routes through the arena; the byte budget bounds what a
/// transient large-tensor phase can leave behind for the process
/// lifetime.
const MAX_POOLED_TOTAL: usize = 1 << 26;

/// Elements a pooled buffer may exceed twice a request by and still serve
/// it (256 KiB): small tensors take whatever is free, as they always did.
const MAX_FIT_SLACK: usize = 1 << 16;

/// Ends a chain of [`Slot`]s.
const END: usize = usize::MAX;

/// A pooled buffer and the slot of the next-older pooled buffer of the
/// same capacity. An emptied slot holds no allocation and chains to the
/// next emptied one instead.
struct Slot {
    buf: Vec<f32>,
    next: usize,
}

/// The free list, ordered by capacity, plus running count and capacity
/// totals so the cap checks in `Scratch::drop` are O(1) instead of a sum
/// over the pool inside the global mutex (every `Tensor` drop takes this
/// lock).
///
/// The best fit is a binary search over the distinct pooled capacities and
/// a pop off that capacity's chain; a drop is a search and a push. Only a
/// capacity that appears or leaves shifts the 16-byte entries above it, and
/// a steady state repeats a handful of sizes, so that is rare. The unit
/// tests pin every fit and every adopt-or-free decision against a linear
/// walk over the pooled buffers.
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
    /// never grows with the number of distinct sizes a process has seen.
    caps: Vec<(usize, usize)>,
    /// The pooled buffers' slots and the emptied ones.
    slots: Vec<Slot>,
    /// First emptied slot, or [`END`].
    free: usize,
    /// Invariant: `count` is the number of pooled buffers and `total` the
    /// sum of their capacities.
    count: usize,
    total: usize,
}

impl Pool {
    const fn new() -> Self {
        Self {
            caps: Vec::new(),
            slots: Vec::new(),
            free: END,
            count: 0,
            total: 0,
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

    /// Adopts `buf` if the count and byte caps allow; otherwise frees it.
    fn adopt(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if self.count < MAX_POOLED && self.total + cap <= MAX_POOLED_TOTAL {
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
            };
            self.caps[i].1 = if self.free == END {
                self.slots.push(slot);
                self.slots.len() - 1
            } else {
                let emptied = self.free;
                self.free = std::mem::replace(&mut self.slots[emptied], slot).next;
                emptied
            };
        }
    }
}

static POOL: Mutex<Pool> = Mutex::new(Pool::new());
static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The thread's private pool while a [`LocalArena`] guard is alive;
    /// `None` routes to the global pool.
    static LOCAL: RefCell<Option<Pool>> = const { RefCell::new(None) };
}

/// Guard installing a private, lock-free arena pool for the current
/// thread. While it lives, [`take`]/[`take_zeroed`] and `Scratch` drops on
/// this thread use the thread-local free list exclusively — a cold local
/// pool allocates fresh rather than stealing from (and contending on) the
/// global pool. Dropping the guard frees every locally pooled buffer and
/// restores the global-pool behavior.
///
/// # Examples
///
/// ```
/// use mbs_tensor::arena;
///
/// let guard = arena::LocalArena::install();
/// let a = arena::take(256);
/// drop(a); // recycles into this thread's pool, no lock taken
/// let b = arena::take(256); // local hit
/// assert_eq!(b.len(), 256);
/// drop(guard); // local buffers freed
/// ```
#[derive(Debug)]
pub struct LocalArena {
    _not_send: std::marker::PhantomData<*const ()>,
}

impl LocalArena {
    /// Installs the thread-local pool.
    ///
    /// # Panics
    ///
    /// Panics if this thread already has a live `LocalArena` guard.
    pub fn install() -> Self {
        LOCAL.with(|l| {
            let mut slot = l.borrow_mut();
            assert!(slot.is_none(), "thread already has a LocalArena installed");
            *slot = Some(Pool::new());
        });
        Self {
            _not_send: std::marker::PhantomData,
        }
    }
}

impl Drop for LocalArena {
    fn drop(&mut self) {
        // Ignore TLS teardown: the pool (and its buffers) die with it.
        let _ = LOCAL.try_with(|l| l.borrow_mut().take());
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
        let mut buf = Some(std::mem::take(&mut self.buf));
        // A thread with a LocalArena recycles into its private pool — no
        // lock. `try_with` covers TLS teardown, where the buffer is freed.
        let routed_locally = LOCAL
            .try_with(|l| match l.borrow_mut().as_mut() {
                Some(pool) => {
                    pool.adopt(buf.take().expect("buffer moved at most once"));
                    true
                }
                None => false,
            })
            .unwrap_or(true);
        if routed_locally {
            return;
        }
        let buf = buf.expect("global route leaves the buffer in place");
        let mut pool = match POOL.lock() {
            Ok(pool) => pool,
            Err(poisoned) => poisoned.into_inner(),
        };
        pool.adopt(buf);
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
/// and bumps the hit/miss counters. A thread with a [`LocalArena`] guard
/// serves the request from its private pool only — a cold local pool is a
/// miss (fresh allocation), never a locked steal from the global pool.
///
/// An empty request needs no storage, so it touches neither the pool nor
/// the counters: the fit bound would let it hold a pooled buffer of up to
/// [`MAX_FIT_SLACK`] elements for its whole life.
fn reuse(len: usize) -> Option<Vec<f32>> {
    if len == 0 {
        return None;
    }
    let local = LOCAL
        .try_with(|l| l.borrow_mut().as_mut().map(|pool| pool.pop_best_fit(len)))
        .unwrap_or(None);
    let reused = match local {
        Some(found) => found,
        None => {
            let mut pool = match POOL.lock() {
                Ok(pool) => pool,
                Err(poisoned) => poisoned.into_inner(),
            };
            pool.pop_best_fit(len)
        }
    };
    match &reused {
        Some(_) => HITS.fetch_add(1, Ordering::Relaxed),
        None => MISSES.fetch_add(1, Ordering::Relaxed),
    };
    reused
}

/// `(hits, misses)` counters since process start (or the last [`reset_stats`]).
pub fn stats() -> (u64, u64) {
    (HITS.load(Ordering::Relaxed), MISSES.load(Ordering::Relaxed))
}

/// Zeroes the hit/miss counters (test isolation).
pub fn reset_stats() {
    HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

/// Drops every pooled buffer.
pub fn clear() {
    let mut pool = match POOL.lock() {
        Ok(pool) => pool,
        Err(poisoned) => poisoned.into_inner(),
    };
    *pool = Pool::new();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buffers_are_reused_and_take_zeroed_zeroes() {
        // A private pool: the global pool and the hit counter are shared
        // with every test running beside this one.
        std::thread::spawn(|| {
            let _guard = LocalArena::install();
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
        })
        .join()
        .unwrap();
    }

    #[test]
    fn empty_requests_do_not_borrow_a_pooled_buffer() {
        std::thread::spawn(|| {
            let _guard = LocalArena::install();
            drop(take(100));
            let empty = take(0);
            let empty_zeroed = take_zeroed(0);
            assert_eq!(empty.buf.capacity(), 0);
            assert_eq!(empty_zeroed.buf.capacity(), 0);
            let pooled = LOCAL.with(|l| l.borrow().as_ref().map(|p| p.count));
            assert_eq!(
                pooled,
                Some(1),
                "an empty request must leave the pool alone"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn oversized_requests_still_work() {
        let s = take(10);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn local_arena_isolates_a_thread_from_the_global_pool() {
        std::thread::spawn(|| {
            // Sentinel capacity no other test uses, so presence in the
            // global pool is attributable to this thread alone.
            const LEN: usize = 7_777_777;
            let guard = LocalArena::install();
            {
                let mut a = take(LEN);
                a[0] = 1.0;
            } // recycled into the thread-local pool, not the global one
            let in_global = {
                let pool = POOL.lock().unwrap_or_else(|p| p.into_inner());
                pool.slots.iter().any(|s| s.buf.capacity() == LEN)
            };
            assert!(!in_global, "local drop must not reach the global pool");
            // The local pool holds the recycled buffer until the guard dies.
            let held = LOCAL.with(|l| l.borrow().as_ref().map(|p| p.count));
            assert_eq!(held, Some(1));
            drop(guard);
            let held = LOCAL.with(|l| l.borrow().as_ref().map(|p| p.count));
            assert_eq!(held, None, "dropping the guard frees the local pool");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn local_arena_reuses_buffers_within_the_thread() {
        std::thread::spawn(|| {
            let _guard = LocalArena::install();
            drop(take(4096));
            let pooled = LOCAL.with(|l| l.borrow().as_ref().map(|p| p.count));
            assert_eq!(pooled, Some(1));
            let s = take(4096); // must be served by the local free list
            assert_eq!(s.len(), 4096);
            let pooled = LOCAL.with(|l| l.borrow().as_ref().map(|p| p.count));
            assert_eq!(pooled, Some(0), "take must have consumed the local buffer");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn concurrent_local_arenas_do_not_interfere() {
        let handles: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    let _guard = LocalArena::install();
                    for round in 0..50 {
                        let len = 128 + 64 * t + round;
                        let mut s = take(len);
                        s[0] = t as f32;
                        s[len - 1] = round as f32;
                        assert_eq!(s.len(), len);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "already has a LocalArena")]
    fn nested_local_arena_install_panics() {
        let _a = LocalArena::install();
        let _b = LocalArena::install();
    }

    #[test]
    fn pool_respects_the_total_byte_budget() {
        clear();
        // Drop budget-sized buffers until the total cap must reject one.
        let each = MAX_POOLED_LEN / 2;
        let fits = MAX_POOLED_TOTAL / each;
        for _ in 0..fits + 3 {
            drop(Scratch {
                buf: Vec::with_capacity(each),
            });
        }
        let (pooled, total) = {
            let pool = POOL.lock().unwrap_or_else(|p| p.into_inner());
            (
                pool.slots.iter().map(|s| s.buf.capacity()).sum::<usize>(),
                pool.total,
            )
        };
        assert!(
            pooled <= MAX_POOLED_TOTAL,
            "pool holds {pooled} elements, budget is {MAX_POOLED_TOTAL}"
        );
        assert_eq!(pooled, total, "running total must track actual capacity");
        clear();
    }

    /// The free list as a linear walk for the smallest fitting capacity:
    /// the oracle the capacity-ordered [`Pool`] must match decision for
    /// decision.
    struct ScanPool {
        bufs: Vec<Vec<f32>>,
        total: usize,
    }

    impl ScanPool {
        fn pop_best_fit(&mut self, len: usize) -> Option<Vec<f32>> {
            let mut best: Option<(usize, usize)> = None;
            for (i, b) in self.bufs.iter().enumerate() {
                let fits = b.capacity() >= len && b.capacity() <= 2 * len + MAX_FIT_SLACK;
                if fits && best.is_none_or(|(_, cap)| b.capacity() < cap) {
                    best = Some((i, b.capacity()));
                }
            }
            best.map(|(i, cap)| {
                self.total -= cap;
                self.bufs.swap_remove(i)
            })
        }

        fn adopt(&mut self, buf: Vec<f32>) {
            if self.bufs.len() < MAX_POOLED && self.total + buf.capacity() <= MAX_POOLED_TOTAL {
                self.total += buf.capacity();
                self.bufs.push(buf);
            }
        }
    }

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
        count_cap_frees: usize,
        byte_cap_frees: usize,
        byte_cap_filled: usize,
    }

    impl Twin {
        /// Both pools' capacities, ascending; the ordered pool's read off
        /// its chains, checking each entry holds only its own capacity.
        fn capacities(&self) -> (Vec<usize>, Vec<usize>) {
            let mut ordered = Vec::new();
            for &(cap, head) in &self.pool.caps {
                assert_ne!(head, END, "capacity {cap} outlived its last buffer");
                let mut slot = head;
                while slot != END {
                    assert_eq!(self.pool.slots[slot].buf.capacity(), cap);
                    ordered.push(cap);
                    slot = self.pool.slots[slot].next;
                }
            }
            let mut scanned: Vec<usize> = self.scan.bufs.iter().map(Vec::capacity).collect();
            scanned.sort_unstable();
            (ordered, scanned)
        }

        /// Both pools must hold the same capacities and the same totals,
        /// and the ordered one must keep its own books.
        fn assert_in_step(&self) {
            let (ordered, scanned) = self.capacities();
            assert_eq!(ordered, scanned, "pooled capacities diverged");
            assert_eq!(self.pool.total, self.scan.total);
            assert_eq!(self.pool.total, ordered.iter().sum::<usize>());
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
            let (_, held) = self.capacities();
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

        /// Offers a buffer of capacity `cap` to both pools.
        fn adopt(&mut self, pair: (Vec<f32>, Vec<f32>), seen: &mut Seen) {
            let cap = pair.0.capacity();
            assert_eq!(cap, pair.1.capacity());
            let count_full = self.scan.bufs.len() >= MAX_POOLED;
            let bytes_full = self.scan.total + cap > MAX_POOLED_TOTAL;
            let before = (self.pool.count, self.scan.bufs.len());
            self.pool.adopt(pair.0);
            self.scan.adopt(pair.1);
            let adopted = (self.pool.count > before.0, self.scan.bufs.len() > before.1);
            assert_eq!(adopted.0, adopted.1, "adopt-or-free of capacity {cap}");
            seen.count_cap_frees += usize::from(count_full);
            seen.byte_cap_frees += usize::from(bytes_full && !count_full);
            seen.byte_cap_filled += usize::from(self.scan.total == MAX_POOLED_TOTAL);
        }
    }

    /// A length from one of the size classes the policy treats
    /// differently: tiny (many equal capacities, and 0), either side of
    /// [`MAX_FIT_SLACK`], medium, and large enough to reach the byte cap.
    fn draw_len(rng: &mut TestRng) -> usize {
        match (0u8..4).generate(rng) {
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
                },
                out: Vec::new(),
            };
            // Tenths of the operations that offer a fresh buffer: from a
            // draining pool to one that fills past both caps.
            let fresh = (2..8u8).generate(&mut rng);
            // Half the sequences probe the byte cap's edge; the rest leave
            // room to reach the count cap.
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
                        _ => draw_len(&mut rng),
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
                            twin.scan.bufs[(0..n).generate(&mut rng)].capacity(),
                            &mut rng,
                        ),
                        _ => draw_len(&mut rng),
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
            seen.count_cap_frees,
            seen.byte_cap_frees,
            seen.byte_cap_filled,
        ];
        assert!(
            reached.iter().all(|&n| n > 0),
            "a policy case went untested: {seen:?}"
        );
    }
}
