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

/// The free list plus a running capacity total, so the byte-budget check
/// in `Scratch::drop` is O(1) instead of a sum over the pool inside the
/// global mutex (every `Tensor` drop takes this lock).
struct Pool {
    bufs: Vec<Vec<f32>>,
    /// Invariant: `total == bufs.iter().map(Vec::capacity).sum()`.
    total: usize,
}

impl Pool {
    /// Pops the smallest pooled buffer with capacity ≥ `len`, if any —
    /// but never one more than twice the request (plus
    /// [`MAX_FIT_SLACK`]): a long-lived tensor settled in a buffer several
    /// times its size wastes the difference for its whole life, and the
    /// next request of the big size misses (on `train_dram_resnet` the
    /// bound took peak RSS from 683 to 431 MiB). A steady state repeats
    /// its sizes exactly, so the bound costs it no hit.
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

    /// Adopts `buf` if the count and byte caps allow; otherwise frees it.
    fn adopt(&mut self, buf: Vec<f32>) {
        if self.bufs.len() < MAX_POOLED && self.total + buf.capacity() <= MAX_POOLED_TOTAL {
            self.total += buf.capacity();
            self.bufs.push(buf);
        }
    }
}

static POOL: Mutex<Pool> = Mutex::new(Pool {
    bufs: Vec::new(),
    total: 0,
});
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
            *slot = Some(Pool {
                bufs: Vec::new(),
                total: 0,
            });
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
fn reuse(len: usize) -> Option<Vec<f32>> {
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
    pool.bufs.clear();
    pool.total = 0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_reused_and_take_zeroed_zeroes() {
        clear();
        reset_stats();
        {
            let mut a = take(1000);
            a[0] = 7.0;
            a[999] = 3.0;
        } // recycled here
        let b = take_zeroed(500);
        assert!(
            b.iter().all(|&v| v == 0.0),
            "take_zeroed must clear reused contents"
        );
        assert_eq!(b.len(), 500);
        let (hits, _) = stats();
        assert!(hits >= 1, "second take should reuse the pooled buffer");
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
                pool.bufs.iter().any(|b| b.capacity() == LEN)
            };
            assert!(!in_global, "local drop must not reach the global pool");
            // The local pool holds the recycled buffer until the guard dies.
            let held = LOCAL.with(|l| l.borrow().as_ref().map(|p| p.bufs.len()));
            assert_eq!(held, Some(1));
            drop(guard);
            let held = LOCAL.with(|l| l.borrow().as_ref().map(|p| p.bufs.len()));
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
            let pooled = LOCAL.with(|l| l.borrow().as_ref().map(|p| p.bufs.len()));
            assert_eq!(pooled, Some(1));
            let s = take(4096); // must be served by the local free list
            assert_eq!(s.len(), 4096);
            let pooled = LOCAL.with(|l| l.borrow().as_ref().map(|p| p.bufs.len()));
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
                pool.bufs.iter().map(Vec::capacity).sum::<usize>(),
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
}
