//! A probing global allocator for the test binaries that pin allocation
//! behaviour: the system allocator, recording per *thread* how many
//! requests it saw and the largest one. Per thread, so concurrently
//! running tests — and a library's own background threads — never show
//! up in each other's numbers.
//!
//! A binary opts in with
//! `#[global_allocator] static ALLOC: common::Probe = common::Probe;`.
//! [`mutate`] builds the file-decoder mutation harness on it.

#![allow(dead_code)] // each binary reads only the counter it pins

pub mod mutate;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

pub struct Probe;

thread_local! {
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn record(size: usize) {
    REQUESTS.with(|r| r.set(r.get() + 1));
    LARGEST.with(|l| l.set(l.get().max(size)));
}

/// Allocation requests this thread has made so far.
pub fn requests() -> u64 {
    REQUESTS.with(Cell::get)
}

/// Forgets this thread's largest request.
pub fn reset_largest() {
    LARGEST.with(|l| l.set(0));
}

/// This thread's largest request, in bytes, since the last reset.
pub fn largest() -> usize {
    LARGEST.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`; the only extra
// work is a store to const-initialised, destructor-free thread locals,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Probe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
