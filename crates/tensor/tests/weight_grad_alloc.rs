//! Pins that a warm weight gradient makes no heap allocation: its staged
//! input, `dy` panels, running sums and reduction list are all arena
//! scratch, and its reduction blocks are worked out on demand.
//!
//! This binary's allocator counts requests per thread, so the counts
//! below see only the call under test, and the arena's pools are per
//! thread, so no other test takes the warm call's pooled buffers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mbs_tensor::ops::{direct, kernel, Conv2dCfg, Exec};
use mbs_tensor::prec::Precision;
use mbs_tensor::Tensor;

struct Counting;

thread_local! {
    static REQUESTS: Cell<u64> = const { Cell::new(0) };
}

fn requests() -> u64 {
    REQUESTS.with(Cell::get)
}

fn record() {
    REQUESTS.with(|r| r.set(r.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only extra
// work is a store to a const-initialised, destructor-free thread local,
// which neither allocates nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record();
        // SAFETY: the caller upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record();
        // SAFETY: the caller upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

fn seeded(shape: &[usize], salt: usize) -> Tensor {
    let len: usize = shape.iter().product();
    let data = (0..len).map(|v| ((v * 31 + salt * 17) % 29) as f32 / 7.0 - 2.0);
    Tensor::from_vec(shape, data.collect())
}

/// A 3×3 conv whose channels leave a narrow last `dy` panel, a strided
/// 1×1 one, and a 1×1 one whose `dy` panel passes the cache budget, so
/// its reduction runs in pixel blocks with carried running sums; on every
/// tier, at f32 and bf16.
#[test]
fn warm_weight_gradient_makes_no_heap_allocation() {
    let shapes = [
        ([2, 3, 9, 9], 53, Conv2dCfg::square(3, 1, 1)),
        ([3, 5, 8, 8], 9, Conv2dCfg::square(1, 2, 0)),
        ([1, 2, 64, 64], 48, Conv2dCfg::square(1, 1, 0)),
    ];
    for kern in kernel::available() {
        for precision in [Precision::F32, Precision::Bf16] {
            let e = Exec {
                kernel: kern,
                threads: 1,
                precision,
            };
            for (x_shape, co, cfg) in shapes {
                let x = seeded(&x_shape, 1);
                let (ho, wo) = cfg.out_extent(x_shape[2], x_shape[3]);
                let dy = seeded(&[x_shape[0], co, ho, wo], 2);
                let mut grad = Tensor::zeros(&[co, x_shape[1], cfg.kernel_h, cfg.kernel_w]);
                direct::backward_weights_into(&x, &dy, cfg, &mut grad, e);
                let before = requests();
                direct::backward_weights_into(&x, &dy, cfg, &mut grad, e);
                assert_eq!(
                    requests(),
                    before,
                    "{} {precision:?} {x_shape:?} co {co} {cfg:?}: a warm weight gradient allocated",
                    kern.name
                );
            }
        }
    }
}
