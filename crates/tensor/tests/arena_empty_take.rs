//! An empty request neither borrows a pooled buffer nor counts as a hit
//! or a miss. Its own test binary, so the process-global pool and
//! counters see no other test.

use mbs_tensor::arena;

#[test]
fn empty_requests_touch_neither_the_pool_nor_the_counters() {
    let pooled = {
        let a = arena::take(100);
        a.as_ptr()
    }; // the pool now holds one buffer
    arena::reset_stats();
    assert_eq!(arena::take(0).len(), 0);
    assert_eq!(arena::take_zeroed(0).len(), 0);
    assert_eq!(
        arena::stats(),
        (0, 0),
        "an empty request is neither hit nor miss"
    );
    let b = arena::take(100);
    assert_eq!(b.as_ptr(), pooled, "the pooled buffer must still be there");
    assert_eq!(arena::stats(), (1, 0));
}
