//! The process-wide fan-out count. Its one test has this binary to itself,
//! so no other test's fan-out runs beside it and the count is exact.

use std::panic::{catch_unwind, AssertUnwindSafe};
use tpnr_par::{fanouts_running, Pool};

#[test]
fn the_fanout_count_returns_to_zero_after_a_panicking_fanout() {
    assert_eq!(fanouts_running(), 0);
    for workers in [1, 3] {
        let pool = Pool::new(workers);
        assert_eq!(pool.run_indexed(4, |_| fanouts_running()), [1; 4], "{workers} workers");
        assert_eq!(fanouts_running(), 0, "{workers} workers");
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run_indexed(4, |i| if i == 2 { panic!("boom at 2") } else { i })
        }));
        assert!(caught.is_err(), "the closure's panic reaches the caller");
        assert_eq!(fanouts_running(), 0, "{workers} workers, after the panic");
    }
    // A fan-out with nothing to map runs nothing and is not counted.
    assert!(Pool::new(2).run_indexed(0, |_| fanouts_running()).is_empty());
    assert_eq!(fanouts_running(), 0);
}
