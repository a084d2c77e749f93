//! The retired-name list, pinned **by literal name**: the nine names and
//! their order, and off-value parsing through the real process
//! environment, which is how the benchmark's provenance guard reads them.

use kfds_switches::ALL;

/// Every retired name, in `ALL`'s order.
const NAMED: &[&str] = &[
    "KFDS_SIMD",
    "KFDS_WS_POOL",
    "KFDS_CPQR",
    "KFDS_EVAL_GEMM",
    "KFDS_KNN",
    "KFDS_REFACTOR",
    "KFDS_SERVE_BATCH",
    "KFDS_SHARD",
    "KFDS_BATCH",
];

#[test]
fn every_name_is_listed_in_order_with_off_values() {
    let names: Vec<&str> = ALL.iter().map(|s| s.name).collect();
    assert_eq!(names, NAMED);
    for sw in ALL {
        assert!(!sw.off_values.is_empty(), "{} has no off-values", sw.name);
    }
}

/// Off-value parsing against the real environment, for every name.
/// Single test function: integration tests in one binary run on parallel
/// threads, and the process environment is shared state.
#[test]
fn off_values_flip_is_off_through_the_environment() {
    for sw in ALL {
        let name = sw.name;
        std::env::remove_var(name);
        assert!(!sw.is_off(), "{name}: unset is not off");
        for off in sw.off_values {
            std::env::set_var(name, off);
            assert!(sw.is_off(), "{name}={off} must read as off");
        }
        std::env::set_var(name, "definitely-not-an-off-value");
        assert!(!sw.is_off(), "{name}: unrecognized values are not off");
        std::env::remove_var(name);
    }
}
