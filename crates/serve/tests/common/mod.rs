//! Helpers shared by the serve integration tests.

use std::time::{Duration, Instant};

/// Poll `done` every millisecond until it holds; fails the test after
/// ten seconds.
pub(crate) fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}
