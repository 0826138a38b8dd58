//! D002 fixture: wall-clock reads, banned by `disallowed-types` in the
//! root clippy.toml. Clippy must flag exactly the lines marked VIOLATION.

use std::time::Instant; // VIOLATION

pub fn measure() -> u64 {
    let started = Instant::now(); // VIOLATION
    let _stamp = std::time::SystemTime::now(); // VIOLATION
    #[expect(
        clippy::disallowed_types,
        reason = "a vouched host-time read"
    )]
    let vouched = Instant::now();
    let _ = (started, vouched);
    // Instant in a comment is fine; "SystemTime" in a string is fine.
    let _ = "SystemTime";
    0
}
