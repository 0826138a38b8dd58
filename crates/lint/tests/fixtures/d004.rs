//! D004 fixture: raw threading primitives outside the worker pool,
//! banned by `disallowed-methods` in the root clippy.toml. Clippy must
//! flag exactly the lines marked VIOLATION.

use std::sync::mpsc;

pub fn fan_out() {
    let handle = std::thread::spawn(|| 1); // VIOLATION
    std::thread::scope(|_| {}); // VIOLATION
    let b = std::thread::Builder::new(); // VIOLATION
    let (tx, rx) = mpsc::channel::<u32>(); // VIOLATION
    let bounded = mpsc::sync_channel::<u32>(1); // VIOLATION
    #[expect(
        clippy::disallowed_methods,
        reason = "fixture demonstrating a vouched spawn"
    )]
    let vouched = std::thread::spawn(|| 2);
    let _ = (handle, b, tx, rx, bounded, vouched);
    // Not a finding: sleep is no fan-out.
    std::thread::sleep(std::time::Duration::from_millis(1));
    let _ = "thread::spawn in a string never fires";
}
