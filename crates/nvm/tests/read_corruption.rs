//! Injected read corruption at the device's own read site.
//!
//! The corruption plan is process-global and `nvm.read` is the site every
//! region read in the process passes through, so whichever thread reads
//! first consumes an armed hit. This file arms that site, and is therefore
//! a test binary — a process — of its own: in the crate's unit-test binary
//! a neighbouring test reading a region took the hit about one run in 70.
//! Keep it to the one test.

use hdnh_nvm::fault::{arm_corruption, disarm_corruption};
use hdnh_nvm::{CorruptionKind, CorruptionPlan, NvmOptions, NvmRegion};

#[test]
fn injected_read_corruption_falsifies_one_read_only() {
    let r = NvmRegion::new(256, NvmOptions::fast());
    r.write_bytes(0, &[0x55; 32]);
    arm_corruption(CorruptionPlan {
        site: "nvm.read".into(),
        hit: 1,
        kind: CorruptionKind::BitFlip,
        mask: 0x80,
        seed: 3,
    });
    let mut first = [0u8; 32];
    r.read_into(0, &mut first);
    let mut second = [0u8; 32];
    r.read_into(0, &mut second);
    let _ = disarm_corruption();
    assert_ne!(first, [0x55; 32], "first read must come back damaged");
    assert_eq!(second, [0x55; 32], "media itself is intact");
}
