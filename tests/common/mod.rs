//! Helpers shared by the golden suites (`mod common;`).

/// 64-bit FNV-1a over a rendered report: the digest the suites pin so a
/// byte of `format!("{report:?}")` cannot move unnoticed.
pub fn fnv64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
