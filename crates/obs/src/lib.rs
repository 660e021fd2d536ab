//! Correlation layer over the FedProxVR `--obs` stream.
//!
//! A run writes one JSONL stream: the run-ledger header, every raw
//! event (spans, health samples, participation, device legs, bytes,
//! round ends) and the aggregate tail. This crate joins its events:
//!
//! * [`ledger`] — the versioned [`RunLedger`] header that leads every
//!   stream from `TraceSession` start. Two files can be provably
//!   joined (same config digest, seed, kernel, feature set) or refused.
//! * [`timeline`] — per-round per-device timelines reconstructed on the
//!   virtual clock from `DeviceRound` / `Bytes` / `RoundEnd` /
//!   `Participation` events, with the gating device and its
//!   comm-vs-compute split per the paper's eq. (19) time model
//!   `T·(d_com + d_cmp·τ)`, and cumulative gating attribution.
//! * [`postmortem`] — the correlated bundle around a flight-recorder
//!   marker (`non_finite` / `loss_guard` / `quorum_skip`): the last-K
//!   event window, the ledger, and a timeline excerpt.
//!
//! Everything here consumes *simulation observations*, which are
//! bitwise-reproducible across same-seed runs; the `fedobs` binary
//! renders the same facts as tables or machine-checkable `fedobs/v1`
//! JSON.
//!
//! [`RunLedger`]: ledger::RunLedger

pub mod ledger;
pub mod postmortem;
pub mod timeline;

pub use ledger::RunLedger;
pub use postmortem::PostmortemBundle;
pub use timeline::Timeline;

/// FNV-1a 64-bit digest, rendered as fixed-width lowercase hex. The
/// run ledger digests canonical config / fault-plan descriptions with
/// it: stable across platforms, dependency-free, and cheap enough to
/// stamp on every run.
pub fn fnv64(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::fnv64;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Offset basis for the empty string; classic FNV-1a vectors.
        assert_eq!(fnv64(""), "cbf29ce484222325");
        assert_eq!(fnv64("a"), "af63dc4c8601ec8c");
        assert_eq!(fnv64("foobar"), "85944171f73967e8");
    }

    #[test]
    fn fnv64_is_stable_and_distinguishes() {
        assert_eq!(fnv64("rounds=10"), fnv64("rounds=10"));
        assert_ne!(fnv64("rounds=10"), fnv64("rounds=11"));
    }
}
