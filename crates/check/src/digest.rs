//! Deterministic state digests.
//!
//! A digest is FNV-1a-64 over the canonical single-line JSON encoding of a
//! snapshot (see [`crate::codec`]), streamed into the hash as the encoder
//! produces it: no tree and no line buffer are built. Because the encoder
//! emits object members in a fixed order and integers in a fixed decimal
//! form, equal snapshots always produce equal digests, and the digest of a
//! restored-and-replayed system can be compared against the live system
//! byte-for-byte — the core assertion of crash-point testing.

use contig_fleet::FleetSnapshot;
use contig_mm::SystemSnapshot;
use contig_types::Fnv1a64;
use contig_virt::VmSnapshot;

use crate::codec::{write_fleet, write_system, write_vm};
use crate::json::Writer;

// The canonical FNV-1a-64 implementation lives in `contig-types` (it also
// checksums migration transport frames in `contig-virt`); re-exported here so
// existing `contig_check::fnv1a64` callers keep working.
pub use contig_types::fnv1a64;

/// FNV-1a-64 of the bytes `body` writes, hashed as they are produced.
fn streamed(body: impl FnOnce(&mut Writer<Fnv1a64>)) -> u64 {
    let mut w = Writer::new(Fnv1a64::new());
    body(&mut w);
    w.finish().finish()
}

/// Digest of one [`System`](contig_mm::System) image.
pub fn digest_system(snap: &SystemSnapshot) -> u64 {
    streamed(|w| write_system(w, snap))
}

/// Digest of a whole two-dimensional [`VirtualMachine`](contig_virt::VirtualMachine) image.
pub fn digest_vm(snap: &VmSnapshot) -> u64 {
    streamed(|w| write_vm(w, snap))
}

/// Digest of a whole multi-tenant [`Fleet`](contig_fleet::Fleet) image —
/// every host system, every tenant guest, the sharing registries, balloons,
/// content tags, stats, and RNG state.
pub fn digest_fleet(snap: &FleetSnapshot) -> u64 {
    streamed(|w| write_fleet(w, snap))
}

/// Folds per-shard digests into one, hashing each digest's 8 little-endian
/// bytes in slice order. Callers must present shards in canonical (shard-id)
/// order; given that, the fold is independent of which worker produced which
/// digest when — the property that lets a sharded engine run keep the
/// 1-vs-N-worker bit-identical determinism guarantee.
pub fn fold_digests(digests: &[u64]) -> u64 {
    let mut bytes = Vec::with_capacity(digests.len() * 8);
    for d in digests {
        bytes.extend_from_slice(&d.to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn digest_is_sensitive_to_single_bit() {
        assert_ne!(fnv1a64(b"state-a"), fnv1a64(b"state-b"));
    }

    #[test]
    fn fleet_digest_hashes_exactly_the_fleet_line() {
        use contig_fleet::{Fleet, FleetConfig};

        let mut fleet = Fleet::new(FleetConfig::new(2, 32, 8));
        for t in 0..4 {
            let id = fleet.admit().unwrap();
            for page in 0..6 {
                // Shared tags give KSM something to merge.
                fleet.tenant_write(id, page, page % 3 + t % 2).unwrap();
            }
        }
        fleet.ksm_scan_host(0);
        fleet.step();
        let snap = fleet.snapshot();
        let line = crate::fleet_to_line(&snap);
        assert_eq!(digest_fleet(&snap), fnv1a64(line.as_bytes()));
        assert!(crate::json::parse(&line).is_ok(), "the fleet line is valid JSON");
    }

    #[test]
    fn fold_digests_is_order_sensitive_and_canonical() {
        let a = fold_digests(&[1, 2, 3]);
        let b = fold_digests(&[3, 2, 1]);
        assert_ne!(a, b, "shard order must matter");
        assert_eq!(a, fold_digests(&[1, 2, 3]), "same shards, same fold");
        // The fold is exactly FNV-1a over the concatenated LE bytes.
        let mut bytes = Vec::new();
        for d in [1u64, 2, 3] {
            bytes.extend_from_slice(&d.to_le_bytes());
        }
        assert_eq!(a, fnv1a64(&bytes));
        assert_eq!(fold_digests(&[]), fnv1a64(b""));
    }
}
