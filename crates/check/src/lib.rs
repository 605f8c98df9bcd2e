//! Crash-consistent snapshots, state digests, and the differential torture
//! harness for the contiguity-aware memory stack.
//!
//! This crate closes the robustness loop the rest of the workspace opens:
//! `contig-mm`/`contig-virt`/`contig-buddy`/`contig-tlb` export plain-data
//! snapshot types and exact `restore` constructors; this crate gives them
//!
//! - a **versioned JSONL codec** ([`codec`]) with a hand-rolled,
//!   dependency-free JSON model ([`json`]) whose canonical encoding is safe
//!   to hash,
//! - **FNV-1a-64 state digests** ([`digest`]) so "recovered exactly" is a
//!   single integer comparison,
//! - a **seeded torture runner** ([`torture`]) that drives the whole
//!   two-dimensional stack against a flat oracle, audits cross-layer
//!   invariants, and simulates crashes at op boundaries (restore last
//!   checkpoint, replay the journal, require digest equality),
//! - a **ddmin minimizer** ([`minimize()`]) plus a replayable JSONL repro
//!   format ([`replay`]) so a CI failure shrinks to a few ops anyone can
//!   re-run with the `torture_replay` binary.
//!
//! # Examples
//!
//! ```
//! use contig_check::{run_torture, TortureConfig};
//!
//! let report = run_torture(&TortureConfig::with_seed_and_ops(1, 200));
//! assert!(report.is_ok(), "{:?}", report.failure);
//! assert!(report.touches > 0);
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod digest;
pub mod json;
pub mod minimize;
pub mod replay;
pub mod torture;

pub use codec::{
    decode_vm_file, encode_vm_file, fleet_to_line, read_vm_file, system_from_json, system_to_line,
    tlb_from_json, tlb_to_line, vm_from_json, vm_to_line, write_vm_file, SnapshotGuestCodec,
    SNAPSHOT_FORMAT, SNAPSHOT_MIN_VERSION, SNAPSHOT_VERSION,
};
pub use digest::{digest_fleet, digest_system, digest_vm, fnv1a64, fold_digests};
pub use json::Json;
pub use minimize::{minimize, Minimized};
pub use replay::{decode_repro, encode_repro, read_repro, write_repro, REPRO_FORMAT, REPRO_VERSION};
pub use torture::{
    generate_ops, run_ops, run_torture, TortureConfig, TortureFailure, TortureOp, TortureReport,
};

#[cfg(test)]
mod tests {
    use super::*;
    use contig_mm::{DefaultThpPolicy, VmaKind};
    use contig_types::{VirtAddr, VirtRange};
    use contig_virt::{VirtualMachine, VmConfig};

    fn fresh_vm() -> VirtualMachine {
        VirtualMachine::new(
            VmConfig::with_mib(16, 64),
            Box::new(DefaultThpPolicy),
            Box::new(DefaultThpPolicy),
        )
    }

    /// A VM with populated anonymous, file, and COW state in both dims.
    fn populated_vm() -> VirtualMachine {
        let mut vm = fresh_vm();
        let pid = vm.guest_mut().spawn();
        let vma = vm
            .guest_mut()
            .aspace_mut(pid)
            .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), 0x40_0000), VmaKind::Anon);
        vm.populate_vma(pid, vma).unwrap();
        let file = vm.guest_mut().page_cache_mut().create_file();
        vm.guest_mut().aspace_mut(pid).map_vma(
            VirtRange::new(VirtAddr::new(0x5000_0000), 0x10_0000),
            VmaKind::File { file, start_page: 0 },
        );
        vm.touch(pid, VirtAddr::new(0x5000_0000)).unwrap();
        let child = vm.guest_mut().fork_vma(pid, vma);
        vm.touch_write(child, VirtAddr::new(0x4000_0000)).unwrap();
        vm
    }

    #[test]
    fn vm_snapshot_survives_the_jsonl_codec_exactly() {
        let vm = populated_vm();
        let snap = vm.snapshot();
        let decoded = decode_vm_file(&encode_vm_file(&snap)).unwrap();
        assert_eq!(decoded, snap);
        // Digest is a pure function of state: same through the codec.
        assert_eq!(digest_vm(&decoded), digest_vm(&snap));
    }

    #[test]
    fn restored_snapshot_passes_the_auditor() {
        let vm = populated_vm();
        let snap = vm.snapshot();
        let mut recovered = fresh_vm();
        recovered.restore(&snap);
        let report = contig_audit::audit_vm(&recovered);
        assert!(report.is_clean(), "{report}");
        assert_eq!(digest_vm(&recovered.snapshot()), digest_vm(&snap));
    }

    #[test]
    fn tlb_snapshot_survives_its_line_encoding() {
        use contig_tlb::{TlbConfig, TlbHierarchy};
        use contig_types::PageSize;

        let mut tlb = TlbHierarchy::new(TlbConfig::default());
        for i in 0..200u64 {
            let va = VirtAddr::new(0x4000_0000 + i * 0x3000);
            if tlb.lookup(va) == contig_tlb::TlbHit::Miss {
                tlb.fill(va, if i % 7 == 0 { PageSize::Huge2M } else { PageSize::Base4K });
            }
        }
        let snap = tlb.snapshot();
        let line = tlb_to_line(&snap);
        assert_eq!(tlb_from_json(&json::parse(&line).unwrap()).unwrap(), snap);
    }

    #[test]
    fn codec_detects_corruption() {
        let snap = populated_vm().snapshot();
        let text = encode_vm_file(&snap);
        // Flip one digit inside the payload line: digest check must trip.
        let corrupted = {
            let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
            lines[1] = lines[1].replacen("\"now_ns\":", "\"now_ns\":1", 1);
            lines.join("\n")
        };
        let err = decode_vm_file(&corrupted).unwrap_err();
        assert!(err.contains("digest mismatch"), "{err}");
    }
}
