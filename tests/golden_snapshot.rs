//! Backward-compatibility guard for the snapshot format: a version-1
//! snapshot file (predating the per-zone `pcp` member), a version-2 file
//! (predating the hwpoison sections), a version-3 file (predating the
//! balloon/KSM members), a version-4 file (predating the NUMA topology
//! members), and a version-5 file (predating the maintenance-daemon state)
//! are checked into `tests/golden/` and must keep decoding forever; the
//! current-format golden lives in `tests/golden/snapshot_v6.jsonl` and pins
//! encoder determinism. Format changes that would orphan existing snapshot
//! files fail here; a deliberate format bump must keep decoding old
//! versions (or regenerate the current golden *and* bump
//! `SNAPSHOT_VERSION`).

use std::collections::BTreeMap;
use std::path::PathBuf;

use contig::check::json::parse;
use contig::check::{
    decode_vm_file, digest_system, digest_vm, encode_vm_file, fnv1a64, vm_to_line, Json,
    SnapshotGuestCodec,
};
use contig::prelude::*;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden").join(name)
}

/// The fixed workload behind the golden files: two processes, an anonymous
/// VMA with huge and base mappings, a page-cache-backed file VMA, a COW
/// fork, and one armed fault injector — every snapshot section populated.
/// Deliberately pcp-free so the identical workload stands behind both the
/// v1 and v2 fixtures.
fn golden_vm_with(config: VmConfig) -> VirtualMachine {
    let mut vm = VirtualMachine::new(
        config,
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    let pid = vm.guest_mut().spawn();
    let anon = vm
        .guest_mut()
        .aspace_mut(pid)
        .map_vma(VirtRange::new(VirtAddr::new(0x4000_0000), 4 << 20), VmaKind::Anon);
    vm.populate_vma(pid, anon).expect("populate");
    let file = vm.guest_mut().page_cache_mut().create_file();
    vm.guest_mut().aspace_mut(pid).map_vma(
        VirtRange::new(VirtAddr::new(0x5000_0000), 1 << 20),
        VmaKind::File { file, start_page: 0 },
    );
    vm.touch(pid, VirtAddr::new(0x5000_0000)).expect("file touch");
    let child = vm.guest_mut().fork_vma(pid, anon);
    vm.touch_write(child, VirtAddr::new(0x4000_0000)).expect("cow write");
    vm.guest_mut().set_fail_policy(contig_types::FailPolicy::new(
        contig_types::FailMode::Probability { rate_ppm: 5_000, seed: 99 },
    ));
    vm
}

/// The version-3 golden workload: the v1/v2 fixture plus hwpoison activity,
/// so every new section of the format — per-zone badframe lists, quarantine
/// counters, the seeded poison policy, and the recovery stats — is populated
/// with non-default values in the checked-in file.
fn golden_vm_v3_with(config: VmConfig) -> VirtualMachine {
    let mut vm = golden_vm_with(config);
    // A healed host-side strike on a frame backing guest memory, plus a
    // guest-side strike and a soft-offline: exercises quarantine on both
    // dimensions deterministically (no RNG involved).
    // The child's page at the fork base is a private post-COW copy (the
    // parent's pages still carry the COW flag and would be killed, not
    // healed), so the strike exercises the migrate-and-heal path.
    let child = Pid(2);
    let gframe = vm
        .guest()
        .aspace(child)
        .page_table()
        .translate(VirtAddr::new(0x4000_0000))
        .expect("cow copy mapped")
        .frame_for(VirtAddr::new(0x4000_0000));
    let hpa = vm
        .host_frame_of(PhysAddr::new(gframe.raw() * 4096))
        .expect("guest frame is host-backed");
    vm.poison_host_frame(hpa);
    vm.guest_mut().memory_failure(gframe);
    let next = vm
        .guest()
        .aspace(child)
        .page_table()
        .translate(VirtAddr::new(0x4000_0000))
        .expect("healed")
        .frame_for(VirtAddr::new(0x4000_0000));
    vm.guest_mut().soft_offline(next);
    vm.guest_mut().set_poison_policy(PoisonPolicy::new(PoisonMode::Probability {
        rate_ppm: 2_500,
        seed: 2020,
    }));
    vm
}

/// The balloon + KSM tail introduced by the version-4 workload (the v3
/// fixture re-run with THP disabled on both dimensions — KSM merges only
/// 4 KiB host leaves — so the ballooned-frame list and the host-frame
/// sharing registry carry non-default values), retained verbatim by v5.
fn balloon_and_ksm(vm: &mut VirtualMachine) {
    let claimed = vm.balloon_inflate(8);
    assert!(claimed > 0, "fixture must balloon at least one guest frame");
    // Declare every backed anonymous guest page content-equal; the scan
    // merges each 4 KiB-host-backed one onto a single shared frame behind
    // the COW break path (the simulator trusts the caller's tag model).
    let tags: BTreeMap<u64, u64> = vm.backed_gframes().into_iter().map(|g| (g, 1)).collect();
    let (scanned, merged) = vm.ksm_scan(&tags);
    assert!(
        scanned > 0 && merged > 0,
        "fixture must KSM-merge ({scanned} scanned, {merged} merged)"
    );
}

/// The version-5 golden workload: the v4 fixture rebuilt on a two-zone
/// guest/host topology, with both guest processes homed on different zones,
/// fresh zone-local faults, and one cross-zone page migration before the
/// balloon/KSM tail — so the new format members (per-process `home`, the
/// system `numa_stats` counters, and the multi-zone machine layout) all
/// carry non-default values in the checked-in file.
fn golden_vm_v5() -> VirtualMachine {
    let mut config = VmConfig::with_mib_nodes(16, 64, 2);
    config.guest.thp = false;
    config.host.thp = false;
    let mut vm = golden_vm_v3_with(config);
    let (parent, child) = (Pid(1), Pid(2));
    vm.guest_mut().set_home_node(parent, Some(0));
    vm.guest_mut().set_home_node(child, Some(1));
    // Fresh faults after homing populate the zone-local counters.
    vm.guest_mut()
        .aspace_mut(parent)
        .map_vma(VirtRange::new(VirtAddr::new(0x6000_0000), 64 << 10), VmaKind::Anon);
    for i in 0..4u64 {
        vm.touch(parent, VirtAddr::new(0x6000_0000 + i * 4096)).expect("homed touch");
    }
    // One cross-zone migration of the child's private post-COW copy (done
    // before the KSM tail — a merged page would refuse to migrate).
    let va = VirtAddr::new(0x4000_0000);
    let pfn = vm
        .guest()
        .aspace(child)
        .page_table()
        .translate(va)
        .expect("cow copy mapped")
        .frame_for(va);
    let from = vm.guest().machine().node_of(pfn).expect("frame owned by a zone");
    vm.guest_mut().migrate_page_to_node(child, va, 1 - from.0).expect("cross-zone migrate");
    assert_eq!(vm.guest().numa_stats().migrations, 1);
    assert!(vm.guest().numa_stats().local_allocs > 0, "homed faults must count");
    balloon_and_ksm(&mut vm);
    vm
}

/// The version-6 golden workload: the v5 fixture with the background
/// maintenance daemon enabled on both dimensions and ticked mid-epoch — so
/// the new `daemon` member carries live cursors, a partially spent budget,
/// a remembered promotion candidate (the 4-page homed window clears the
/// lowered threshold), and non-zero counters in the checked-in file.
fn golden_vm_v6() -> VirtualMachine {
    let mut vm = golden_vm_v5();
    let config = DaemonConfig {
        epoch_budget: 32,
        thp_threshold_pages: 4,
        ..DaemonConfig::default()
    };
    vm.guest_mut().enable_daemon(config);
    vm.host_mut().enable_daemon(config);
    for _ in 0..3 {
        vm.guest_mut().daemon_tick();
    }
    for _ in 0..2 {
        vm.host_mut().daemon_tick();
    }
    let daemon = vm.guest().daemon_state();
    assert!(daemon.stats.ticks > 0, "fixture daemon must have run");
    assert!(
        daemon.budget_left < config.epoch_budget || daemon.stats.epochs > 0,
        "fixture must capture mid-epoch or post-epoch daemon state"
    );
    vm
}

/// Decode a golden file, restore it, and check digest-exactness + audit.
fn check_golden(name: &str) {
    let text = std::fs::read_to_string(golden_path(name))
        .unwrap_or_else(|e| panic!("tests/golden/{name} must be checked in: {e}"));
    let snap = decode_vm_file(&text).expect("current decoder must read the golden file");

    // The header digest is re-verified by the decoder; additionally pin the
    // decoded state: restore must reproduce the digest and audit clean.
    let digest = digest_vm(&snap);
    let mut vm = VirtualMachine::new(
        VmConfig::with_mib(16, 64),
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    vm.restore(&snap);
    assert_eq!(digest_vm(&vm.snapshot()), digest, "restore must be digest-exact");
    let audit = audit_vm(&vm);
    assert!(audit.is_clean(), "restored golden system must audit clean:\n{audit}");
}

/// The streamed digests hash exactly the bytes the line encoders write:
/// `digest_vm` is the snapshot file's header digest and FNV-1a of its
/// payload line, and `digest_system` is FNV-1a of the migration codec's
/// state chunk for either dimension.
fn assert_streamed_digests_match_encodings(snap: &contig_virt::VmSnapshot) {
    let file = encode_vm_file(snap);
    let mut lines = file.lines();
    let header = parse(lines.next().expect("header line")).expect("header parses");
    let payload = lines.next().expect("payload line");
    let digest = digest_vm(snap);
    assert_eq!(header.get("digest").and_then(Json::as_u64), Some(digest));
    assert_eq!(fnv1a64(payload.as_bytes()), digest);
    assert_eq!(payload, vm_to_line(snap));
    for sys in [&snap.guest, &snap.host] {
        assert_eq!(digest_system(sys), fnv1a64(&SnapshotGuestCodec.encode(sys)));
    }
}

#[test]
fn streamed_digests_match_the_encoded_bytes_of_every_golden() {
    for version in 1..=6 {
        let name = format!("snapshot_v{version}.jsonl");
        let text = std::fs::read_to_string(golden_path(&name))
            .unwrap_or_else(|e| panic!("tests/golden/{name} must be checked in: {e}"));
        assert_streamed_digests_match_encodings(&decode_vm_file(&text).expect("golden decodes"));
    }
    assert_streamed_digests_match_encodings(&golden_vm_v6().snapshot());
}

#[test]
fn golden_v1_snapshot_still_decodes() {
    check_golden("snapshot_v1.jsonl");
}

#[test]
fn golden_v2_snapshot_still_decodes() {
    check_golden("snapshot_v2.jsonl");
}

#[test]
fn golden_v3_snapshot_still_decodes() {
    check_golden("snapshot_v3.jsonl");
}

#[test]
fn golden_v3_restores_poison_state() {
    // The poison sections must survive the round trip with their exact
    // values, not just re-default: the fixture quarantined frames on both
    // dimensions and left an armed probabilistic policy behind.
    let text = std::fs::read_to_string(golden_path("snapshot_v3.jsonl"))
        .expect("tests/golden/snapshot_v3.jsonl must be checked in");
    let snap = decode_vm_file(&text).expect("decode v3 golden");
    let mut vm = VirtualMachine::new(
        VmConfig::with_mib(16, 64),
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    vm.restore(&snap);
    assert!(vm.guest().poison_stats().strikes > 0, "guest strikes lost in round trip");
    assert!(vm.host().poison_stats().strikes > 0, "host strikes lost in round trip");
    assert!(vm.guest().machine().poisoned_frames() > 0, "guest badframes lost");
    assert!(vm.host().machine().poisoned_frames() > 0, "host badframes lost");
    assert!(vm.guest().poison_policy().is_armed(), "armed policy lost in round trip");
}

#[test]
fn golden_v4_snapshot_still_decodes() {
    check_golden("snapshot_v4.jsonl");
}

#[test]
fn golden_v4_restores_balloon_and_sharing_state() {
    // The balloon frame list and the KSM sharing registry must survive the
    // round trip with their exact values, not just re-default.
    let text = std::fs::read_to_string(golden_path("snapshot_v4.jsonl"))
        .expect("tests/golden/snapshot_v4.jsonl must be checked in");
    let snap = decode_vm_file(&text).expect("decode v4 golden");
    let mut vm = VirtualMachine::new(
        VmConfig::with_mib(16, 64),
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    vm.restore(&snap);
    assert!(!vm.ballooned_gframes().is_empty(), "balloon list lost in round trip");
    let sharing = vm.sharing_registry();
    assert!(!sharing.is_empty(), "sharing registry lost in round trip");
    for (host_frame, members) in sharing {
        assert!(
            members.len() >= 2,
            "registry record for host frame {host_frame} has {} member(s); \
             records exist only while shared",
            members.len()
        );
    }
}

#[test]
fn golden_v5_snapshot_still_decodes() {
    // Decode-only since the v6 format bump: the file's bytes are frozen;
    // the current encoder no longer reproduces them (it appends `daemon`).
    check_golden("snapshot_v5.jsonl");
}

#[test]
fn golden_v5_restores_zone_topology_and_homes() {
    // The NUMA members must survive the round trip with their exact values:
    // the two-zone machine layout, both process homes, and the placement
    // counters (local faults plus the one cross-zone migration).
    let text = std::fs::read_to_string(golden_path("snapshot_v5.jsonl"))
        .expect("tests/golden/snapshot_v5.jsonl must be checked in");
    let snap = decode_vm_file(&text).expect("decode v5 golden");
    let mut vm = VirtualMachine::new(
        VmConfig::with_mib(16, 64),
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    vm.restore(&snap);
    assert_eq!(vm.guest().machine().nodes(), 2, "zone topology lost in round trip");
    assert_eq!(vm.guest().home_node(Pid(1)), Some(0), "parent home lost");
    assert_eq!(vm.guest().home_node(Pid(2)), Some(1), "child home lost");
    let stats = vm.guest().numa_stats();
    assert!(stats.local_allocs > 0, "local-alloc counter lost in round trip");
    assert_eq!(stats.migrations, 1, "migration counter lost in round trip");
    // The fixture workload itself is reproducible on top of the restore
    // (an undecoded v5 file defaults the daemon member, as does the v5
    // workload — the snapshot structs digest identically).
    assert_eq!(digest_vm(&golden_vm_v5().snapshot()), digest_vm(&snap));
}

#[test]
fn golden_v6_snapshot_still_decodes() {
    check_golden("snapshot_v6.jsonl");
}

#[test]
fn golden_v6_restores_daemon_state() {
    // The mid-epoch daemon member must survive the round trip with its
    // exact values — live cursors, partially spent budget, the remembered
    // promotion candidate, counters — not just re-default.
    let text = std::fs::read_to_string(golden_path("snapshot_v6.jsonl"))
        .expect("tests/golden/snapshot_v6.jsonl must be checked in");
    let snap = decode_vm_file(&text).expect("decode v6 golden");
    let mut vm = VirtualMachine::new(
        VmConfig::with_mib(16, 64),
        Box::new(DefaultThpPolicy),
        Box::new(DefaultThpPolicy),
    );
    vm.restore(&snap);
    let daemon = vm.guest().daemon_state();
    assert!(daemon.enabled, "daemon arming lost in round trip");
    assert!(daemon.stats.ticks > 0, "daemon tick counter lost in round trip");
    assert_eq!(daemon.config.thp_threshold_pages, 4, "daemon policy lost in round trip");
    assert!(vm.host().daemon_state().enabled, "host daemon arming lost");
    // Restored mid-epoch state must continue bit-identically to the
    // original fixture: one more tick on each yields the same state.
    let mut fixture = golden_vm_v6();
    fixture.guest_mut().daemon_tick();
    vm.guest_mut().daemon_tick();
    assert_eq!(vm.guest().daemon_state(), fixture.guest().daemon_state());
    assert_eq!(digest_vm(&vm.snapshot()), digest_vm(&fixture.snapshot()));
}

#[test]
fn golden_workload_is_still_deterministic() {
    // The encoder applied to the fixed golden workload must reproduce the
    // checked-in bytes exactly. If this fails while the decode tests pass,
    // the format evolved compatibly — regenerate via
    // `cargo test --test golden_snapshot -- --ignored` and review the diff.
    let text = std::fs::read_to_string(golden_path("snapshot_v6.jsonl"))
        .expect("tests/golden/snapshot_v6.jsonl must be checked in");
    assert_eq!(
        encode_vm_file(&golden_vm_v6().snapshot()),
        text,
        "encoder output drifted from the golden file"
    );
}

#[test]
#[ignore = "regenerates the current-format golden fixture; run explicitly after a reviewed format change"]
fn regenerate_golden_file() {
    let path = golden_path("snapshot_v6.jsonl");
    std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir tests/golden");
    std::fs::write(&path, encode_vm_file(&golden_vm_v6().snapshot())).expect("write golden");
}
