//! Versioned JSONL snapshot codec.
//!
//! Serializes the plain-data snapshot types exported by `contig-buddy`,
//! `contig-mm`, `contig-virt`, and `contig-tlb` straight into a
//! [`Writer`] (no intermediate tree), decodes them back from the [`Json`]
//! value model, and wraps them in a two-line JSONL file format:
//!
//! ```text
//! {"format":"contig-snapshot","version":1,"digest":<fnv1a64>}
//! {<payload>}
//! ```
//!
//! The header carries a format version (decoders reject versions they do not
//! understand — the backward-compatibility contract checked by CI against a
//! committed golden file) and the digest of the payload line, so corruption
//! is detected before a restore is attempted.
//!
//! Every encoder emits object members in a fixed order; combined with the
//! integer-only number model this makes the encoding canonical, which is what
//! lets [`crate::digest`] stream the same bytes into FNV-1a without ever
//! building the line. Decoders look members up by name and treat members
//! added by later versions as optional, so older files keep decoding.

use contig_buddy::{
    MachineSnapshot, PcpCounters, PcpSnapshot, ZoneConfig, ZoneCounters, ZoneSnapshot,
};
use contig_mm::{
    CacheAllocMode, DaemonConfig, DaemonPhase, DaemonState, DaemonStats, FaultStatsSnapshot,
    FileCacheSnapshot, LatencyModel, NumaStats, PageCacheSnapshot, ProcessSnapshot,
    RecoveryConfig, RecoveryStats, SystemSnapshot, VmaSnapshot,
};
use contig_buddy::PoisonCounters;
use contig_mm::PoisonStats;
use contig_tlb::{CacheSnapshot, TlbSnapshot};
use contig_types::{FailMode, FailPolicy, Fnv1a64, Pfn, PoisonMode, PoisonPolicy};
use contig_virt::VmSnapshot;

use crate::digest::fnv1a64;
use crate::json::{parse, to_line, Json, Sink, Writer};

/// Current snapshot file format version. Version 2 added the optional
/// per-zone `pcp` member (per-CPU frame caches); version 3 added the
/// memory-failure state (per-zone `badframes` + `poison` counters, and the
/// system-level `poison_policy` + `poison_stats`); version 4 added the
/// per-VM `balloon` frame list and KSM `sharing` registry; version 5 added
/// the multi-zone NUMA topology state (per-process `home` node and the
/// system-level `numa_stats` counters); version 6 added the background
/// maintenance daemon's mid-epoch state (the system-level `daemon` member:
/// policy, scan cursors, remaining budget, promotion candidates, backoff
/// RNG, counters). Files from any older version still decode: the absent
/// members mean "no poison, no pcp, empty balloon, nothing KSM-merged, no
/// home nodes, daemon disabled".
pub const SNAPSHOT_VERSION: i128 = 6;
/// Oldest snapshot file format version this decoder still accepts.
pub const SNAPSHOT_MIN_VERSION: i128 = 1;
/// `format` tag of snapshot files.
pub const SNAPSHOT_FORMAT: &str = "contig-snapshot";

// ---------------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------------

type DecodeResult<T> = Result<T, String>;

fn field<'a>(v: &'a Json, key: &str) -> DecodeResult<&'a Json> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn get_u64(v: &Json, key: &str) -> DecodeResult<u64> {
    field(v, key)?.as_u64().ok_or_else(|| format!("field `{key}` is not a u64"))
}

fn get_u32(v: &Json, key: &str) -> DecodeResult<u32> {
    u32::try_from(get_u64(v, key)?).map_err(|_| format!("field `{key}` out of u32 range"))
}

fn get_bool(v: &Json, key: &str) -> DecodeResult<bool> {
    field(v, key)?.as_bool().ok_or_else(|| format!("field `{key}` is not a bool"))
}

fn get_arr<'a>(v: &'a Json, key: &str) -> DecodeResult<&'a [Json]> {
    field(v, key)?.as_arr().ok_or_else(|| format!("field `{key}` is not an array"))
}

fn as_u64(v: &Json, what: &str) -> DecodeResult<u64> {
    v.as_u64().ok_or_else(|| format!("{what} is not a u64"))
}

fn decode_pair_u64(v: &Json, what: &str) -> DecodeResult<(u64, u64)> {
    match v.as_arr() {
        Some([a, b]) => Ok((as_u64(a, what)?, as_u64(b, what)?)),
        _ => Err(format!("{what} is not a 2-element array")),
    }
}

// ---------------------------------------------------------------------------
// contig-types: fail injection
// ---------------------------------------------------------------------------

fn write_fail_mode<S: Sink>(w: &mut Writer<S>, mode: FailMode) {
    w.obj(|w| match mode {
        FailMode::Never => w.key("kind").str("never"),
        FailMode::Nth { n } => {
            w.key("kind").str("nth");
            w.key("n").num(n);
        }
        FailMode::EveryNth { n } => {
            w.key("kind").str("every_nth");
            w.key("n").num(n);
        }
        FailMode::MinOrder { min_order } => {
            w.key("kind").str("min_order");
            w.key("min_order").num(min_order);
        }
        FailMode::Probability { rate_ppm, seed } => {
            w.key("kind").str("probability");
            w.key("rate_ppm").num(rate_ppm);
            w.key("seed").num(seed);
        }
    });
}

fn fail_mode_from_json(v: &Json) -> DecodeResult<FailMode> {
    let kind = field(v, "kind")?.as_str().ok_or("fail mode kind is not a string")?;
    match kind {
        "never" => Ok(FailMode::Never),
        "nth" => Ok(FailMode::Nth { n: get_u64(v, "n")? }),
        "every_nth" => Ok(FailMode::EveryNth { n: get_u64(v, "n")? }),
        "min_order" => Ok(FailMode::MinOrder { min_order: get_u32(v, "min_order")? }),
        "probability" => Ok(FailMode::Probability {
            rate_ppm: get_u32(v, "rate_ppm")?,
            seed: get_u64(v, "seed")?,
        }),
        other => Err(format!("unknown fail mode `{other}`")),
    }
}

fn write_fail_policy<S: Sink>(w: &mut Writer<S>, p: &FailPolicy) {
    w.obj(|w| {
        write_fail_mode(w.key("mode"), p.mode());
        w.key("attempts").num(p.attempts());
        w.key("injected").num(p.injected());
        w.key("rng_state").num(p.rng_state());
    });
}

fn fail_policy_from_json(v: &Json) -> DecodeResult<FailPolicy> {
    Ok(FailPolicy::restore(
        fail_mode_from_json(field(v, "mode")?)?,
        get_u64(v, "attempts")?,
        get_u64(v, "injected")?,
        get_u64(v, "rng_state")?,
    ))
}

fn write_poison_mode<S: Sink>(w: &mut Writer<S>, mode: PoisonMode) {
    w.obj(|w| match mode {
        PoisonMode::Never => w.key("kind").str("never"),
        PoisonMode::Nth { n } => {
            w.key("kind").str("nth");
            w.key("n").num(n);
        }
        PoisonMode::EveryNth { n } => {
            w.key("kind").str("every_nth");
            w.key("n").num(n);
        }
        PoisonMode::Address { pfn, n } => {
            w.key("kind").str("address");
            w.key("pfn").num(pfn.raw());
            w.key("n").num(n);
        }
        PoisonMode::Probability { rate_ppm, seed } => {
            w.key("kind").str("probability");
            w.key("rate_ppm").num(rate_ppm);
            w.key("seed").num(seed);
        }
    });
}

fn poison_mode_from_json(v: &Json) -> DecodeResult<PoisonMode> {
    let kind = field(v, "kind")?.as_str().ok_or("poison mode kind is not a string")?;
    match kind {
        "never" => Ok(PoisonMode::Never),
        "nth" => Ok(PoisonMode::Nth { n: get_u64(v, "n")? }),
        "every_nth" => Ok(PoisonMode::EveryNth { n: get_u64(v, "n")? }),
        "address" => Ok(PoisonMode::Address {
            pfn: Pfn::new(get_u64(v, "pfn")?),
            n: get_u64(v, "n")?,
        }),
        "probability" => Ok(PoisonMode::Probability {
            rate_ppm: get_u32(v, "rate_ppm")?,
            seed: get_u64(v, "seed")?,
        }),
        other => Err(format!("unknown poison mode `{other}`")),
    }
}

fn write_poison_policy<S: Sink>(w: &mut Writer<S>, p: &PoisonPolicy) {
    w.obj(|w| {
        write_poison_mode(w.key("mode"), p.mode());
        w.key("checks").num(p.checks());
        w.key("events").num(p.events());
        w.key("rng_state").num(p.rng_state());
    });
}

fn poison_policy_from_json(v: &Json) -> DecodeResult<PoisonPolicy> {
    Ok(PoisonPolicy::restore(
        poison_mode_from_json(field(v, "mode")?)?,
        get_u64(v, "checks")?,
        get_u64(v, "events")?,
        get_u64(v, "rng_state")?,
    ))
}

// ---------------------------------------------------------------------------
// contig-buddy: zones and machine
// ---------------------------------------------------------------------------

/// Field order of the [`PoisonCounters`] array encoding.
const POISON_COUNTER_FIELDS: usize = 5;

fn write_poison_counters<S: Sink>(w: &mut Writer<S>, c: &PoisonCounters) {
    w.nums([c.poisoned, c.quarantined_free, c.quarantined_pcp, c.deferred, c.quarantined_on_free]);
}

fn poison_counters_from_json(v: &Json) -> DecodeResult<PoisonCounters> {
    let raw = v.as_arr().ok_or("poison counters is not an array")?;
    if raw.len() != POISON_COUNTER_FIELDS {
        return Err(format!("poison counters must have {POISON_COUNTER_FIELDS} entries"));
    }
    let c = |i: usize| as_u64(&raw[i], "poison counter");
    Ok(PoisonCounters {
        poisoned: c(0)?,
        quarantined_free: c(1)?,
        quarantined_pcp: c(2)?,
        deferred: c(3)?,
        quarantined_on_free: c(4)?,
    })
}

fn write_zone<S: Sink>(w: &mut Writer<S>, z: &ZoneSnapshot) {
    w.obj(|w| {
        w.key("config").obj(|w| {
            w.key("base").num(z.config.base.raw());
            w.key("frames").num(z.config.frames);
            w.key("top_order").num(z.config.top_order);
            w.key("sorted_top_list").bool(z.config.sorted_top_list);
        });
        w.key("free_lists")
            .arr(|w| z.free_lists.iter().for_each(|list| w.nums(list.iter().copied())));
        w.key("allocated").arr(|w| z.allocated.iter().for_each(|&(pfn, order)| w.pair(pfn, order)));
        let c = &z.counters;
        w.key("counters").nums([
            c.allocs,
            c.targeted_allocs,
            c.targeted_misses,
            c.frees,
            c.splits,
            c.coalesces,
        ]);
        write_fail_policy(w.key("fail"), &z.fail);
        w.key("contig_rover").opt_num(z.contig_rover);
        w.key("contig_updates").num(z.contig_updates);
        match &z.pcp {
            Some(p) => write_pcp(w.key("pcp"), p),
            None => w.key("pcp").null(),
        }
        w.key("badframes").nums(z.badframes.iter().copied());
        write_poison_counters(w.key("poison"), &z.poison);
    });
}

fn write_pcp<S: Sink>(w: &mut Writer<S>, p: &PcpSnapshot) {
    w.obj(|w| {
        w.key("cpus").num(p.cpus);
        w.key("batch").num(p.batch);
        w.key("high").num(p.high);
        w.key("current_cpu").num(p.current_cpu);
        w.key("lists").arr(|w| p.lists.iter().for_each(|list| w.nums(list.iter().copied())));
        let c = &p.counters;
        w.key("counters").nums([
            c.hits,
            c.refills,
            c.refilled_frames,
            c.drains,
            c.drained_frames,
            c.targeted_evictions,
        ]);
    });
}

fn pcp_from_json(v: &Json) -> DecodeResult<PcpSnapshot> {
    let counters = get_arr(v, "counters")?;
    if counters.len() != 6 {
        return Err("pcp counters must have 6 entries".into());
    }
    let c = |i: usize| as_u64(&counters[i], "pcp counter");
    Ok(PcpSnapshot {
        cpus: get_u64(v, "cpus")?,
        batch: get_u64(v, "batch")?,
        high: get_u64(v, "high")?,
        current_cpu: get_u64(v, "current_cpu")?,
        lists: get_arr(v, "lists")?
            .iter()
            .map(|list| {
                list.as_arr()
                    .ok_or_else(|| "pcp list is not an array".to_string())?
                    .iter()
                    .map(|f| as_u64(f, "pcp frame"))
                    .collect()
            })
            .collect::<DecodeResult<_>>()?,
        counters: PcpCounters {
            hits: c(0)?,
            refills: c(1)?,
            refilled_frames: c(2)?,
            drains: c(3)?,
            drained_frames: c(4)?,
            targeted_evictions: c(5)?,
        },
    })
}

fn zone_from_json(v: &Json) -> DecodeResult<ZoneSnapshot> {
    let cfg = field(v, "config")?;
    let counters = get_arr(v, "counters")?;
    if counters.len() != 6 {
        return Err("zone counters must have 6 entries".into());
    }
    let c = |i: usize| as_u64(&counters[i], "zone counter");
    Ok(ZoneSnapshot {
        config: ZoneConfig {
            base: Pfn::new(get_u64(cfg, "base")?),
            frames: get_u64(cfg, "frames")?,
            top_order: get_u32(cfg, "top_order")?,
            sorted_top_list: get_bool(cfg, "sorted_top_list")?,
        },
        free_lists: get_arr(v, "free_lists")?
            .iter()
            .map(|list| {
                list.as_arr()
                    .ok_or_else(|| "free list is not an array".to_string())?
                    .iter()
                    .map(|f| as_u64(f, "free frame"))
                    .collect()
            })
            .collect::<DecodeResult<_>>()?,
        allocated: get_arr(v, "allocated")?
            .iter()
            .map(|p| {
                let (pfn, order) = decode_pair_u64(p, "allocated block")?;
                Ok((pfn, u32::try_from(order).map_err(|_| "order out of range".to_string())?))
            })
            .collect::<DecodeResult<_>>()?,
        counters: ZoneCounters {
            allocs: c(0)?,
            targeted_allocs: c(1)?,
            targeted_misses: c(2)?,
            frees: c(3)?,
            splits: c(4)?,
            coalesces: c(5)?,
        },
        fail: fail_policy_from_json(field(v, "fail")?)?,
        contig_rover: match field(v, "contig_rover")? {
            Json::Null => None,
            other => Some(as_u64(other, "contig_rover")?),
        },
        contig_updates: get_u64(v, "contig_updates")?,
        // Absent in version-1 files: the pcp layer did not exist yet.
        pcp: match v.get("pcp") {
            None | Some(Json::Null) => None,
            Some(other) => Some(pcp_from_json(other)?),
        },
        // Absent before version 3: no hwpoison, so no quarantined frames.
        badframes: match v.get("badframes") {
            None | Some(Json::Null) => Vec::new(),
            Some(other) => other
                .as_arr()
                .ok_or_else(|| "badframes is not an array".to_string())?
                .iter()
                .map(|f| as_u64(f, "badframe"))
                .collect::<DecodeResult<_>>()?,
        },
        poison: match v.get("poison") {
            None | Some(Json::Null) => PoisonCounters::default(),
            Some(other) => poison_counters_from_json(other)?,
        },
    })
}

fn write_machine<S: Sink>(w: &mut Writer<S>, m: &MachineSnapshot) {
    w.obj(|w| {
        w.key("zones").arr(|w| m.zones.iter().for_each(|z| write_zone(w, z)));
        w.key("reservations").arr(|w| {
            m.reservations.iter().for_each(|&(owner, start, len)| w.nums([owner, start, len]))
        });
        w.key("reservation_rover").num(m.reservation_rover);
    });
}

fn machine_from_json(v: &Json) -> DecodeResult<MachineSnapshot> {
    Ok(MachineSnapshot {
        zones: get_arr(v, "zones")?.iter().map(zone_from_json).collect::<DecodeResult<_>>()?,
        reservations: get_arr(v, "reservations")?
            .iter()
            .map(|r| match r.as_arr() {
                Some([a, b, c]) => Ok((
                    as_u64(a, "reservation owner")?,
                    as_u64(b, "reservation start")?,
                    as_u64(c, "reservation len")?,
                )),
                _ => Err("reservation is not a 3-element array".to_string()),
            })
            .collect::<DecodeResult<_>>()?,
        reservation_rover: get_u64(v, "reservation_rover")?,
    })
}

// ---------------------------------------------------------------------------
// contig-mm: processes, page cache, system
// ---------------------------------------------------------------------------

fn write_vma<S: Sink>(w: &mut Writer<S>, vma: &VmaSnapshot) {
    w.obj(|w| {
        w.key("start").num(vma.start);
        w.key("len").num(vma.len);
        match vma.file {
            None => w.key("file").null(),
            Some((file, start_page)) => w.key("file").pair(file, start_page),
        }
        w.key("offsets").arr(|w| vma.offsets.iter().for_each(|&(va, off)| w.pair(va, off)));
        w.key("replacement_claimed").bool(vma.replacement_claimed);
    });
}

fn vma_from_json(v: &Json) -> DecodeResult<VmaSnapshot> {
    Ok(VmaSnapshot {
        start: get_u64(v, "start")?,
        len: get_u64(v, "len")?,
        file: match field(v, "file")? {
            Json::Null => None,
            other => {
                let (file, start_page) = decode_pair_u64(other, "vma file")?;
                Some((u32::try_from(file).map_err(|_| "file id out of range")?, start_page))
            }
        },
        offsets: get_arr(v, "offsets")?
            .iter()
            .map(|p| match p.as_arr() {
                Some([va, off]) => Ok((
                    as_u64(va, "offset va")?,
                    off.as_num().ok_or("offset value is not a number")?,
                )),
                _ => Err("offset entry is not a 2-element array".to_string()),
            })
            .collect::<DecodeResult<_>>()?,
        replacement_claimed: get_bool(v, "replacement_claimed")?,
    })
}

fn write_stats<S: Sink>(w: &mut Writer<S>, s: &FaultStatsSnapshot) {
    w.obj(|w| {
        w.key("counters").nums(s.counters);
        w.key("latencies_ns").nums(s.latencies_ns.iter().copied());
        w.key("record_latencies").bool(s.record_latencies);
    });
}

fn stats_from_json(v: &Json) -> DecodeResult<FaultStatsSnapshot> {
    let raw = get_arr(v, "counters")?;
    if raw.len() != 8 {
        return Err("fault stats must have 8 counters".into());
    }
    let mut counters = [0u64; 8];
    for (slot, val) in counters.iter_mut().zip(raw) {
        *slot = as_u64(val, "fault counter")?;
    }
    Ok(FaultStatsSnapshot {
        counters,
        latencies_ns: get_arr(v, "latencies_ns")?
            .iter()
            .map(|l| as_u64(l, "latency"))
            .collect::<DecodeResult<_>>()?,
        record_latencies: get_bool(v, "record_latencies")?,
    })
}

fn write_process<S: Sink>(w: &mut Writer<S>, p: &ProcessSnapshot) {
    w.obj(|w| {
        w.key("pid").num(p.pid);
        w.key("pt_levels").num(p.pt_levels);
        w.key("vmas").arr(|w| p.vmas.iter().for_each(|vma| write_vma(w, vma)));
        w.key("mappings").arr(|w| {
            for &(va, pfn, bits, huge) in &p.mappings {
                w.arr(|w| {
                    w.num(va);
                    w.num(pfn);
                    w.num(bits);
                    w.bool(huge);
                });
            }
        });
        write_stats(w.key("stats"), &p.stats);
        w.key("home").opt_num(p.home);
    });
}

fn process_from_json(v: &Json) -> DecodeResult<ProcessSnapshot> {
    Ok(ProcessSnapshot {
        pid: get_u32(v, "pid")?,
        pt_levels: get_u32(v, "pt_levels")?,
        vmas: get_arr(v, "vmas")?.iter().map(vma_from_json).collect::<DecodeResult<_>>()?,
        mappings: get_arr(v, "mappings")?
            .iter()
            .map(|m| match m.as_arr() {
                Some([va, pfn, bits, huge]) => Ok((
                    as_u64(va, "mapping va")?,
                    as_u64(pfn, "mapping pfn")?,
                    u8::try_from(as_u64(bits, "mapping flags")?)
                        .map_err(|_| "flag bits out of range".to_string())?,
                    huge.as_bool().ok_or("mapping huge marker is not a bool")?,
                )),
                _ => Err("mapping is not a 4-element array".to_string()),
            })
            .collect::<DecodeResult<_>>()?,
        stats: stats_from_json(field(v, "stats")?)?,
        // Absent before version 5: processes had no NUMA home node.
        home: match v.get("home") {
            None | Some(Json::Null) => None,
            Some(other) => Some(as_u64(other, "home")?),
        },
    })
}

fn write_page_cache<S: Sink>(w: &mut Writer<S>, pc: &PageCacheSnapshot) {
    w.obj(|w| {
        w.key("mode").str(match pc.mode {
            CacheAllocMode::Default => "default",
            CacheAllocMode::CaContiguous => "ca_contiguous",
        });
        w.key("readahead_allocs").num(pc.readahead_allocs);
        w.key("files").arr(|w| {
            for f in &pc.files {
                w.obj(|w| {
                    w.key("pages").arr(|w| f.pages.iter().for_each(|&(idx, pfn)| w.pair(idx, pfn)));
                    w.key("offset").opt_num(f.offset);
                });
            }
        });
    });
}

fn page_cache_from_json(v: &Json) -> DecodeResult<PageCacheSnapshot> {
    Ok(PageCacheSnapshot {
        mode: match field(v, "mode")?.as_str() {
            Some("default") => CacheAllocMode::Default,
            Some("ca_contiguous") => CacheAllocMode::CaContiguous,
            other => return Err(format!("unknown cache mode {other:?}")),
        },
        readahead_allocs: get_u64(v, "readahead_allocs")?,
        files: get_arr(v, "files")?
            .iter()
            .map(|f| {
                Ok(FileCacheSnapshot {
                    pages: get_arr(f, "pages")?
                        .iter()
                        .map(|p| decode_pair_u64(p, "cached page"))
                        .collect::<DecodeResult<_>>()?,
                    offset: match field(f, "offset")? {
                        Json::Null => None,
                        other => Some(other.as_num().ok_or("cache offset is not a number")?),
                    },
                })
            })
            .collect::<DecodeResult<_>>()?,
    })
}

fn write_recovery_config<S: Sink>(w: &mut Writer<S>, r: &RecoveryConfig) {
    w.obj(|w| {
        w.key("reclaim").bool(r.reclaim);
        w.key("compaction").bool(r.compaction);
        w.key("max_retries").num(r.max_retries);
        w.key("reclaim_batch").num(r.reclaim_batch);
        w.key("compact_budget").num(r.compact_budget);
        w.key("backoff_base_ns").num(r.backoff_base_ns);
        w.key("backoff_cap_ns").num(r.backoff_cap_ns);
        w.key("backoff_seed").num(r.backoff_seed);
        w.key("max_total_attempts").num(r.max_total_attempts);
    });
}

fn recovery_config_from_json(v: &Json) -> DecodeResult<RecoveryConfig> {
    Ok(RecoveryConfig {
        reclaim: get_bool(v, "reclaim")?,
        compaction: get_bool(v, "compaction")?,
        max_retries: get_u32(v, "max_retries")?,
        reclaim_batch: get_u64(v, "reclaim_batch")?,
        compact_budget: get_u64(v, "compact_budget")?,
        backoff_base_ns: get_u64(v, "backoff_base_ns")?,
        backoff_cap_ns: get_u64(v, "backoff_cap_ns")?,
        backoff_seed: get_u64(v, "backoff_seed")?,
        max_total_attempts: get_u32(v, "max_total_attempts")?,
    })
}

/// Field order of the [`PoisonStats`] counter array encoding.
const POISON_STAT_FIELDS: usize = 8;

fn write_poison_stats<S: Sink>(w: &mut Writer<S>, s: &PoisonStats) {
    w.nums([
        s.strikes,
        s.healed,
        s.healed_frames,
        s.heal_failed,
        s.sigbus,
        s.cache_dropped,
        s.soft_offline_ok,
        s.soft_offline_failed,
    ]);
}

fn poison_stats_from_json(v: &Json) -> DecodeResult<PoisonStats> {
    let raw = v.as_arr().ok_or("poison stats is not an array")?;
    if raw.len() != POISON_STAT_FIELDS {
        return Err(format!("poison stats must have {POISON_STAT_FIELDS} entries"));
    }
    let c = |i: usize| as_u64(&raw[i], "poison stat");
    Ok(PoisonStats {
        strikes: c(0)?,
        healed: c(1)?,
        healed_frames: c(2)?,
        heal_failed: c(3)?,
        sigbus: c(4)?,
        cache_dropped: c(5)?,
        soft_offline_ok: c(6)?,
        soft_offline_failed: c(7)?,
    })
}

/// Field order of the [`NumaStats`] counter array encoding.
const NUMA_STAT_FIELDS: usize = 3;

fn write_numa_stats<S: Sink>(w: &mut Writer<S>, s: &NumaStats) {
    w.nums([s.local_allocs, s.fallback_allocs, s.migrations]);
}

fn numa_stats_from_json(v: &Json) -> DecodeResult<NumaStats> {
    let raw = v.as_arr().ok_or("numa stats is not an array")?;
    if raw.len() != NUMA_STAT_FIELDS {
        return Err(format!("numa stats must have {NUMA_STAT_FIELDS} entries"));
    }
    let c = |i: usize| as_u64(&raw[i], "numa stat");
    Ok(NumaStats { local_allocs: c(0)?, fallback_allocs: c(1)?, migrations: c(2)? })
}

/// Field order of the [`DaemonStats`] counter array encoding: the eleven
/// traced counters in `as_named()` order, then the two untraced frame
/// totals.
const DAEMON_STAT_FIELDS: usize = 13;

fn write_daemon_stats<S: Sink>(w: &mut Writer<S>, s: &DaemonStats) {
    w.nums([
        s.ticks,
        s.epochs,
        s.compact_moves,
        s.promoted,
        s.promote_failed,
        s.repairs,
        s.shed_promote,
        s.shed_compact,
        s.backoff_skips,
        s.yields,
        s.policy_updates,
        s.compact_frames,
        s.repair_frames,
    ]);
}

fn daemon_stats_from_json(v: &Json) -> DecodeResult<DaemonStats> {
    let raw = v.as_arr().ok_or("daemon stats is not an array")?;
    if raw.len() != DAEMON_STAT_FIELDS {
        return Err(format!("daemon stats must have {DAEMON_STAT_FIELDS} entries"));
    }
    let c = |i: usize| as_u64(&raw[i], "daemon stat");
    Ok(DaemonStats {
        ticks: c(0)?,
        epochs: c(1)?,
        compact_moves: c(2)?,
        promoted: c(3)?,
        promote_failed: c(4)?,
        repairs: c(5)?,
        shed_promote: c(6)?,
        shed_compact: c(7)?,
        backoff_skips: c(8)?,
        yields: c(9)?,
        policy_updates: c(10)?,
        compact_frames: c(11)?,
        repair_frames: c(12)?,
    })
}

fn write_daemon_config<S: Sink>(w: &mut Writer<S>, c: &DaemonConfig) {
    w.obj(|w| {
        w.key("scan_interval").num(c.scan_interval);
        w.key("epoch_budget").num(c.epoch_budget);
        w.key("aggressiveness").num(c.aggressiveness);
        w.key("thp_threshold_pages").num(c.thp_threshold_pages);
        w.key("repair_poison").bool(c.repair_poison);
        w.key("shed_promote_pct").num(c.shed_promote_pct);
        w.key("shed_compact_pct").num(c.shed_compact_pct);
        w.key("yield_pct").num(c.yield_pct);
        w.key("poison_storm_frames").num(c.poison_storm_frames);
        w.key("backoff_base_ns").num(c.backoff_base_ns);
        w.key("backoff_cap_ns").num(c.backoff_cap_ns);
        w.key("backoff_seed").num(c.backoff_seed);
        w.key("watchdog_vetoes").num(c.watchdog_vetoes);
    });
}

fn daemon_config_from_json(v: &Json) -> DecodeResult<DaemonConfig> {
    Ok(DaemonConfig {
        scan_interval: get_u64(v, "scan_interval")?,
        epoch_budget: get_u64(v, "epoch_budget")?,
        aggressiveness: u8::try_from(get_u64(v, "aggressiveness")?)
            .map_err(|_| "daemon aggressiveness out of range")?,
        thp_threshold_pages: get_u64(v, "thp_threshold_pages")?,
        repair_poison: get_bool(v, "repair_poison")?,
        shed_promote_pct: get_u64(v, "shed_promote_pct")?,
        shed_compact_pct: get_u64(v, "shed_compact_pct")?,
        yield_pct: get_u64(v, "yield_pct")?,
        poison_storm_frames: get_u64(v, "poison_storm_frames")?,
        backoff_base_ns: get_u64(v, "backoff_base_ns")?,
        backoff_cap_ns: get_u64(v, "backoff_cap_ns")?,
        backoff_seed: get_u64(v, "backoff_seed")?,
        watchdog_vetoes: get_u64(v, "watchdog_vetoes")?,
    })
}

/// Encodes the full mid-epoch daemon state (codec v6): policy, scan
/// cursors, budget, phase, remembered promotion candidates, backoff RNG,
/// and counters.
fn write_daemon<S: Sink>(w: &mut Writer<S>, d: &DaemonState) {
    w.obj(|w| {
        w.key("enabled").bool(d.enabled);
        write_daemon_config(w.key("config"), &d.config);
        w.key("compact_node").num(d.compact_node);
        w.key("compact_cursor").num(d.compact_cursor);
        w.key("promote_pid").num(d.promote_pid);
        w.key("promote_va").num(d.promote_va);
        w.key("candidate_cursor").num(d.candidate_cursor);
        w.key("repair_cursor").num(d.repair_cursor);
        w.key("budget_left").num(d.budget_left);
        w.key("phase").num(d.phase.as_u64());
        w.key("candidates").arr(|w| d.candidates.iter().for_each(|&(pid, va)| w.pair(pid, va)));
        w.key("backoff_rng").num(d.backoff_rng);
        w.key("backoff_until_ns").num(d.backoff_until_ns);
        w.key("yield_streak").num(d.yield_streak);
        w.key("epoch").num(d.epoch);
        write_daemon_stats(w.key("stats"), &d.stats);
    });
}

fn daemon_from_json(v: &Json) -> DecodeResult<DaemonState> {
    Ok(DaemonState {
        enabled: get_bool(v, "enabled")?,
        config: daemon_config_from_json(field(v, "config")?)?,
        compact_node: get_u64(v, "compact_node")?,
        compact_cursor: get_u64(v, "compact_cursor")?,
        promote_pid: get_u64(v, "promote_pid")?,
        promote_va: get_u64(v, "promote_va")?,
        candidate_cursor: get_u64(v, "candidate_cursor")?,
        repair_cursor: get_u64(v, "repair_cursor")?,
        budget_left: get_u64(v, "budget_left")?,
        phase: DaemonPhase::from_u64(get_u64(v, "phase")?),
        candidates: get_arr(v, "candidates")?
            .iter()
            .map(|p| {
                let (pid, va) = decode_pair_u64(p, "daemon candidate")?;
                Ok((u32::try_from(pid).map_err(|_| "candidate pid out of range")?, va))
            })
            .collect::<DecodeResult<_>>()?,
        backoff_rng: get_u64(v, "backoff_rng")?,
        backoff_until_ns: get_u64(v, "backoff_until_ns")?,
        yield_streak: get_u64(v, "yield_streak")?,
        epoch: get_u64(v, "epoch")?,
        stats: daemon_stats_from_json(field(v, "stats")?)?,
    })
}

/// Field order of the [`RecoveryStats`] counter array encoding.
const RECOVERY_STAT_FIELDS: usize = 15;

fn write_recovery_stats<S: Sink>(w: &mut Writer<S>, s: &RecoveryStats) {
    w.nums([
        s.oom_events,
        s.reclaim_passes,
        s.reclaimed_pages,
        s.compaction_passes,
        s.migrated_blocks,
        s.migrated_frames,
        s.retries,
        s.order_backoffs,
        s.readahead_shrinks,
        s.recovered_faults,
        s.hard_ooms,
        s.livelocks,
        s.backoff_ns,
        s.reclaim_ns,
        s.compaction_ns,
    ]);
}

fn recovery_stats_from_json(v: &Json) -> DecodeResult<RecoveryStats> {
    let raw = v.as_arr().ok_or("recovery stats is not an array")?;
    if raw.len() != RECOVERY_STAT_FIELDS {
        return Err(format!("recovery stats must have {RECOVERY_STAT_FIELDS} entries"));
    }
    let c = |i: usize| as_u64(&raw[i], "recovery stat");
    Ok(RecoveryStats {
        oom_events: c(0)?,
        reclaim_passes: c(1)?,
        reclaimed_pages: c(2)?,
        compaction_passes: c(3)?,
        migrated_blocks: c(4)?,
        migrated_frames: c(5)?,
        retries: c(6)?,
        order_backoffs: c(7)?,
        readahead_shrinks: c(8)?,
        recovered_faults: c(9)?,
        hard_ooms: c(10)?,
        livelocks: c(11)?,
        backoff_ns: c(12)?,
        reclaim_ns: c(13)?,
        compaction_ns: c(14)?,
    })
}

/// Writes the canonical encoding of a [`SystemSnapshot`] through `w`.
pub(crate) fn write_system<S: Sink>(w: &mut Writer<S>, s: &SystemSnapshot) {
    w.obj(|w| {
        write_machine(w.key("machine"), &s.machine);
        w.key("processes").arr(|w| s.processes.iter().for_each(|p| write_process(w, p)));
        write_page_cache(w.key("page_cache"), &s.page_cache);
        w.key("next_pid").num(s.next_pid);
        w.key("thp").bool(s.thp);
        w.key("pt_levels").num(s.pt_levels);
        w.key("record_latencies").bool(s.record_latencies);
        w.key("latency").obj(|w| {
            w.key("base_ns").num(s.latency.base_ns);
            w.key("zero_page_ns").num(s.latency.zero_page_ns);
            w.key("placement_ns").num(s.latency.placement_ns);
        });
        w.key("shared").arr(|w| s.shared.iter().for_each(|&(pfn, count)| w.pair(pfn, count)));
        w.key("now_ns").num(s.now_ns);
        write_recovery_config(w.key("recovery"), &s.recovery);
        write_recovery_stats(w.key("recovery_stats"), &s.recovery_stats);
        w.key("backoff_rng").num(s.backoff_rng);
        write_poison_policy(w.key("poison_policy"), &s.poison_policy);
        write_poison_stats(w.key("poison_stats"), &s.poison_stats);
        write_numa_stats(w.key("numa_stats"), &s.numa_stats);
        write_daemon(w.key("daemon"), &s.daemon);
    });
}

/// The canonical single-line encoding of a [`SystemSnapshot`] — the bytes
/// [`crate::digest_system`] hashes and [`system_from_json`] decodes.
pub fn system_to_line(s: &SystemSnapshot) -> String {
    to_line(|w| write_system(w, s))
}

/// Decodes a [`SystemSnapshot`] from its [`Json`] encoding.
///
/// # Errors
///
/// Describes the first missing or ill-typed field.
pub fn system_from_json(v: &Json) -> DecodeResult<SystemSnapshot> {
    let lat = field(v, "latency")?;
    Ok(SystemSnapshot {
        machine: machine_from_json(field(v, "machine")?)?,
        processes: get_arr(v, "processes")?
            .iter()
            .map(process_from_json)
            .collect::<DecodeResult<_>>()?,
        page_cache: page_cache_from_json(field(v, "page_cache")?)?,
        next_pid: get_u32(v, "next_pid")?,
        thp: get_bool(v, "thp")?,
        pt_levels: get_u32(v, "pt_levels")?,
        record_latencies: get_bool(v, "record_latencies")?,
        latency: LatencyModel {
            base_ns: get_u64(lat, "base_ns")?,
            zero_page_ns: get_u64(lat, "zero_page_ns")?,
            placement_ns: get_u64(lat, "placement_ns")?,
        },
        shared: get_arr(v, "shared")?
            .iter()
            .map(|p| {
                let (pfn, count) = decode_pair_u64(p, "shared entry")?;
                Ok((pfn, u32::try_from(count).map_err(|_| "share count out of range")?))
            })
            .collect::<DecodeResult<_>>()?,
        now_ns: get_u64(v, "now_ns")?,
        recovery: recovery_config_from_json(field(v, "recovery")?)?,
        recovery_stats: recovery_stats_from_json(field(v, "recovery_stats")?)?,
        backoff_rng: get_u64(v, "backoff_rng")?,
        // Absent before version 3: poison injection did not exist.
        poison_policy: match v.get("poison_policy") {
            None | Some(Json::Null) => PoisonPolicy::never(),
            Some(other) => poison_policy_from_json(other)?,
        },
        poison_stats: match v.get("poison_stats") {
            None | Some(Json::Null) => PoisonStats::default(),
            Some(other) => poison_stats_from_json(other)?,
        },
        // Absent before version 5: the machine had no NUMA zone accounting.
        numa_stats: match v.get("numa_stats") {
            None | Some(Json::Null) => NumaStats::default(),
            Some(other) => numa_stats_from_json(other)?,
        },
        // Absent before version 6: no background maintenance daemon. The
        // default is disabled, which is behaviour-identical.
        daemon: match v.get("daemon") {
            None | Some(Json::Null) => DaemonState::default(),
            Some(other) => daemon_from_json(other)?,
        },
    })
}

/// Writes the canonical encoding of a [`VmSnapshot`] (both translation
/// dimensions) through `w`.
pub(crate) fn write_vm<S: Sink>(w: &mut Writer<S>, s: &VmSnapshot) {
    w.obj(|w| {
        write_system(w.key("guest"), &s.guest);
        write_system(w.key("host"), &s.host);
        w.key("host_pid").num(s.host_pid);
        w.key("host_vma_start").num(s.host_vma_start);
        w.key("host_vma_base").num(s.host_vma_base);
        w.key("balloon").nums(s.balloon.iter().copied());
        w.key("sharing").arr(|w| {
            for (pfn, gframes) in &s.sharing {
                w.arr(|w| {
                    w.num(*pfn);
                    w.nums(gframes.iter().copied());
                });
            }
        });
    });
}

/// The canonical single-line encoding of a [`VmSnapshot`]: the payload line
/// of [`encode_vm_file`], decoded by [`vm_from_json`].
pub fn vm_to_line(s: &VmSnapshot) -> String {
    to_line(|w| write_vm(w, s))
}

/// Decodes a [`VmSnapshot`] from its [`Json`] encoding.
///
/// # Errors
///
/// Describes the first missing or ill-typed field.
pub fn vm_from_json(v: &Json) -> DecodeResult<VmSnapshot> {
    Ok(VmSnapshot {
        guest: system_from_json(field(v, "guest")?)?,
        host: system_from_json(field(v, "host")?)?,
        host_pid: get_u32(v, "host_pid")?,
        host_vma_start: get_u64(v, "host_vma_start")?,
        host_vma_base: get_u64(v, "host_vma_base")?,
        // Absent before version 4: ballooning and KSM did not exist.
        balloon: match v.get("balloon") {
            None | Some(Json::Null) => Vec::new(),
            Some(other) => other
                .as_arr()
                .ok_or("field `balloon` is not an array")?
                .iter()
                .map(|g| as_u64(g, "balloon frame"))
                .collect::<DecodeResult<_>>()?,
        },
        sharing: match v.get("sharing") {
            None | Some(Json::Null) => Vec::new(),
            Some(other) => other
                .as_arr()
                .ok_or("field `sharing` is not an array")?
                .iter()
                .map(|rec| match rec.as_arr() {
                    Some([pfn, gframes]) => Ok((
                        as_u64(pfn, "sharing pfn")?,
                        gframes
                            .as_arr()
                            .ok_or("sharing members is not an array")?
                            .iter()
                            .map(|g| as_u64(g, "sharing gframe"))
                            .collect::<DecodeResult<_>>()?,
                    )),
                    _ => Err("sharing record is not a 2-element array".to_string()),
                })
                .collect::<DecodeResult<_>>()?,
        },
    })
}

// ---------------------------------------------------------------------------
// contig-fleet: multi-tenant fleet images
// ---------------------------------------------------------------------------

fn write_fleet_tenant<S: Sink>(w: &mut Writer<S>, t: &contig_fleet::TenantSnapshot) {
    w.obj(|w| {
        w.key("id").num(t.id);
        write_system(w.key("guest"), &t.guest);
        w.key("host_idx").num(t.host_idx);
        w.key("host_pid").num(t.host_pid);
        w.key("guest_pid").num(t.guest_pid);
        w.key("balloon").nums(t.balloon.iter().copied());
        w.key("tags").arr(|w| t.tags.iter().for_each(|&(p, tag)| w.pair(p, tag)));
    });
}

/// Writes the canonical encoding of a [`contig_fleet::FleetSnapshot`]
/// through `w`. The fleet digest hashes this encoding, so crash-replayed
/// fleets can be compared byte-for-byte against the live fleet; there is no
/// decoder — a repro file carries ops, not state.
pub(crate) fn write_fleet<S: Sink>(w: &mut Writer<S>, s: &contig_fleet::FleetSnapshot) {
    let cfg = &s.config;
    w.obj(|w| {
        w.key("config").obj(|w| {
            w.key("hosts").num(cfg.hosts as u64);
            w.key("host_mib").num(cfg.host_mib);
            w.key("guest_mib").num(cfg.guest_mib);
            w.key("overcommit_ppm").num(cfg.overcommit_ppm);
            w.key("low_watermark_ppm").num(cfg.low_watermark_ppm);
            w.key("high_watermark_ppm").num(cfg.high_watermark_ppm);
            w.key("balloon_step").num(cfg.balloon_step);
            w.key("balloon_retries").num(cfg.balloon_retries);
            w.key("backing_attempts").num(cfg.backing_attempts);
            w.key("evac_storm_ppm").num(cfg.evac_storm_ppm);
            w.key("evac_attempts").num(cfg.evac_attempts);
            w.key("seed").num(cfg.seed);
            w.key("host_nodes").num(cfg.host_nodes as u64);
        });
        w.key("hosts").arr(|w| s.hosts.iter().for_each(|h| write_system(w, h)));
        w.key("sharing").arr(|w| {
            for host in &s.sharing {
                w.arr(|w| {
                    for (pfn, members) in host {
                        w.arr(|w| {
                            w.num(*pfn);
                            w.arr(|w| members.iter().for_each(|&(t, g)| w.pair(t, g)));
                        });
                    }
                });
            }
        });
        w.key("tenants").arr(|w| s.tenants.iter().for_each(|t| write_fleet_tenant(w, t)));
        w.key("stats").nums(s.stats.as_named().iter().map(|&(_, count)| count));
        w.key("next_tenant").num(s.next_tenant);
        w.key("rng").num(s.rng);
        w.key("ksm_cursor").num(s.ksm_cursor);
    });
}

/// The canonical single-line encoding of a [`contig_fleet::FleetSnapshot`]
/// — the bytes [`crate::digest_fleet`] hashes.
pub fn fleet_to_line(s: &contig_fleet::FleetSnapshot) -> String {
    to_line(|w| write_fleet(w, s))
}

// ---------------------------------------------------------------------------
// contig-tlb: translation caches
// ---------------------------------------------------------------------------

fn write_cache<S: Sink>(w: &mut Writer<S>, c: &CacheSnapshot) {
    w.obj(|w| {
        w.key("sets").num(c.sets);
        w.key("ways").num(c.ways);
        w.key("slots").arr(|w| {
            for slot in &c.slots {
                match slot {
                    None => w.null(),
                    Some((key, tick)) => w.pair(*key, *tick),
                }
            }
        });
        w.key("tick").num(c.tick);
        w.key("hits").num(c.hits);
        w.key("misses").num(c.misses);
    });
}

fn cache_from_json(v: &Json) -> DecodeResult<CacheSnapshot> {
    Ok(CacheSnapshot {
        sets: get_u64(v, "sets")?,
        ways: get_u64(v, "ways")?,
        slots: get_arr(v, "slots")?
            .iter()
            .map(|slot| match slot {
                Json::Null => Ok(None),
                other => decode_pair_u64(other, "cache slot").map(Some),
            })
            .collect::<DecodeResult<_>>()?,
        tick: get_u64(v, "tick")?,
        hits: get_u64(v, "hits")?,
        misses: get_u64(v, "misses")?,
    })
}

/// The canonical single-line encoding of a [`TlbSnapshot`] (full hierarchy
/// with LRU state), decoded by [`tlb_from_json`].
pub fn tlb_to_line(s: &TlbSnapshot) -> String {
    to_line(|w| {
        w.obj(|w| {
            write_cache(w.key("l1_4k"), &s.l1_4k);
            write_cache(w.key("l1_2m"), &s.l1_2m);
            write_cache(w.key("l2"), &s.l2);
            w.key("counters").nums(s.counters);
        });
    })
}

/// Decodes a [`TlbSnapshot`] from its [`Json`] encoding.
///
/// # Errors
///
/// Describes the first missing or ill-typed field.
pub fn tlb_from_json(v: &Json) -> DecodeResult<TlbSnapshot> {
    let raw = get_arr(v, "counters")?;
    if raw.len() != 4 {
        return Err("tlb counters must have 4 entries".into());
    }
    let mut counters = [0u64; 4];
    for (slot, val) in counters.iter_mut().zip(raw) {
        *slot = as_u64(val, "tlb counter")?;
    }
    Ok(TlbSnapshot {
        l1_4k: cache_from_json(field(v, "l1_4k")?)?,
        l1_2m: cache_from_json(field(v, "l1_2m")?)?,
        l2: cache_from_json(field(v, "l2")?)?,
        counters,
    })
}

// ---------------------------------------------------------------------------
// JSONL file format
// ---------------------------------------------------------------------------

/// Serializes a [`VmSnapshot`] to the two-line JSONL snapshot format
/// (versioned header with digest, then the payload).
pub fn encode_vm_file(snap: &VmSnapshot) -> String {
    // One pass fills the payload buffer and hashes it; the header, which
    // needs the digest, is then spliced in front without a second buffer.
    let mut w = Writer::new((Vec::new(), Fnv1a64::new()));
    write_vm(&mut w, snap);
    let (mut file, digest) = w.finish();
    let header = to_line(|w| {
        w.obj(|w| {
            w.key("format").str(SNAPSHOT_FORMAT);
            w.key("version").num(SNAPSHOT_VERSION);
            w.key("digest").num(digest.finish());
        });
    });
    file.push(b'\n');
    file.splice(0..0, header.bytes().chain([b'\n']));
    String::from_utf8(file).expect("the writer emits UTF-8")
}

/// Parses and validates a snapshot file produced by [`encode_vm_file`].
///
/// # Errors
///
/// Rejects missing headers, unknown format tags, newer versions, digest
/// mismatches (corruption), and malformed payloads.
pub fn decode_vm_file(text: &str) -> DecodeResult<VmSnapshot> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    let header_line = lines.next().ok_or("empty snapshot file")?;
    let payload_line = lines.next().ok_or("snapshot file has no payload line")?;
    let header = parse(header_line).map_err(|e| format!("bad header: {e}"))?;
    match field(&header, "format")?.as_str() {
        Some(SNAPSHOT_FORMAT) => {}
        other => return Err(format!("not a snapshot file (format {other:?})")),
    }
    let version = field(&header, "version")?.as_num().ok_or("version is not a number")?;
    if !(SNAPSHOT_MIN_VERSION..=SNAPSHOT_VERSION).contains(&version) {
        return Err(format!(
            "snapshot version {version} unsupported (decoder speaks \
             {SNAPSHOT_MIN_VERSION}..={SNAPSHOT_VERSION})"
        ));
    }
    let want = get_u64(&header, "digest")?;
    let got = fnv1a64(payload_line.as_bytes());
    if want != got {
        return Err(format!("digest mismatch: header {want:#x}, payload {got:#x}"));
    }
    let payload = parse(payload_line).map_err(|e| format!("bad payload: {e}"))?;
    vm_from_json(&payload)
}

/// Writes a snapshot file to `path`.
///
/// # Errors
///
/// Propagates I/O failures.
pub fn write_vm_file(path: &std::path::Path, snap: &VmSnapshot) -> std::io::Result<()> {
    std::fs::write(path, encode_vm_file(snap))
}

/// Reads and validates a snapshot file from `path`.
///
/// # Errors
///
/// I/O failures and every validation failure of [`decode_vm_file`].
pub fn read_vm_file(path: &std::path::Path) -> DecodeResult<VmSnapshot> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path:?}: {e}"))?;
    decode_vm_file(&text)
}

/// [`contig_virt::GuestStateCodec`] over the versioned JSON snapshot codec:
/// the guest OS crosses the migration wire as exactly the bytes a snapshot
/// export would produce, so the stop-and-copy state chunk needs no second
/// serialization format.
#[derive(Clone, Copy, Debug, Default)]
pub struct SnapshotGuestCodec;

impl contig_virt::GuestStateCodec for SnapshotGuestCodec {
    fn encode(&self, snap: &SystemSnapshot) -> Vec<u8> {
        let mut w = Writer::new(Vec::new());
        write_system(&mut w, snap);
        w.finish()
    }

    fn decode(&self, bytes: &[u8]) -> Result<SystemSnapshot, String> {
        let text =
            std::str::from_utf8(bytes).map_err(|e| format!("state chunk not UTF-8: {e}"))?;
        let v = parse(text).map_err(|e| format!("state chunk not JSON: {e}"))?;
        system_from_json(&v)
    }
}
