//! Always-on runtime metrics: a lock-free registry of atomic counters,
//! gauges, and bucketed histograms that every layer of the VMM
//! publishes into at group-boundary granularity, plus the structured
//! post-mortem the flight recorder dumps when something degrades.
//!
//! The paper's VMM runs *under* everything, invisibly and continuously
//! — exactly the regime where a profiler cannot be attached after the
//! fact. [`crate::trace`] (opt-in event streams) and [`crate::profile`]
//! (opt-in attribution) cover deep inspection; this module is the third
//! mode: cheap, live, aggregate, and crash-surviving.
//!
//! * [`MetricsSnapshot`] — a point-in-time copy of every metric, cheap
//!   to take mid-run, diffable ([`MetricsSnapshot::delta`]), and
//!   serializable as JSON ([`MetricsSnapshot::to_json`]) or Prometheus
//!   text exposition format ([`prometheus_text`]).
//! * [`MetricsRegistry`] — a shareable (`Arc`) bank of `AtomicU64`
//!   slots the system publishes absolute counter values into every
//!   [`publish period`](crate::system::DaisySystemBuilder::metrics_publish_period)
//!   group boundaries. Readers on other threads take consistent-enough
//!   snapshots without locks; one system publishes per registry, so
//!   several guests in one process each export their own.
//! * [`PostMortem`] — flight-recorder ring contents + the run's full
//!   degradation chain + a final snapshot, captured automatically on
//!   every ladder degradation and on fault-injection divergence (see
//!   [`crate::trace::FlightRecorder`] and
//!   [`crate::system::DaisySystem::post_mortem`]).
//!
//! # Overhead discipline
//!
//! Nothing here touches an in-group hot path. Every value in a snapshot
//! is *derived* from the plain-`u64` counter structs the engines
//! already maintain ([`RunStats`], [`VmmStats`], [`NativeStats`]);
//! gathering is a copy at a group boundary, and registry publication
//! happens on a countdown cadence (default every 1024 boundaries).
//! `benches/engine.rs` gates the result against `BENCH_engine.json`.
//!
//! # Naming scheme
//!
//! Prometheus names are `daisy_<layer>_<what>[_total]`: layers are
//! `vmm`, `dispatch`, `chain`, `engine`, `native`, `ladder`, and the
//! bare `daisy_` prefix for whole-system events (exceptions,
//! interrupts, MMIO). Counters end in `_total`; degradations are one
//! counter family labelled by `cause`, rung occupancy one gauge family
//! labelled by `rung`.

use crate::error::{Degradation, DegradeCause, Rung};
use crate::native::NativeStats;
use crate::stats::RunStats;
use crate::trace::TraceEvent;
use crate::vmm::VmmStats;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Every monotone counter the registry tracks, in stable index order
/// (`Counter::ALL[i] as usize == i`, pinned by a unit test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Counter {
    /// Pages with at least one translation created.
    PagesTranslated,
    /// Groups (entry points) translated, including retranslations.
    GroupsTranslated,
    /// Page translations destroyed by code modification.
    Invalidations,
    /// Page translations evicted by the LRU code-area bound.
    CastOuts,
    /// Entries retranslated conservatively after repeated aliasing.
    AliasRetranslations,
    /// Entries promoted to the hot translation tier.
    HotPromotions,
    /// Interpret-ahead hint gatherings that ran out of budget.
    HintBudgetExhausted,
    /// Bytes of translated VLIW code ever produced (monotone).
    CodeBytesEmitted,
    /// Dispatches that went through the VMM (lookup or translation).
    VmmDispatches,
    /// Dispatches that followed a chain link or indirect-cache entry.
    ChainedDispatches,
    /// Dispatches whose branch target stayed on the same page.
    OnpageDispatches,
    /// Cross-page direct branches executed.
    CrosspageDirect,
    /// Cross-page branches via the link register.
    CrosspageViaLr,
    /// Cross-page branches via the count register.
    CrosspageViaCtr,
    /// Chain links installed on direct exits.
    LinkInstalls,
    /// Chain links found severed and cleared.
    Severs,
    /// Inline indirect-dispatch cache hits.
    IcacheHits,
    /// Inline indirect-dispatch cache misses.
    IcacheMisses,
    /// Tree instructions executed (any engine tier).
    Vliws,
    /// Cycles lost to cache misses.
    StallCycles,
    /// Instructions executed by the VMM's interpreter.
    InterpInstrs,
    /// Base instructions retired (see [`RunStats::approx_base_instrs`]).
    RetiredInstrs,
    /// Load parcels executed.
    Loads,
    /// Store parcels executed.
    Stores,
    /// Run-time load-store alias failures.
    AliasFailures,
    /// Precise exceptions delivered.
    Exceptions,
    /// External interrupts delivered to the guest.
    InterruptsTaken,
    /// Code-modification (self-modifying code) invalidations taken.
    CodeModifications,
    /// MMIO device accesses serviced via the interpreter bail path.
    MmioOps,
    /// Interrupts delivered at a boundary a native-tier run produced.
    NativeYieldPreempts,
    /// Groups lowered to native host code.
    NativeCompiles,
    /// Groups the native lowerer refused.
    NativeRefusals,
    /// Dispatches that entered native code.
    NativeDispatches,
    /// Group transfers that stayed inside native code (patched edges).
    NativeChained,
    /// Native runs that bailed back to the packed engine mid-group.
    NativeBails,
    /// Chain edges patched into direct native jumps.
    NativeEdgePatches,
    /// Native-tier epoch flushes (every patched edge restored and every
    /// compiled group retired).
    NativeFlushes,
    /// Tree instructions executed natively.
    NativeVliws,
    /// Indirect exits resolved by the inline IBTC.
    NativeIbtcHits,
    /// Flight-recorder events discarded because the ring was full.
    FlightRecorderDropped,
}

impl Counter {
    /// Number of counters.
    pub const COUNT: usize = 40;

    /// Every counter, in index order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::PagesTranslated,
        Counter::GroupsTranslated,
        Counter::Invalidations,
        Counter::CastOuts,
        Counter::AliasRetranslations,
        Counter::HotPromotions,
        Counter::HintBudgetExhausted,
        Counter::CodeBytesEmitted,
        Counter::VmmDispatches,
        Counter::ChainedDispatches,
        Counter::OnpageDispatches,
        Counter::CrosspageDirect,
        Counter::CrosspageViaLr,
        Counter::CrosspageViaCtr,
        Counter::LinkInstalls,
        Counter::Severs,
        Counter::IcacheHits,
        Counter::IcacheMisses,
        Counter::Vliws,
        Counter::StallCycles,
        Counter::InterpInstrs,
        Counter::RetiredInstrs,
        Counter::Loads,
        Counter::Stores,
        Counter::AliasFailures,
        Counter::Exceptions,
        Counter::InterruptsTaken,
        Counter::CodeModifications,
        Counter::MmioOps,
        Counter::NativeYieldPreempts,
        Counter::NativeCompiles,
        Counter::NativeRefusals,
        Counter::NativeDispatches,
        Counter::NativeChained,
        Counter::NativeBails,
        Counter::NativeEdgePatches,
        Counter::NativeFlushes,
        Counter::NativeVliws,
        Counter::NativeIbtcHits,
        Counter::FlightRecorderDropped,
    ];

    /// Stable Prometheus metric name (`daisy_<layer>_<what>_total`).
    pub fn name(self) -> &'static str {
        match self {
            Counter::PagesTranslated => "daisy_vmm_pages_translated_total",
            Counter::GroupsTranslated => "daisy_vmm_groups_translated_total",
            Counter::Invalidations => "daisy_vmm_invalidations_total",
            Counter::CastOuts => "daisy_vmm_cast_outs_total",
            Counter::AliasRetranslations => "daisy_vmm_alias_retranslations_total",
            Counter::HotPromotions => "daisy_vmm_hot_promotions_total",
            Counter::HintBudgetExhausted => "daisy_vmm_hint_budget_exhausted_total",
            Counter::CodeBytesEmitted => "daisy_vmm_code_bytes_emitted_total",
            Counter::VmmDispatches => "daisy_dispatch_vmm_total",
            Counter::ChainedDispatches => "daisy_dispatch_chained_total",
            Counter::OnpageDispatches => "daisy_dispatch_onpage_total",
            Counter::CrosspageDirect => "daisy_dispatch_crosspage_direct_total",
            Counter::CrosspageViaLr => "daisy_dispatch_crosspage_via_lr_total",
            Counter::CrosspageViaCtr => "daisy_dispatch_crosspage_via_ctr_total",
            Counter::LinkInstalls => "daisy_chain_link_installs_total",
            Counter::Severs => "daisy_chain_severs_total",
            Counter::IcacheHits => "daisy_chain_icache_hits_total",
            Counter::IcacheMisses => "daisy_chain_icache_misses_total",
            Counter::Vliws => "daisy_engine_vliws_total",
            Counter::StallCycles => "daisy_engine_stall_cycles_total",
            Counter::InterpInstrs => "daisy_engine_interp_instrs_total",
            Counter::RetiredInstrs => "daisy_engine_retired_instrs_total",
            Counter::Loads => "daisy_engine_loads_total",
            Counter::Stores => "daisy_engine_stores_total",
            Counter::AliasFailures => "daisy_engine_alias_failures_total",
            Counter::Exceptions => "daisy_exceptions_total",
            Counter::InterruptsTaken => "daisy_interrupts_taken_total",
            Counter::CodeModifications => "daisy_code_modifications_total",
            Counter::MmioOps => "daisy_mmio_ops_total",
            Counter::NativeYieldPreempts => "daisy_native_yield_preempts_total",
            Counter::NativeCompiles => "daisy_native_compiles_total",
            Counter::NativeRefusals => "daisy_native_refusals_total",
            Counter::NativeDispatches => "daisy_native_dispatches_total",
            Counter::NativeChained => "daisy_native_chained_total",
            Counter::NativeBails => "daisy_native_bails_total",
            Counter::NativeEdgePatches => "daisy_native_edge_patches_total",
            Counter::NativeFlushes => "daisy_native_flushes_total",
            Counter::NativeVliws => "daisy_native_vliws_total",
            Counter::NativeIbtcHits => "daisy_native_ibtc_hits_total",
            Counter::FlightRecorderDropped => "daisy_flight_recorder_dropped_total",
        }
    }

    /// One-line help string for the Prometheus `# HELP` header.
    pub fn help(self) -> &'static str {
        match self {
            Counter::PagesTranslated => "Pages with at least one translation created",
            Counter::GroupsTranslated => "Groups translated, including retranslations",
            Counter::Invalidations => "Page translations destroyed by code modification",
            Counter::CastOuts => "Page translations evicted by the LRU code-area bound",
            Counter::AliasRetranslations => "Entries retranslated with load speculation inhibited",
            Counter::HotPromotions => "Entries promoted to the hot translation tier",
            Counter::HintBudgetExhausted => {
                "Interpret-ahead hint gatherings that ran out of budget"
            }
            Counter::CodeBytesEmitted => "Bytes of translated VLIW code ever produced",
            Counter::VmmDispatches => "Dispatches through the VMM (lookup or translation)",
            Counter::ChainedDispatches => "Dispatches that followed a chain link or indirect cache",
            Counter::OnpageDispatches => "Dispatches whose branch target stayed on the same page",
            Counter::CrosspageDirect => "Cross-page direct branches executed",
            Counter::CrosspageViaLr => "Cross-page branches via the link register",
            Counter::CrosspageViaCtr => "Cross-page branches via the count register",
            Counter::LinkInstalls => "Chain links installed on direct exits",
            Counter::Severs => "Chain links found severed and cleared",
            Counter::IcacheHits => "Inline indirect-dispatch cache hits",
            Counter::IcacheMisses => "Inline indirect-dispatch cache misses",
            Counter::Vliws => "Tree instructions executed on any engine tier",
            Counter::StallCycles => "Cycles lost to cache misses",
            Counter::InterpInstrs => "Instructions executed by the VMM's interpreter",
            Counter::RetiredInstrs => "Base instructions retired (approximate, see RunStats)",
            Counter::Loads => "Load parcels executed",
            Counter::Stores => "Store parcels executed",
            Counter::AliasFailures => "Run-time load-store alias failures",
            Counter::Exceptions => "Precise exceptions delivered",
            Counter::InterruptsTaken => "External interrupts delivered to the guest",
            Counter::CodeModifications => "Self-modifying-code invalidations taken",
            Counter::MmioOps => "MMIO device accesses serviced via the interpreter bail",
            Counter::NativeYieldPreempts => "Interrupts delivered at a native-run boundary",
            Counter::NativeCompiles => "Groups lowered to native host code",
            Counter::NativeRefusals => "Groups the native lowerer refused",
            Counter::NativeDispatches => "Dispatches that entered native code",
            Counter::NativeChained => "Group transfers that stayed inside native code",
            Counter::NativeBails => "Native runs that bailed back to the packed engine",
            Counter::NativeEdgePatches => "Chain edges patched into direct native jumps",
            Counter::NativeFlushes => "Native-tier epoch flushes (all patched edges severed)",
            Counter::NativeVliws => "Tree instructions executed natively",
            Counter::NativeIbtcHits => "Indirect exits resolved by the inline IBTC",
            Counter::FlightRecorderDropped => "Flight-recorder events discarded (ring full)",
        }
    }
}

/// Every point-in-time gauge the registry tracks, in stable index
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gauge {
    /// Bytes of translated VLIW code currently live.
    CodeBytesLive,
    /// Pages with a live translation.
    LivePages,
    /// Groups currently live in the translation cache.
    LiveGroups,
    /// Pages abandoned to the reference interpreter (bottom rung).
    InterpPages,
    /// Entry points currently below their default ladder rung.
    DegradedEntries,
}

impl Gauge {
    /// Number of gauges.
    pub const COUNT: usize = 5;

    /// Every gauge, in index order.
    pub const ALL: [Gauge; Gauge::COUNT] = [
        Gauge::CodeBytesLive,
        Gauge::LivePages,
        Gauge::LiveGroups,
        Gauge::InterpPages,
        Gauge::DegradedEntries,
    ];

    /// Stable Prometheus metric name.
    pub fn name(self) -> &'static str {
        match self {
            Gauge::CodeBytesLive => "daisy_vmm_code_bytes_live",
            Gauge::LivePages => "daisy_vmm_live_pages",
            Gauge::LiveGroups => "daisy_vmm_live_groups",
            Gauge::InterpPages => "daisy_ladder_interp_pages",
            Gauge::DegradedEntries => "daisy_ladder_degraded_entries",
        }
    }

    /// One-line help string for the Prometheus `# HELP` header.
    pub fn help(self) -> &'static str {
        match self {
            Gauge::CodeBytesLive => "Bytes of translated VLIW code currently live",
            Gauge::LivePages => "Pages with a live translation",
            Gauge::LiveGroups => "Groups currently live in the translation cache",
            Gauge::InterpPages => "Pages abandoned to the reference interpreter",
            Gauge::DegradedEntries => "Entry points currently below their default rung",
        }
    }
}

/// Metric name of the per-cause degradation counter family
/// (`cause` label).
pub const DEGRADATIONS_METRIC: &str = "daisy_degradations_total";

/// Metric name of the per-rung ladder occupancy gauge family
/// (`rung` label).
pub const RUNG_ENTRIES_METRIC: &str = "daisy_ladder_rung_entries";

/// Metric name of the issue-width histogram (parcels per executed
/// tree instruction).
pub const ISSUE_HIST_METRIC: &str = "daisy_engine_issue_parcels";

/// Metric name of the interrupt-latency histogram (retired base
/// instructions from post to delivery).
pub const IRQ_HIST_METRIC: &str = "daisy_irq_latency_instrs";

/// Upper bucket bounds of the issue-width histogram: one bucket per
/// parcel count 0..=23; the overflow bucket holds ≥ 24 (mirroring
/// [`RunStats::issue_histogram`]).
pub const ISSUE_BOUNDS: [u64; 24] = {
    let mut a = [0u64; 24];
    let mut i = 0;
    while i < 24 {
        a[i] = i as u64;
        i += 1;
    }
    a
};

/// Upper bucket bounds of the interrupt-latency histogram, in retired
/// base instructions (log2-spaced; the overflow bucket holds
/// > 16384).
pub const IRQ_BOUNDS: [u64; 16] =
    [0, 1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384];

/// A frozen histogram: per-bucket (non-cumulative) counts, one bucket
/// per bound plus a final overflow bucket, with the sum and count of
/// recorded samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Upper bound of each non-overflow bucket (inclusive).
    pub bounds: &'static [u64],
    /// Per-bucket counts; `bounds.len() + 1` entries, last = overflow.
    pub buckets: Vec<u64>,
    /// Sum of recorded samples (for the overflow bucket of the issue
    /// histogram, samples contribute their bucket bound — a documented
    /// approximation).
    pub sum: u64,
    /// Number of recorded samples.
    pub count: u64,
}

impl HistSnapshot {
    fn empty(bounds: &'static [u64]) -> HistSnapshot {
        HistSnapshot { bounds, buckets: vec![0; bounds.len() + 1], sum: 0, count: 0 }
    }

    /// Bucket-wise difference `self - earlier` (saturating).
    pub fn delta(&self, earlier: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            bounds: self.bounds,
            buckets: self
                .buckets
                .iter()
                .zip(earlier.buckets.iter().chain(std::iter::repeat(&0)))
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
            count: self.count.saturating_sub(earlier.count),
        }
    }

    /// Renders the histogram as one JSON object.
    pub fn to_json(&self) -> String {
        let bounds: Vec<String> = self.bounds.iter().map(u64::to_string).collect();
        let buckets: Vec<String> = self.buckets.iter().map(u64::to_string).collect();
        format!(
            "{{\"bounds\": [{}], \"buckets\": [{}], \"sum\": {}, \"count\": {}}}",
            bounds.join(", "),
            buckets.join(", "),
            self.sum,
            self.count
        )
    }
}

/// Interrupt-delivery latency accumulator: distance, in retired base
/// instructions, from the boundary where a pending interrupt was first
/// observed undeliverable to the boundary where it was delivered.
/// Maintained by [`crate::system::DaisySystem::step`]; zero cost when
/// no interrupt is pending.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IrqLatency {
    buckets: [u64; IRQ_BOUNDS.len() + 1],
    sum: u64,
    count: u64,
}

impl IrqLatency {
    /// Records one delivery `latency` (retired instructions from post
    /// to delivery; 0 when delivered at the observing boundary).
    pub fn record(&mut self, latency: u64) {
        let idx = IRQ_BOUNDS.iter().position(|&b| latency <= b).unwrap_or(IRQ_BOUNDS.len());
        self.buckets[idx] += 1;
        self.sum += latency;
        self.count += 1;
    }

    /// Deliveries recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Freezes the accumulator into a [`HistSnapshot`].
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            bounds: &IRQ_BOUNDS,
            buckets: self.buckets.to_vec(),
            sum: self.sum,
            count: self.count,
        }
    }
}

/// Everything a [`MetricsSnapshot`] is gathered from — the plain
/// counter structs each layer already maintains, plus the few
/// system-owned aggregates. [`crate::system::DaisySystem`] assembles
/// this; it is public so alternative harnesses can gather snapshots
/// from hand-built parts.
#[derive(Debug, Clone, Copy)]
pub struct MetricsSource<'a> {
    /// Engine counters.
    pub stats: &'a RunStats,
    /// VMM counters.
    pub vmm: &'a VmmStats,
    /// Native-tier counters, when the tier is active.
    pub native: Option<&'a NativeStats>,
    /// Every ladder step taken so far, in order.
    pub degradations: &'a [Degradation],
    /// Degraded-entry occupancy per rung, in [`Rung::ALL`] order.
    pub rung_entries: [u64; Rung::ALL.len()],
    /// Pages with a live translation.
    pub live_pages: u64,
    /// Groups live in the translation cache.
    pub live_groups: u64,
    /// Pages abandoned to the reference interpreter.
    pub interp_pages: u64,
    /// Interrupts delivered at a boundary a native run produced.
    pub native_yield_preempts: u64,
    /// Interrupt post-to-delivery latency accumulator.
    pub irq_latency: &'a IrqLatency,
    /// Flight-recorder events discarded because the ring was full.
    pub flight_dropped: u64,
}

/// A point-in-time copy of every metric. Plain data: cheap to clone,
/// diff, and serialize; two snapshots of identical state compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, indexed by `Counter as usize`.
    pub counters: [u64; Counter::COUNT],
    /// Gauge values, indexed by `Gauge as usize`.
    pub gauges: [u64; Gauge::COUNT],
    /// Degradations by cause, in [`DegradeCause::ALL`] order.
    pub degradations: [u64; DegradeCause::ALL.len()],
    /// Degraded-entry occupancy per rung, in [`Rung::ALL`] order.
    pub rung_entries: [u64; Rung::ALL.len()],
    /// Parcels per executed tree instruction.
    pub issue_parcels: HistSnapshot,
    /// Interrupt post-to-delivery latency, in retired instructions.
    pub irq_latency: HistSnapshot,
}

impl Default for MetricsSnapshot {
    fn default() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            degradations: [0; DegradeCause::ALL.len()],
            rung_entries: [0; Rung::ALL.len()],
            issue_parcels: HistSnapshot::empty(&ISSUE_BOUNDS),
            irq_latency: HistSnapshot::empty(&IRQ_BOUNDS),
        }
    }
}

impl MetricsSnapshot {
    /// Gathers a snapshot from the per-layer counter structs. A pure
    /// copy — no layer is perturbed, so a snapshot can be taken at any
    /// group boundary, any number of times.
    pub fn gather(src: &MetricsSource<'_>) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        let s = src.stats;
        let v = src.vmm;
        {
            let c = &mut snap.counters;
            c[Counter::PagesTranslated as usize] = v.pages_translated;
            c[Counter::GroupsTranslated as usize] = v.groups_translated;
            c[Counter::Invalidations as usize] = v.invalidations;
            c[Counter::CastOuts as usize] = v.cast_outs;
            c[Counter::AliasRetranslations as usize] = v.alias_retranslations;
            c[Counter::HotPromotions as usize] = v.hot_promotions;
            c[Counter::HintBudgetExhausted as usize] = v.hint_budget_exhausted;
            c[Counter::CodeBytesEmitted as usize] = v.code_bytes_total;
            c[Counter::VmmDispatches as usize] = s.groups_entered;
            c[Counter::ChainedDispatches as usize] = s.chain.chained_dispatches;
            c[Counter::OnpageDispatches as usize] = s.onpage_dispatches;
            c[Counter::CrosspageDirect as usize] = s.crosspage.direct;
            c[Counter::CrosspageViaLr as usize] = s.crosspage.via_lr;
            c[Counter::CrosspageViaCtr as usize] = s.crosspage.via_ctr;
            c[Counter::LinkInstalls as usize] = s.chain.link_installs;
            c[Counter::Severs as usize] = s.chain.severs;
            c[Counter::IcacheHits as usize] = s.chain.icache_hits;
            c[Counter::IcacheMisses as usize] = s.chain.icache_misses;
            c[Counter::Vliws as usize] = s.vliws_executed;
            c[Counter::StallCycles as usize] = s.stall_cycles;
            c[Counter::InterpInstrs as usize] = s.interp_instrs;
            c[Counter::RetiredInstrs as usize] = s.approx_base_instrs();
            c[Counter::Loads as usize] = s.loads;
            c[Counter::Stores as usize] = s.stores;
            c[Counter::AliasFailures as usize] = s.alias_failures;
            c[Counter::Exceptions as usize] = s.exceptions;
            c[Counter::InterruptsTaken as usize] = s.interrupts_taken;
            c[Counter::CodeModifications as usize] = s.code_modifications;
            c[Counter::MmioOps as usize] = s.mmio_ops;
            c[Counter::NativeYieldPreempts as usize] = src.native_yield_preempts;
            if let Some(n) = src.native {
                c[Counter::NativeCompiles as usize] = n.compiles;
                c[Counter::NativeRefusals as usize] = n.refusals;
                c[Counter::NativeDispatches as usize] = n.dispatches;
                c[Counter::NativeChained as usize] = n.chained;
                c[Counter::NativeBails as usize] = n.bails;
                c[Counter::NativeEdgePatches as usize] = n.edge_patches;
                c[Counter::NativeFlushes as usize] = n.flushes;
                c[Counter::NativeVliws as usize] = n.vliws_native;
                c[Counter::NativeIbtcHits as usize] = n.ibtc_hits;
            }
            c[Counter::FlightRecorderDropped as usize] = src.flight_dropped;
        }
        snap.gauges[Gauge::CodeBytesLive as usize] = v.code_bytes;
        snap.gauges[Gauge::LivePages as usize] = src.live_pages;
        snap.gauges[Gauge::LiveGroups as usize] = src.live_groups;
        snap.gauges[Gauge::InterpPages as usize] = src.interp_pages;
        snap.gauges[Gauge::DegradedEntries as usize] = src.rung_entries.iter().sum::<u64>();
        for d in src.degradations {
            snap.degradations[d.cause.index()] += 1;
        }
        snap.rung_entries = src.rung_entries;
        // Issue histogram: RunStats buckets parcels-per-VLIW linearly,
        // with index 24 holding everything ≥ 24; overflow samples
        // contribute their bound to the sum (approximation, documented
        // on `HistSnapshot::sum`).
        snap.issue_parcels.buckets.copy_from_slice(&s.issue_histogram);
        for (i, n) in s.issue_histogram.iter().enumerate() {
            snap.issue_parcels.count += n;
            snap.issue_parcels.sum += n * (i as u64).min(24);
        }
        snap.irq_latency = src.irq_latency.snapshot();
        snap
    }

    /// The value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// The value of one gauge.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g as usize]
    }

    /// Degradations recorded under `cause`.
    pub fn degradations_by(&self, cause: DegradeCause) -> u64 {
        self.degradations[cause.index()]
    }

    /// Degraded entries currently at `rung`.
    pub fn rung_entries(&self, rung: Rung) -> u64 {
        self.rung_entries[rung.index()]
    }

    /// The difference `self - earlier`: counters, degradation counts,
    /// and histograms subtract (saturating); gauges and rung occupancy
    /// keep `self`'s point-in-time values.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut d = self.clone();
        for (i, v) in d.counters.iter_mut().enumerate() {
            *v = v.saturating_sub(earlier.counters[i]);
        }
        for (i, v) in d.degradations.iter_mut().enumerate() {
            *v = v.saturating_sub(earlier.degradations[i]);
        }
        d.issue_parcels = self.issue_parcels.delta(&earlier.issue_parcels);
        d.irq_latency = self.irq_latency.delta(&earlier.irq_latency);
        d
    }

    /// Renders the snapshot as one JSON object keyed by metric name
    /// (hand-rolled: every key is a static identifier and every value a
    /// number, so no escaping is ever needed).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("{\"counters\": {");
        for (i, c) in Counter::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", c.name(), self.counters[i]);
        }
        out.push_str("}, \"gauges\": {");
        for (i, g) in Gauge::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", g.name(), self.gauges[i]);
        }
        out.push_str("}, \"degradations_by_cause\": {");
        for (i, cause) in DegradeCause::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", cause.name(), self.degradations[i]);
        }
        out.push_str("}, \"ladder_rung_entries\": {");
        for (i, rung) in Rung::ALL.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{}\": {}", rung.name(), self.rung_entries[i]);
        }
        let _ = write!(
            out,
            "}}, \"histograms\": {{\"{ISSUE_HIST_METRIC}\": {}, \"{IRQ_HIST_METRIC}\": {}}}}}",
            self.issue_parcels.to_json(),
            self.irq_latency.to_json()
        );
        out
    }

    /// Renders the snapshot in Prometheus text exposition format, with
    /// no instance labels. For several snapshots in one exposition
    /// (e.g. one per workload) use [`prometheus_text`], which groups
    /// each metric's series under a single `# TYPE` header as the
    /// format requires.
    pub fn to_prometheus(&self) -> String {
        prometheus_text(&[("", self)])
    }
}

fn prom_labels(workload: &str, extra: Option<(&str, &str)>) -> String {
    let mut parts: Vec<String> = Vec::new();
    if !workload.is_empty() {
        parts.push(format!("workload=\"{workload}\""));
    }
    if let Some((k, v)) = extra {
        parts.push(format!("{k}=\"{v}\""));
    }
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn prom_histogram(out: &mut String, metric: &str, help: &str, series: &[(&str, &HistSnapshot)]) {
    let _ = writeln!(out, "# HELP {metric} {help}");
    let _ = writeln!(out, "# TYPE {metric} histogram");
    for (workload, h) in series {
        let mut cum = 0u64;
        for (i, bound) in h.bounds.iter().enumerate() {
            cum += h.buckets[i];
            let labels = prom_labels(workload, Some(("le", &bound.to_string())));
            let _ = writeln!(out, "{metric}_bucket{labels} {cum}");
        }
        cum += h.buckets.last().copied().unwrap_or(0);
        let labels = prom_labels(workload, Some(("le", "+Inf")));
        let _ = writeln!(out, "{metric}_bucket{labels} {cum}");
        let plain = prom_labels(workload, None);
        let _ = writeln!(out, "{metric}_sum{plain} {}", h.sum);
        let _ = writeln!(out, "{metric}_count{plain} {}", h.count);
    }
}

/// Renders several labelled snapshots as one Prometheus text
/// exposition: each metric appears once, with one `# HELP`/`# TYPE`
/// header followed by every series (labelled `workload="<name>"`; an
/// empty name omits the label). Label values are used verbatim —
/// workload names are plain identifiers, so no escaping is needed.
pub fn prometheus_text(series: &[(&str, &MetricsSnapshot)]) -> String {
    let mut out = String::with_capacity(4096 * series.len().max(1));
    for (i, c) in Counter::ALL.iter().enumerate() {
        let _ = writeln!(out, "# HELP {} {}", c.name(), c.help());
        let _ = writeln!(out, "# TYPE {} counter", c.name());
        for (workload, snap) in series {
            let _ =
                writeln!(out, "{}{} {}", c.name(), prom_labels(workload, None), snap.counters[i]);
        }
    }
    for (i, g) in Gauge::ALL.iter().enumerate() {
        let _ = writeln!(out, "# HELP {} {}", g.name(), g.help());
        let _ = writeln!(out, "# TYPE {} gauge", g.name());
        for (workload, snap) in series {
            let _ = writeln!(out, "{}{} {}", g.name(), prom_labels(workload, None), snap.gauges[i]);
        }
    }
    let _ = writeln!(out, "# HELP {DEGRADATIONS_METRIC} Ladder degradations by cause");
    let _ = writeln!(out, "# TYPE {DEGRADATIONS_METRIC} counter");
    for (workload, snap) in series {
        for (i, cause) in DegradeCause::ALL.iter().enumerate() {
            let labels = prom_labels(workload, Some(("cause", cause.name())));
            let _ = writeln!(out, "{DEGRADATIONS_METRIC}{labels} {}", snap.degradations[i]);
        }
    }
    let _ = writeln!(out, "# HELP {RUNG_ENTRIES_METRIC} Degraded-entry occupancy per ladder rung");
    let _ = writeln!(out, "# TYPE {RUNG_ENTRIES_METRIC} gauge");
    for (workload, snap) in series {
        for (i, rung) in Rung::ALL.iter().enumerate() {
            let labels = prom_labels(workload, Some(("rung", rung.name())));
            let _ = writeln!(out, "{RUNG_ENTRIES_METRIC}{labels} {}", snap.rung_entries[i]);
        }
    }
    let issue: Vec<(&str, &HistSnapshot)> =
        series.iter().map(|(w, s)| (*w, &s.issue_parcels)).collect();
    prom_histogram(
        &mut out,
        ISSUE_HIST_METRIC,
        "Parcels executed per tree instruction (taken path)",
        &issue,
    );
    let irq: Vec<(&str, &HistSnapshot)> =
        series.iter().map(|(w, s)| (*w, &s.irq_latency)).collect();
    prom_histogram(
        &mut out,
        IRQ_HIST_METRIC,
        "External-interrupt latency from post to delivery, in retired instructions",
        &irq,
    );
    out
}

struct RegistryInner {
    counters: [AtomicU64; Counter::COUNT],
    gauges: [AtomicU64; Gauge::COUNT],
    degradations: [AtomicU64; DegradeCause::ALL.len()],
    rung_entries: [AtomicU64; Rung::ALL.len()],
    issue: [AtomicU64; ISSUE_BOUNDS.len() + 1],
    issue_sum: AtomicU64,
    issue_count: AtomicU64,
    irq: [AtomicU64; IRQ_BOUNDS.len() + 1],
    irq_sum: AtomicU64,
    irq_count: AtomicU64,
}

impl fmt::Debug for RegistryInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegistryInner").finish_non_exhaustive()
    }
}

impl Default for RegistryInner {
    fn default() -> RegistryInner {
        RegistryInner {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            degradations: std::array::from_fn(|_| AtomicU64::new(0)),
            rung_entries: std::array::from_fn(|_| AtomicU64::new(0)),
            issue: std::array::from_fn(|_| AtomicU64::new(0)),
            issue_sum: AtomicU64::new(0),
            issue_count: AtomicU64::new(0),
            irq: std::array::from_fn(|_| AtomicU64::new(0)),
            irq_sum: AtomicU64::new(0),
            irq_count: AtomicU64::new(0),
        }
    }
}

/// A lock-free bank of `AtomicU64` metric slots shared between the
/// publishing system and any number of readers.
///
/// Cloning the registry clones the *handle* (`Arc`); all clones see the
/// same slots, so a monitoring thread (or a scrape endpoint) can hold
/// one clone and take
/// [`MetricsRegistry::snapshot`]s while the system runs and publishes
/// into another. Publication stores absolute values with relaxed
/// ordering: individual slots are never torn, though a concurrent
/// snapshot may mix values from two adjacent publications (each of
/// which is internally consistent at a group boundary). One system
/// publishes per registry; give each guest its own.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl MetricsRegistry {
    /// A fresh registry with every slot zero.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Publishes `snap` into the registry (absolute values, relaxed
    /// stores). Called by the system on its publish cadence; harnesses
    /// holding their own registry can publish hand-gathered snapshots.
    pub fn publish(&self, snap: &MetricsSnapshot) {
        let r = &*self.inner;
        for (i, v) in snap.counters.iter().enumerate() {
            r.counters[i].store(*v, Ordering::Relaxed);
        }
        for (i, v) in snap.gauges.iter().enumerate() {
            r.gauges[i].store(*v, Ordering::Relaxed);
        }
        for (i, v) in snap.degradations.iter().enumerate() {
            r.degradations[i].store(*v, Ordering::Relaxed);
        }
        for (i, v) in snap.rung_entries.iter().enumerate() {
            r.rung_entries[i].store(*v, Ordering::Relaxed);
        }
        for (i, v) in snap.issue_parcels.buckets.iter().enumerate() {
            r.issue[i].store(*v, Ordering::Relaxed);
        }
        r.issue_sum.store(snap.issue_parcels.sum, Ordering::Relaxed);
        r.issue_count.store(snap.issue_parcels.count, Ordering::Relaxed);
        for (i, v) in snap.irq_latency.buckets.iter().enumerate() {
            r.irq[i].store(*v, Ordering::Relaxed);
        }
        r.irq_sum.store(snap.irq_latency.sum, Ordering::Relaxed);
        r.irq_count.store(snap.irq_latency.count, Ordering::Relaxed);
    }

    /// Reads every slot into a [`MetricsSnapshot`] (relaxed loads).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let r = &*self.inner;
        let mut snap = MetricsSnapshot::default();
        for (i, v) in snap.counters.iter_mut().enumerate() {
            *v = r.counters[i].load(Ordering::Relaxed);
        }
        for (i, v) in snap.gauges.iter_mut().enumerate() {
            *v = r.gauges[i].load(Ordering::Relaxed);
        }
        for (i, v) in snap.degradations.iter_mut().enumerate() {
            *v = r.degradations[i].load(Ordering::Relaxed);
        }
        for (i, v) in snap.rung_entries.iter_mut().enumerate() {
            *v = r.rung_entries[i].load(Ordering::Relaxed);
        }
        for (i, v) in snap.issue_parcels.buckets.iter_mut().enumerate() {
            *v = r.issue[i].load(Ordering::Relaxed);
        }
        snap.issue_parcels.sum = r.issue_sum.load(Ordering::Relaxed);
        snap.issue_parcels.count = r.issue_count.load(Ordering::Relaxed);
        for (i, v) in snap.irq_latency.buckets.iter_mut().enumerate() {
            *v = r.irq[i].load(Ordering::Relaxed);
        }
        snap.irq_latency.sum = r.irq_sum.load(Ordering::Relaxed);
        snap.irq_latency.count = r.irq_count.load(Ordering::Relaxed);
        snap
    }

    /// The current value of one counter slot.
    pub fn counter(&self, c: Counter) -> u64 {
        self.inner.counters[c as usize].load(Ordering::Relaxed)
    }

    /// The current value of one gauge slot.
    pub fn gauge(&self, g: Gauge) -> u64 {
        self.inner.gauges[g as usize].load(Ordering::Relaxed)
    }
}

/// A structured post-mortem: the flight recorder's recent events, the
/// run's full degradation chain, and a metrics snapshot, captured at
/// the moment something went wrong (or on request). Produced by
/// [`crate::system::DaisySystem::degrade`] automatically — with no
/// [`crate::trace::TraceSink`] installed — and attached to
/// fault-injection divergence reports by [`crate::inject`].
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortem {
    /// Why the dump was taken.
    pub reason: String,
    /// The flight recorder's retained events, oldest first, each with
    /// its global sequence number.
    pub events: Vec<(u64, TraceEvent)>,
    /// Events the ring had already discarded when the dump was taken.
    pub dropped: u64,
    /// Every ladder step taken this run, in order (the last entries are
    /// the degradation chain that triggered the dump).
    pub chain: Vec<Degradation>,
    /// Metrics at the moment of the dump.
    pub snapshot: MetricsSnapshot,
}

impl fmt::Display for PostMortem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== daisy post-mortem: {} ===", self.reason)?;
        writeln!(f, "degradation chain ({} steps):", self.chain.len())?;
        for (i, d) in self.chain.iter().enumerate() {
            writeln!(f, "  {}. {d}", i + 1)?;
        }
        writeln!(
            f,
            "flight recorder ({} events retained, {} dropped):",
            self.events.len(),
            self.dropped
        )?;
        for (seq, ev) in &self.events {
            writeln!(f, "  [{seq}] {ev}")?;
        }
        let s = &self.snapshot;
        writeln!(
            f,
            "snapshot: dispatches={} (vmm {} + chained {}), retired={}, vliws={}, \
             translations={}, cast_outs={}, invalidations={}, interrupts={}, degradations={}",
            s.counter(Counter::VmmDispatches) + s.counter(Counter::ChainedDispatches),
            s.counter(Counter::VmmDispatches),
            s.counter(Counter::ChainedDispatches),
            s.counter(Counter::RetiredInstrs),
            s.counter(Counter::Vliws),
            s.counter(Counter::GroupsTranslated),
            s.counter(Counter::CastOuts),
            s.counter(Counter::Invalidations),
            s.counter(Counter::InterruptsTaken),
            s.degradations.iter().sum::<u64>(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_tables_are_in_order_and_unique() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i, "{c:?} out of order");
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(*g as usize, i, "{g:?} out of order");
        }
        let mut names: Vec<&str> = Counter::ALL.iter().map(|c| c.name()).collect();
        names.extend(Gauge::ALL.iter().map(|g| g.name()));
        names.extend([
            DEGRADATIONS_METRIC,
            RUNG_ENTRIES_METRIC,
            ISSUE_HIST_METRIC,
            IRQ_HIST_METRIC,
        ]);
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names must be unique");
        for c in Counter::ALL {
            assert!(c.name().starts_with("daisy_"), "{}", c.name());
            assert!(c.name().ends_with("_total"), "counters end in _total: {}", c.name());
        }
        for g in Gauge::ALL {
            assert!(g.name().starts_with("daisy_"), "{}", g.name());
            assert!(!g.name().ends_with("_total"), "gauges do not end in _total: {}", g.name());
        }
    }

    fn sample_snapshot() -> MetricsSnapshot {
        let mut stats = RunStats { groups_entered: 10, vliws_executed: 400, ..RunStats::default() };
        stats.chain.chained_dispatches = 90;
        stats.issue_histogram[2] = 300;
        stats.issue_histogram[24] = 1;
        let vmm = VmmStats { pages_translated: 3, code_bytes: 1234, ..VmmStats::default() };
        let mut irq = IrqLatency::default();
        irq.record(0);
        irq.record(5);
        irq.record(1_000_000);
        let degs = [Degradation {
            entry: 0x1000,
            from: Rung::Packed,
            to: Rung::Conservative,
            cause: DegradeCause::CastOutPressure,
        }];
        MetricsSnapshot::gather(&MetricsSource {
            stats: &stats,
            vmm: &vmm,
            native: None,
            degradations: &degs,
            rung_entries: [0, 0, 1, 0],
            live_pages: 3,
            live_groups: 7,
            interp_pages: 0,
            native_yield_preempts: 0,
            irq_latency: &irq,
            flight_dropped: 2,
        })
    }

    #[test]
    fn gather_maps_counters_and_histograms() {
        let snap = sample_snapshot();
        assert_eq!(snap.counter(Counter::VmmDispatches), 10);
        assert_eq!(snap.counter(Counter::ChainedDispatches), 90);
        assert_eq!(snap.counter(Counter::Vliws), 400);
        assert_eq!(snap.counter(Counter::PagesTranslated), 3);
        assert_eq!(snap.counter(Counter::FlightRecorderDropped), 2);
        assert_eq!(snap.gauge(Gauge::CodeBytesLive), 1234);
        assert_eq!(snap.gauge(Gauge::LiveGroups), 7);
        assert_eq!(snap.gauge(Gauge::DegradedEntries), 1);
        assert_eq!(snap.degradations_by(DegradeCause::CastOutPressure), 1);
        assert_eq!(snap.rung_entries(Rung::Conservative), 1);
        assert_eq!(snap.issue_parcels.count, 301);
        assert_eq!(snap.issue_parcels.sum, 300 * 2 + 24);
        assert_eq!(snap.irq_latency.count, 3);
        // 0 → bucket 0; 5 → first bound ≥ 5 is 8; 1e6 → overflow.
        assert_eq!(snap.irq_latency.buckets[0], 1);
        assert_eq!(snap.irq_latency.buckets[4], 1);
        assert_eq!(snap.irq_latency.buckets[IRQ_BOUNDS.len()], 1);
    }

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let earlier = sample_snapshot();
        let mut later = earlier.clone();
        later.counters[Counter::Vliws as usize] += 100;
        later.gauges[Gauge::LiveGroups as usize] = 2;
        later.issue_parcels.buckets[2] += 50;
        later.issue_parcels.count += 50;
        let d = later.delta(&earlier);
        assert_eq!(d.counter(Counter::Vliws), 100);
        assert_eq!(d.counter(Counter::VmmDispatches), 0);
        assert_eq!(d.gauge(Gauge::LiveGroups), 2, "gauges keep the later value");
        assert_eq!(d.issue_parcels.buckets[2], 50);
        assert_eq!(d.issue_parcels.count, 50);
    }

    #[test]
    fn json_has_every_metric_name() {
        let json = sample_snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for c in Counter::ALL {
            assert!(json.contains(c.name()), "missing {}", c.name());
        }
        for g in Gauge::ALL {
            assert!(json.contains(g.name()), "missing {}", g.name());
        }
        for cause in DegradeCause::ALL {
            assert!(json.contains(cause.name()), "missing cause {}", cause.name());
        }
        assert!(json.contains(ISSUE_HIST_METRIC) && json.contains(IRQ_HIST_METRIC));
    }

    #[test]
    fn prometheus_groups_series_under_one_type_header() {
        let a = sample_snapshot();
        let b = MetricsSnapshot::default();
        let text = prometheus_text(&[("alpha", &a), ("beta", &b)]);
        // One TYPE line per metric, even with two series.
        let type_lines = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
        assert_eq!(type_lines, Counter::COUNT + Gauge::COUNT + 4);
        assert!(text.contains("daisy_dispatch_vmm_total{workload=\"alpha\"} 10"));
        assert!(text.contains("daisy_dispatch_vmm_total{workload=\"beta\"} 0"));
        assert!(text.contains(
            "daisy_degradations_total{workload=\"alpha\",cause=\"cast_out_pressure\"} 1"
        ));
        assert!(
            text.contains("daisy_ladder_rung_entries{workload=\"alpha\",rung=\"conservative\"} 1")
        );
        assert!(text.contains("daisy_irq_latency_instrs_bucket{workload=\"alpha\",le=\"+Inf\"} 3"));
        assert!(text.contains("daisy_irq_latency_instrs_count{workload=\"alpha\"} 3"));
        // Cumulative buckets are monotone and end at count.
        let mut last = 0u64;
        for l in text
            .lines()
            .filter(|l| l.starts_with("daisy_engine_issue_parcels_bucket{workload=\"alpha\""))
        {
            let v: u64 = l.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "buckets must be cumulative: {l}");
            last = v;
        }
        assert_eq!(last, a.issue_parcels.count);
        // The unlabeled single-snapshot form drops the braces.
        let solo = a.to_prometheus();
        assert!(solo.contains("\ndaisy_dispatch_vmm_total 10\n"));
    }

    #[test]
    fn registry_roundtrips_snapshots_across_clones() {
        let reg = MetricsRegistry::new();
        let reader = reg.clone();
        let snap = sample_snapshot();
        reg.publish(&snap);
        assert_eq!(reader.snapshot(), snap, "clone reads what the original published");
        assert_eq!(reader.counter(Counter::VmmDispatches), 10);
        assert_eq!(reader.gauge(Gauge::LiveGroups), 7);
        // Re-publication overwrites (absolute values, not increments).
        reg.publish(&snap);
        assert_eq!(reader.counter(Counter::VmmDispatches), 10);
    }

    #[test]
    fn post_mortem_display_is_structured() {
        let pm = PostMortem {
            reason: "ladder degradation: entry 0x1000: packed -> conservative (forced)".into(),
            events: vec![(7, TraceEvent::Invalidate { page: 3 })],
            dropped: 1,
            chain: vec![Degradation {
                entry: 0x1000,
                from: Rung::Packed,
                to: Rung::Conservative,
                cause: DegradeCause::Forced,
            }],
            snapshot: sample_snapshot(),
        };
        let dump = pm.to_string();
        assert!(dump.contains("=== daisy post-mortem:"));
        assert!(dump.contains("degradation chain (1 steps):"));
        assert!(dump.contains("1. entry 0x1000: packed -> conservative (forced)"));
        assert!(dump.contains("[7] invalidate page 3"));
        assert!(dump.contains("1 dropped"));
        assert!(dump.contains("snapshot: dispatches=100 (vmm 10 + chained 90)"));
    }
}
