//! Always-on runtime metrics: counters, gauges and bucketed histograms
//! read at a group boundary from the counters every layer of the VMM
//! already keeps, plus the structured post-mortem the flight recorder
//! dumps when something degrades.
//!
//! The paper's VMM runs *under* everything, invisibly and continuously
//! — exactly the regime where a profiler cannot be attached after the
//! fact. [`crate::trace`] (the event ring) and [`crate::profile`]
//! (opt-in attribution) cover deep inspection; this module is the third
//! mode: cheap, live, aggregate, and crash-surviving.
//!
//! * [`MetricsSnapshot`] — a point-in-time copy of every metric,
//!   exact at any group boundary
//!   ([`crate::system::DaisySystem::metrics_snapshot`]), diffable
//!   ([`MetricsSnapshot::delta`]), and serializable as JSON
//!   ([`MetricsSnapshot::to_json`]) or Prometheus text exposition
//!   format ([`prometheus_text`]).
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
//! gathering is a copy taken only when a caller asks for one, so a run
//! nobody reads pays nothing. Host time is measured by `daisybench`
//! (the repository's benchmark crate).
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
use crate::native::{NativeStats, Refusal};
use crate::stats::RunStats;
use crate::trace::TraceEvent;
use crate::vmm::VmmStats;
use std::fmt;
use std::fmt::Write as _;

/// Declares one family of scalar metrics from a table with one row per
/// metric: `Variant => "prometheus_name", "help text", |src| value`,
/// where `value` reads the metric out of a [`MetricsSource`] `src`.
/// Generates the enum (each variant documented by its help text),
/// `COUNT`, `ALL`, `name`, `help`, and the private `gather` that reads
/// every row in order. Row order is index order, JSON order and
/// Prometheus order.
macro_rules! metric_table {
    (
        $(#[$meta:meta])*
        $kind:ident {
            $($var:ident => $name:literal, $help:literal, |$src:ident| $read:expr;)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $kind {
            $(#[doc = $help] $var,)+
        }

        impl $kind {
            /// Number of metrics in the family.
            pub const COUNT: usize = [$($name),+].len();

            /// Every metric of the family, in index order.
            pub const ALL: [$kind; $kind::COUNT] = [$($kind::$var),+];

            /// Stable Prometheus metric name.
            pub fn name(self) -> &'static str {
                match self {
                    $($kind::$var => $name,)+
                }
            }

            /// One-line help string for the Prometheus `# HELP` header.
            pub fn help(self) -> &'static str {
                match self {
                    $($kind::$var => $help,)+
                }
            }

            /// Every metric's current value, in index order.
            fn gather(src: &MetricsSource<'_>) -> [u64; $kind::COUNT] {
                [$({
                    let $src = src;
                    $read
                }),+]
            }
        }
    };
}

metric_table! {
    /// Every monotone counter a snapshot carries, in stable index order
    /// (`Counter::ALL[i] as usize == i`, pinned by a unit test). Names
    /// are `daisy_<layer>_<what>_total`.
    Counter {
        PagesTranslated => "daisy_vmm_pages_translated_total",
            "Pages with at least one translation created",
            |s| s.vmm.pages_translated;
        GroupsTranslated => "daisy_vmm_groups_translated_total",
            "Groups translated, including retranslations",
            |s| s.vmm.groups_translated;
        Invalidations => "daisy_vmm_invalidations_total",
            "Page translations destroyed by code modification",
            |s| s.vmm.invalidations;
        CastOuts => "daisy_vmm_cast_outs_total",
            "Page translations evicted by the LRU code-area bound",
            |s| s.vmm.cast_outs;
        AliasRetranslations => "daisy_vmm_alias_retranslations_total",
            "Entries retranslated with load speculation inhibited",
            |s| s.vmm.alias_retranslations;
        CodeBytesEmitted => "daisy_vmm_code_bytes_emitted_total",
            "Bytes of translated VLIW code ever produced",
            |s| s.vmm.code_bytes_total;
        VmmDispatches => "daisy_dispatch_vmm_total",
            "Dispatches through the VMM (lookup or translation)",
            |s| s.stats.groups_entered;
        ChainedDispatches => "daisy_dispatch_chained_total",
            "Dispatches that followed a chain link or indirect cache",
            |s| s.stats.chain.chained_dispatches;
        OnpageDispatches => "daisy_dispatch_onpage_total",
            "Dispatches whose branch target stayed on the same page",
            |s| s.stats.onpage_dispatches;
        CrosspageDirect => "daisy_dispatch_crosspage_direct_total",
            "Cross-page direct branches executed",
            |s| s.stats.crosspage.direct;
        CrosspageViaLr => "daisy_dispatch_crosspage_via_lr_total",
            "Cross-page branches via the link register",
            |s| s.stats.crosspage.via_lr;
        CrosspageViaCtr => "daisy_dispatch_crosspage_via_ctr_total",
            "Cross-page branches via the count register",
            |s| s.stats.crosspage.via_ctr;
        LinkInstalls => "daisy_chain_link_installs_total",
            "Chain links installed on direct exits",
            |s| s.stats.chain.link_installs;
        Severs => "daisy_chain_severs_total",
            "Chain links found severed and cleared",
            |s| s.stats.chain.severs;
        IcacheHits => "daisy_chain_icache_hits_total",
            "Inline indirect-dispatch cache hits",
            |s| s.stats.chain.icache_hits;
        IcacheMisses => "daisy_chain_icache_misses_total",
            "Inline indirect-dispatch cache misses",
            |s| s.stats.chain.icache_misses;
        Vliws => "daisy_engine_vliws_total",
            "Tree instructions executed on any engine tier",
            |s| s.stats.vliws_executed;
        StallCycles => "daisy_engine_stall_cycles_total",
            "Cycles lost to cache misses",
            |s| s.stats.stall_cycles;
        InterpInstrs => "daisy_engine_interp_instrs_total",
            "Instructions executed by the VMM's interpreter",
            |s| s.stats.interp_instrs;
        RetiredInstrs => "daisy_engine_retired_instrs_total",
            "Base instructions retired (approximate, see RunStats)",
            |s| s.stats.approx_base_instrs();
        Loads => "daisy_engine_loads_total",
            "Load parcels executed",
            |s| s.stats.loads;
        Stores => "daisy_engine_stores_total",
            "Store parcels executed",
            |s| s.stats.stores;
        AliasFailures => "daisy_engine_alias_failures_total",
            "Run-time load-store alias failures",
            |s| s.stats.alias_failures;
        Exceptions => "daisy_exceptions_total",
            "Precise exceptions delivered",
            |s| s.stats.exceptions;
        InterruptsTaken => "daisy_interrupts_taken_total",
            "External interrupts delivered to the guest",
            |s| s.stats.interrupts_taken;
        CodeModifications => "daisy_code_modifications_total",
            "Self-modifying-code invalidations taken",
            |s| s.stats.code_modifications;
        MmioOps => "daisy_mmio_ops_total",
            "MMIO device accesses serviced via the interpreter bail",
            |s| s.stats.mmio_ops;
        NativeYieldPreempts => "daisy_native_yield_preempts_total",
            "Interrupts delivered at a native-run boundary",
            |s| s.native_yield_preempts;
        NativeCompiles => "daisy_native_compiles_total",
            "Groups lowered to native host code",
            |s| s.native.map_or(0, |n| n.compiles);
        NativeRefusals => "daisy_native_refusals_total",
            "Groups the native lowerer refused",
            |s| s.native.map_or(0, |n| n.refusals);
        NativeRefusalsTooLarge => "daisy_native_refusals_too_large_total",
            "Groups refused as too large to lower",
            |s| s.native.map_or(0, |n| n.refusal_histogram[Refusal::TooLarge.index()]);
        NativeRefusalsArenaFull => "daisy_native_refusals_arena_full_total",
            "Groups refused because the code arena was full",
            |s| s.native.map_or(0, |n| n.refusal_histogram[Refusal::ArenaFull.index()]);
        NativeRefusalsUnsupported => "daisy_native_refusals_unsupported_total",
            "Groups refused because the host cannot run native code",
            |s| s.native.map_or(0, |n| n.refusal_histogram[Refusal::Unsupported.index()]);
        NativeDispatches => "daisy_native_dispatches_total",
            "Dispatches that entered native code",
            |s| s.native.map_or(0, |n| n.dispatches);
        NativeChained => "daisy_native_chained_total",
            "Group transfers that stayed inside native code",
            |s| s.native.map_or(0, |n| n.chained);
        NativeBails => "daisy_native_bails_total",
            "Native runs that bailed back to the packed engine",
            |s| s.native.map_or(0, |n| n.bails);
        NativeEdgePatches => "daisy_native_edge_patches_total",
            "Chain edges patched into direct native jumps",
            |s| s.native.map_or(0, |n| n.edge_patches);
        NativeFlushes => "daisy_native_flushes_total",
            "Native-tier flushes (every compiled group retired, code arena reclaimed)",
            |s| s.native.map_or(0, |n| n.flushes);
        NativeBackoffs => "daisy_native_backoffs_total",
            "Flushes whose compiles had not repaid, doubling the native threshold",
            |s| s.native.map_or(0, |n| n.backoffs);
        NativeVliws => "daisy_native_vliws_total",
            "Tree instructions executed natively",
            |s| s.native.map_or(0, |n| n.vliws_native);
        NativeIbtcHits => "daisy_native_ibtc_hits_total",
            "Indirect exits resolved by the inline IBTC",
            |s| s.native.map_or(0, |n| n.ibtc_hits);
        FlightRecorderDropped => "daisy_flight_recorder_dropped_total",
            "Flight-recorder events older than the post-mortem window",
            |s| s.flight_dropped;
    }
}

metric_table! {
    /// Every point-in-time gauge a snapshot carries, in stable index
    /// order.
    Gauge {
        CodeBytesLive => "daisy_vmm_code_bytes_live",
            "Bytes of translated VLIW code currently live",
            |s| s.vmm.code_bytes;
        LivePages => "daisy_vmm_live_pages",
            "Pages with a live translation",
            |s| s.live_pages;
        LiveGroups => "daisy_vmm_live_groups",
            "Groups currently live in the translation cache",
            |s| s.live_groups;
        InterpPages => "daisy_ladder_interp_pages",
            "Pages abandoned to the reference interpreter",
            |s| s.interp_pages;
        DegradedEntries => "daisy_ladder_degraded_entries",
            "Entry points currently below their default rung",
            |s| s.rung_entries.iter().sum::<u64>();
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
/// it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MetricsSource<'a> {
    /// Engine counters.
    pub(crate) stats: &'a RunStats,
    /// VMM counters.
    pub(crate) vmm: &'a VmmStats,
    /// Native-tier counters, when the tier is active.
    pub(crate) native: Option<&'a NativeStats>,
    /// Every ladder step taken so far, in order.
    pub(crate) degradations: &'a [Degradation],
    /// Degraded-entry occupancy per rung, in [`Rung::ALL`] order.
    pub(crate) rung_entries: [u64; Rung::ALL.len()],
    /// Pages with a live translation.
    pub(crate) live_pages: u64,
    /// Groups live in the translation cache.
    pub(crate) live_groups: u64,
    /// Pages abandoned to the reference interpreter.
    pub(crate) interp_pages: u64,
    /// Interrupts delivered at a boundary a native run produced.
    pub(crate) native_yield_preempts: u64,
    /// Interrupt post-to-delivery latency accumulator.
    pub(crate) irq_latency: &'a IrqLatency,
    /// Flight-recorder events older than the post-mortem window
    /// ([`crate::trace::FlightRecorder::post_mortem_dropped`]).
    pub(crate) flight_dropped: u64,
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
    pub(crate) fn gather(src: &MetricsSource<'_>) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            counters: Counter::gather(src),
            gauges: Gauge::gather(src),
            rung_entries: src.rung_entries,
            irq_latency: src.irq_latency.snapshot(),
            ..MetricsSnapshot::default()
        };
        for d in src.degradations {
            snap.degradations[d.cause.index()] += 1;
        }
        // Issue histogram: RunStats buckets parcels-per-VLIW linearly,
        // with index 24 holding everything ≥ 24; overflow samples
        // contribute their bound to the sum (approximation, documented
        // on `HistSnapshot::sum`).
        let hist = &src.stats.issue_histogram;
        snap.issue_parcels.buckets.copy_from_slice(hist);
        for (i, n) in hist.iter().enumerate() {
            snap.issue_parcels.count += n;
            snap.issue_parcels.sum += n * (i as u64).min(24);
        }
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
        prometheus_text(&[(&[], self)])
    }
}

fn prom_labels(labels: Labels<'_>, extra: Option<(&str, &str)>) -> String {
    let parts: Vec<String> =
        labels.iter().chain(&extra).map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if parts.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", parts.join(","))
    }
}

fn prom_histogram(
    out: &mut String,
    metric: &str,
    help: &str,
    series: &[(Labels<'_>, &HistSnapshot)],
) {
    let _ = writeln!(out, "# HELP {metric} {help}");
    let _ = writeln!(out, "# TYPE {metric} histogram");
    for (labels, h) in series {
        let mut cum = 0u64;
        for (i, bound) in h.bounds.iter().enumerate() {
            cum += h.buckets[i];
            let le = prom_labels(labels, Some(("le", &bound.to_string())));
            let _ = writeln!(out, "{metric}_bucket{le} {cum}");
        }
        cum += h.buckets.last().copied().unwrap_or(0);
        let le = prom_labels(labels, Some(("le", "+Inf")));
        let _ = writeln!(out, "{metric}_bucket{le} {cum}");
        let plain = prom_labels(labels, None);
        let _ = writeln!(out, "{metric}_sum{plain} {}", h.sum);
        let _ = writeln!(out, "{metric}_count{plain} {}", h.count);
    }
}

/// One series' Prometheus labels, as `(name, value)` pairs.
pub type Labels<'a> = &'a [(&'a str, &'a str)];

/// Renders several labelled snapshots as one Prometheus text
/// exposition: each metric appears once, with one `# HELP`/`# TYPE`
/// header followed by every series, each carrying its own labels (for
/// example `config="packed",workload="wc"`; no labels omit the
/// braces). Label values are used verbatim — configuration and
/// workload names are plain identifiers, so no escaping is needed.
pub fn prometheus_text(series: &[(Labels<'_>, &MetricsSnapshot)]) -> String {
    let mut out = String::with_capacity(4096 * series.len().max(1));
    for (i, c) in Counter::ALL.iter().enumerate() {
        let _ = writeln!(out, "# HELP {} {}", c.name(), c.help());
        let _ = writeln!(out, "# TYPE {} counter", c.name());
        for (labels, snap) in series {
            let _ = writeln!(out, "{}{} {}", c.name(), prom_labels(labels, None), snap.counters[i]);
        }
    }
    for (i, g) in Gauge::ALL.iter().enumerate() {
        let _ = writeln!(out, "# HELP {} {}", g.name(), g.help());
        let _ = writeln!(out, "# TYPE {} gauge", g.name());
        for (labels, snap) in series {
            let _ = writeln!(out, "{}{} {}", g.name(), prom_labels(labels, None), snap.gauges[i]);
        }
    }
    let _ = writeln!(out, "# HELP {DEGRADATIONS_METRIC} Ladder degradations by cause");
    let _ = writeln!(out, "# TYPE {DEGRADATIONS_METRIC} counter");
    for (labels, snap) in series {
        for (i, cause) in DegradeCause::ALL.iter().enumerate() {
            let labels = prom_labels(labels, Some(("cause", cause.name())));
            let _ = writeln!(out, "{DEGRADATIONS_METRIC}{labels} {}", snap.degradations[i]);
        }
    }
    let _ = writeln!(out, "# HELP {RUNG_ENTRIES_METRIC} Degraded-entry occupancy per ladder rung");
    let _ = writeln!(out, "# TYPE {RUNG_ENTRIES_METRIC} gauge");
    for (labels, snap) in series {
        for (i, rung) in Rung::ALL.iter().enumerate() {
            let labels = prom_labels(labels, Some(("rung", rung.name())));
            let _ = writeln!(out, "{RUNG_ENTRIES_METRIC}{labels} {}", snap.rung_entries[i]);
        }
    }
    let issue: Vec<(Labels<'_>, &HistSnapshot)> =
        series.iter().map(|(l, s)| (*l, &s.issue_parcels)).collect();
    prom_histogram(
        &mut out,
        ISSUE_HIST_METRIC,
        "Parcels executed per tree instruction (taken path)",
        &issue,
    );
    let irq: Vec<(Labels<'_>, &HistSnapshot)> =
        series.iter().map(|(l, s)| (*l, &s.irq_latency)).collect();
    prom_histogram(
        &mut out,
        IRQ_HIST_METRIC,
        "External-interrupt latency from post to delivery, in retired instructions",
        &irq,
    );
    out
}

/// A structured post-mortem: the flight recorder's recent events, the
/// run's full degradation chain, and a metrics snapshot, captured at
/// the moment something went wrong (or on request). Produced by
/// [`crate::system::DaisySystem::degrade`] automatically and attached to
/// fault-injection divergence reports by [`crate::inject`].
#[derive(Debug, Clone, PartialEq)]
pub struct PostMortem {
    /// Why the dump was taken.
    pub reason: String,
    /// The flight recorder's newest events (at most
    /// [`crate::trace::DEFAULT_FLIGHT_RECORDER_CAPACITY`] of them, at
    /// any ring capacity), oldest first, each with its global sequence
    /// number.
    pub events: Vec<(u64, TraceEvent)>,
    /// Events recorded before those: `recorded − events.len()`.
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
            cause: DegradeCause::RecoveryMismatch,
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
        assert_eq!(snap.degradations_by(DegradeCause::RecoveryMismatch), 1);
        assert_eq!(snap.rung_entries(Rung::Conservative), 1);
        assert_eq!(snap.issue_parcels.count, 301);
        assert_eq!(snap.issue_parcels.sum, 300 * 2 + 24);
        assert_eq!(snap.irq_latency.count, 3);
        // 0 → bucket 0; 5 → first bound ≥ 5 is 8; 1e6 → overflow.
        assert_eq!(snap.irq_latency.buckets[0], 1);
        assert_eq!(snap.irq_latency.buckets[4], 1);
        assert_eq!(snap.irq_latency.buckets[IRQ_BOUNDS.len()], 1);
    }

    /// Every table row reads its own field: with each counter-bearing
    /// source field holding a distinct value, a row copied from its
    /// neighbour without editing its read shows up as a duplicate.
    #[test]
    fn every_row_reads_its_own_source() {
        let mut k = 0;
        let mut next = || {
            k += 1;
            k
        };
        let mut stats = RunStats::default();
        for f in [
            &mut stats.vliws_executed,
            &mut stats.stall_cycles,
            &mut stats.interp_instrs,
            &mut stats.loads,
            &mut stats.stores,
            &mut stats.load_l0_misses,
            &mut stats.store_l0_misses,
            &mut stats.alias_failures,
            &mut stats.crosspage.direct,
            &mut stats.crosspage.via_lr,
            &mut stats.crosspage.via_ctr,
            &mut stats.onpage_dispatches,
            &mut stats.groups_entered,
            &mut stats.chain.chained_dispatches,
            &mut stats.chain.link_installs,
            &mut stats.chain.severs,
            &mut stats.chain.icache_hits,
            &mut stats.chain.icache_misses,
            &mut stats.exceptions,
            &mut stats.code_modifications,
            &mut stats.mmio_ops,
            &mut stats.interrupts_taken,
            &mut stats.base_instrs,
        ] {
            *f = next();
        }
        let mut vmm = VmmStats::default();
        for f in [
            &mut vmm.pages_translated,
            &mut vmm.groups_translated,
            &mut vmm.invalidations,
            &mut vmm.cast_outs,
            &mut vmm.alias_retranslations,
            &mut vmm.code_bytes,
            &mut vmm.code_bytes_total,
        ] {
            *f = next();
        }
        let mut native = NativeStats::default();
        let [too_large, arena_full, unsupported] = &mut native.refusal_histogram;
        for f in [
            &mut native.compiles,
            &mut native.refusals,
            too_large,
            arena_full,
            unsupported,
            &mut native.dispatches,
            &mut native.chained,
            &mut native.bails,
            &mut native.edge_patches,
            &mut native.flushes,
            &mut native.backoffs,
            &mut native.vliws_native,
            &mut native.ibtc_hits,
        ] {
            *f = next();
        }
        let snap = MetricsSnapshot::gather(&MetricsSource {
            stats: &stats,
            vmm: &vmm,
            native: Some(&native),
            degradations: &[],
            rung_entries: [1 << 20, 1 << 21, 1 << 22, 1 << 23],
            live_pages: next(),
            live_groups: next(),
            interp_pages: next(),
            native_yield_preempts: next(),
            irq_latency: &IrqLatency::default(),
            flight_dropped: next(),
        });
        for values in [&snap.counters[..], &snap.gauges[..]] {
            let mut seen = values.to_vec();
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), values.len(), "two rows read one field: {values:?}");
            assert!(!seen.contains(&0), "a row reads nothing: {values:?}");
        }
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
        let text =
            prometheus_text(&[(&[("workload", "alpha")], &a), (&[("workload", "beta")], &b)]);
        // One TYPE line per metric, even with two series.
        let type_lines = text.lines().filter(|l| l.starts_with("# TYPE ")).count();
        assert_eq!(type_lines, Counter::COUNT + Gauge::COUNT + 4);
        let vmm = Counter::VmmDispatches.name();
        assert!(text.contains(&format!("{vmm}{{workload=\"alpha\"}} 10")));
        assert!(text.contains(&format!("{vmm}{{workload=\"beta\"}} 0")));
        assert!(text.contains(
            "daisy_degradations_total{workload=\"alpha\",cause=\"recovery_mismatch\"} 1"
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
        assert!(solo.contains(&format!("\n{vmm} 10\n")));
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
