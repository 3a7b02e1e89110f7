//! One generator per table/figure of the paper's evaluation.
//!
//! Each function returns structured rows so tests can assert on the
//! *shape* of the results (who wins, roughly by how much, where the
//! crossovers are), and each has a formatter used by the `repro`
//! binary. Absolute values differ from the paper — its substrate was an
//! RS/6000 testbed and real AIX binaries — but the relationships the
//! paper draws from each exhibit are asserted in `tests/repro_shapes.rs`.

use crate::reporting::{self, WorkloadReport};
use crate::runner::{self, geomean, mean, Measurement};
use daisy::oracle;
use daisy::overhead::{self, OverheadModel, OverheadRow, ReuseFactor};
use daisy::sched::TranslatorConfig;
use daisy_baseline::{ppc604e, trad};
use daisy_cachesim::Hierarchy;
use daisy_ppc::mem::Memory;
use daisy_vliw::machine::MachineConfig;
use daisy_workloads::Workload;
use std::fmt::Write as _;

fn workloads() -> Vec<Workload> {
    daisy_workloads::all()
}

// ---------------------------------------------------------------- 5.1

/// One row of Table 5.1: pathlength reduction and code expansion.
#[derive(Debug, Clone)]
pub struct Table51Row {
    /// Workload name.
    pub name: &'static str,
    /// PowerPC instructions per VLIW (∞-cache ILP).
    pub ilp: f64,
    /// Average translated VLIW code per translated page, in KiB (the
    /// paper's "Average Size of Translated Page").
    pub page_kib: f64,
    /// That average over the 4 KiB base page (the paper's ~4.5×).
    pub expansion: f64,
}

/// Table 5.1: pathlength reductions and code explosion on the default
/// 24-issue machine with 4 KiB pages.
pub fn table5_1() -> Vec<Table51Row> {
    workloads()
        .iter()
        .map(|w| {
            let m = runner::run_default(w);
            let per_page = m.code_bytes_total as f64 / m.pages_translated.max(1) as f64;
            Table51Row {
                name: m.name,
                ilp: m.ilp(),
                page_kib: per_page / 1024.0,
                expansion: per_page / 4096.0,
            }
        })
        .collect()
}

/// Formats Table 5.1.
pub fn print_table5_1(rows: &[Table51Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 5.1: Pathlength reductions and code explosion");
    let _ = writeln!(
        s,
        "{:<10} {:>14} {:>20} {:>11}",
        "Program", "PPC ins/VLIW", "avg xlated page(KiB)", "expansion"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>14.1} {:>20.1} {:>10.1}x",
            r.name, r.ilp, r.page_kib, r.expansion
        );
    }
    let _ = writeln!(s, "{:<10} {:>14.1}", "MEAN", mean(rows.iter().map(|r| r.ilp)));
    s
}

// ---------------------------------------------------------------- 5.1 fig

/// Figure 5.1: ILP per machine configuration (1..=10) per workload.
#[derive(Debug, Clone)]
pub struct Fig51 {
    /// Configuration names in paper order.
    pub configs: Vec<String>,
    /// Per-workload ILP series across the configurations.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

/// Figure 5.1: pathlength reduction vs machine size.
pub fn fig5_1() -> Fig51 {
    let cfgs = MachineConfig::paper_configs();
    let mut series = Vec::new();
    for w in workloads() {
        let mut vals = Vec::new();
        for mc in &cfgs {
            let cfg = TranslatorConfig { machine: mc.clone(), ..TranslatorConfig::default() };
            let m = runner::run_daisy(&w, cfg, Hierarchy::infinite());
            vals.push(m.ilp());
        }
        series.push((w.name, vals));
    }
    Fig51 { configs: cfgs.iter().map(|c| c.name.clone()).collect(), series }
}

/// Formats Figure 5.1.
pub fn print_fig5_1(f: &Fig51) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 5.1: ILP vs machine configuration (<issue>-<alu>-<mem>-<br>)");
    let _ = write!(s, "{:<10}", "Program");
    for c in &f.configs {
        let _ = write!(s, " {c:>10}");
    }
    let _ = writeln!(s);
    for (name, vals) in &f.series {
        let _ = write!(s, "{name:<10}");
        for v in vals {
            let _ = write!(s, " {v:>10.2}");
        }
        let _ = writeln!(s);
    }
    let _ = write!(s, "{:<10}", "MEAN");
    for i in 0..f.configs.len() {
        let _ = write!(s, " {:>10.2}", mean(f.series.iter().map(|(_, v)| v[i])));
    }
    let _ = writeln!(s);
    s
}

// ---------------------------------------------------------------- 5.2

/// One row of Table 5.2: DAISY vs the traditional VLIW compiler.
#[derive(Debug, Clone)]
pub struct Table52Row {
    /// Workload name.
    pub name: &'static str,
    /// DAISY's one-pass dynamic ILP.
    pub daisy_ilp: f64,
    /// Traditional (offline, profiled, whole-program) ILP.
    pub trad_ilp: f64,
    /// Instructions scheduled by each, as a compile-cost ratio.
    pub compile_cost_ratio: f64,
}

/// Table 5.2 compares user-code benchmarks, as the paper's traditional
/// compiler "deals only with compilable user code".
pub fn table5_2() -> Vec<Table52Row> {
    let names = ["compress", "lex", "fgrep", "sort", "c_sieve"];
    names
        .iter()
        .map(|n| {
            let w = daisy_workloads::by_name(n).expect("known workload");
            let m = runner::run_default(&w);
            let prog = w.program();
            let t = trad::run_traditional(&prog, w.mem_size, MachineConfig::big(), w.max_instrs);
            Table52Row {
                name: w.name,
                daisy_ilp: m.ilp(),
                trad_ilp: t.ilp(),
                compile_cost_ratio: t.instrs_compiled as f64 / m.instrs_compiled.max(1) as f64,
            }
        })
        .collect()
}

/// Formats Table 5.2.
pub fn print_table5_2(rows: &[Table52Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 5.2: DAISY vs traditional VLIW compiler");
    let _ = writeln!(
        s,
        "{:<10} {:>10} {:>10} {:>18}",
        "Program", "DAISY ILP", "Trad ILP", "compile-cost ratio"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>10.1} {:>10.1} {:>17.1}x",
            r.name, r.daisy_ilp, r.trad_ilp, r.compile_cost_ratio
        );
    }
    let _ = writeln!(
        s,
        "{:<10} {:>10.1} {:>10.1}",
        "MEAN",
        mean(rows.iter().map(|r| r.daisy_ilp)),
        mean(rows.iter().map(|r| r.trad_ilp))
    );
    s
}

// ---------------------------------------------------------------- 5.3

/// One row of Table 5.3: finite caches and the 604E comparison.
#[derive(Debug, Clone)]
pub struct Table53Row {
    /// Workload name.
    pub name: &'static str,
    /// ∞-cache ILP.
    pub inf_ilp: f64,
    /// Finite-cache ILP (paper's default hierarchy).
    pub finite_ilp: f64,
    /// PowerPC 604E model IPC with the same hierarchy.
    pub p604_ipc: f64,
    /// The finite-cache measurement (for Tables 5.4/5.7 and Fig 5.2).
    pub measurement: Measurement,
}

/// Table 5.3: ∞-cache vs finite-cache ILP vs a PowerPC 604E.
pub fn table5_3() -> Vec<Table53Row> {
    workloads()
        .iter()
        .map(|w| {
            let inf = runner::run_default(w);
            let fin = runner::run_daisy(w, TranslatorConfig::default(), Hierarchy::paper_default());
            let prog = w.program();
            let p = ppc604e::run(
                &prog,
                w.mem_size,
                &ppc604e::P604Config::default(),
                Hierarchy::paper_default(),
                w.max_instrs,
            );
            Table53Row {
                name: w.name,
                inf_ilp: inf.ilp(),
                finite_ilp: fin.finite_ilp(),
                p604_ipc: p.ipc(),
                measurement: fin,
            }
        })
        .collect()
}

/// Formats Table 5.3.
pub fn print_table5_3(rows: &[Table53Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 5.3: Reduction of ILP from finite caches, vs PowerPC 604E");
    let _ = writeln!(
        s,
        "{:<10} {:>9} {:>13} {:>13}",
        "Program", "inf cache", "finite cache", "PowerPC 604E"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>9.1} {:>13.1} {:>13.1}",
            r.name, r.inf_ilp, r.finite_ilp, r.p604_ipc
        );
    }
    let _ = writeln!(
        s,
        "{:<10} {:>9.1} {:>13.1} {:>13.1}",
        "MEAN",
        mean(rows.iter().map(|r| r.inf_ilp)),
        mean(rows.iter().map(|r| r.finite_ilp)),
        mean(rows.iter().map(|r| r.p604_ipc))
    );
    s
}

// ---------------------------------------------------------------- 5.4

/// One row of Table 5.4: memory-access characteristics.
#[derive(Debug, Clone)]
pub struct Table54Row {
    /// Workload name.
    pub name: &'static str,
    /// Load parcels per VLIW.
    pub loads_per_vliw: f64,
    /// Store parcels per VLIW.
    pub stores_per_vliw: f64,
    /// Mean VLIWs between load misses (None = no misses).
    pub vliws_per_load_miss: Option<f64>,
    /// Mean VLIWs between store misses.
    pub vliws_per_store_miss: Option<f64>,
    /// Mean VLIWs between any memory miss.
    pub vliws_per_mem_miss: Option<f64>,
}

/// Table 5.4, derived from the Table 5.3 finite-cache runs.
pub fn table5_4(t53: &[Table53Row]) -> Vec<Table54Row> {
    t53.iter()
        .map(|r| {
            let st = &r.measurement.stats;
            Table54Row {
                name: r.name,
                loads_per_vliw: st.loads_per_vliw(),
                stores_per_vliw: st.stores_per_vliw(),
                vliws_per_load_miss: st.vliws_between(st.load_l0_misses),
                vliws_per_store_miss: st.vliws_between(st.store_l0_misses),
                vliws_per_mem_miss: st.vliws_between(st.load_l0_misses + st.store_l0_misses),
            }
        })
        .collect()
}

/// Renders a `RunStats::vliws_between`-style optional mean: `None`
/// means the event never occurred (see that method's contract), which
/// the tables print as `-` — never as a number.
fn opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".to_owned(), |x| format!("{x:.1}"))
}

/// Formats Table 5.4.
pub fn print_table5_4(rows: &[Table54Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 5.4: Load, store, first-level cache characteristics");
    let _ = writeln!(
        s,
        "{:<10} {:>10} {:>10} {:>12} {:>12} {:>12}",
        "Program", "loads/VLIW", "sts/VLIW", "VLIW/ld-miss", "VLIW/st-miss", "VLIW/miss"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>10.2} {:>10.2} {:>12} {:>12} {:>12}",
            r.name,
            r.loads_per_vliw,
            r.stores_per_vliw,
            opt(r.vliws_per_load_miss),
            opt(r.vliws_per_store_miss),
            opt(r.vliws_per_mem_miss)
        );
    }
    s
}

// ---------------------------------------------------------------- 5.2 fig

/// Figure 5.2: per-level miss rates, from the finite-cache runs.
#[derive(Debug, Clone)]
pub struct Fig52Row {
    /// Workload name.
    pub name: &'static str,
    /// `(cache level name, miss rate percent)`.
    pub levels: Vec<(String, f64)>,
}

/// Figure 5.2 rows.
pub fn fig5_2(t53: &[Table53Row]) -> Vec<Fig52Row> {
    t53.iter()
        .map(|r| Fig52Row {
            name: r.name,
            levels: r
                .measurement
                .cache_levels
                .iter()
                .map(|(n, st)| (n.clone(), st.miss_rate()))
                .collect(),
        })
        .collect()
}

/// Formats Figure 5.2.
pub fn print_fig5_2(rows: &[Fig52Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Figure 5.2: Cache miss rates (%)");
    if let Some(first) = rows.first() {
        let _ = write!(s, "{:<10}", "Program");
        for (n, _) in &first.levels {
            let _ = write!(s, " {n:>10}");
        }
        let _ = writeln!(s);
    }
    for r in rows {
        let _ = write!(s, "{:<10}", r.name);
        for (_, v) in &r.levels {
            let _ = write!(s, " {v:>10.3}");
        }
        let _ = writeln!(s);
    }
    s
}

// ---------------------------------------------------------------- 5.5

/// One row of Table 5.5: the 8-issue machine.
#[derive(Debug, Clone)]
pub struct Table55Row {
    /// Workload name.
    pub name: &'static str,
    /// ∞-cache ILP on the 8-issue machine.
    pub inf_ilp: f64,
    /// Finite-cache ILP with the 3-level hierarchy.
    pub finite_ilp: f64,
}

/// Table 5.5: performance of the 8-issue machine.
pub fn table5_5() -> Vec<Table55Row> {
    workloads()
        .iter()
        .map(|w| {
            let cfg = TranslatorConfig {
                machine: MachineConfig::eight_issue(),
                ..TranslatorConfig::default()
            };
            let inf = runner::run_daisy(w, cfg.clone(), Hierarchy::infinite());
            let fin = runner::run_daisy(w, cfg, Hierarchy::paper_eight_issue());
            Table55Row { name: w.name, inf_ilp: inf.ilp(), finite_ilp: fin.finite_ilp() }
        })
        .collect()
}

/// Formats Table 5.5.
pub fn print_table5_5(rows: &[Table55Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 5.5: Performance of 8-issue machine");
    let _ = writeln!(s, "{:<10} {:>9} {:>13}", "Program", "inf cache", "finite cache");
    for r in rows {
        let _ = writeln!(s, "{:<10} {:>9.1} {:>13.1}", r.name, r.inf_ilp, r.finite_ilp);
    }
    let _ = writeln!(
        s,
        "{:<10} {:>9.1} {:>13.1}",
        "MEAN",
        mean(rows.iter().map(|r| r.inf_ilp)),
        mean(rows.iter().map(|r| r.finite_ilp))
    );
    s
}

// ---------------------------------------------------------------- 5.6

/// One row of Table 5.6: cross-page branches by type.
#[derive(Debug, Clone)]
pub struct Table56Row {
    /// Workload name.
    pub name: &'static str,
    /// Direct cross-page branches.
    pub direct: u64,
    /// Via the link register.
    pub via_lr: u64,
    /// Via the count register.
    pub via_ctr: u64,
    /// Total.
    pub total: u64,
    /// VLIWs executed per cross-page branch.
    pub vliws_per_branch: Option<f64>,
}

/// Table 5.6, from default ∞-cache runs.
pub fn table5_6() -> Vec<Table56Row> {
    workloads()
        .iter()
        .map(|w| {
            let m = runner::run_default(w);
            let c = m.stats.crosspage;
            Table56Row {
                name: m.name,
                direct: c.direct,
                via_lr: c.via_lr,
                via_ctr: c.via_ctr,
                total: c.total(),
                vliws_per_branch: m.stats.vliws_between(c.total()),
            }
        })
        .collect()
}

/// Formats Table 5.6.
pub fn print_table5_6(rows: &[Table56Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 5.6: Cross-page branches by type");
    let _ = writeln!(
        s,
        "{:<10} {:>10} {:>10} {:>11} {:>10} {:>14}",
        "Program", "direct", "via LR", "via CTR", "total", "VLIWs/branch"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>10} {:>10} {:>11} {:>10} {:>14}",
            r.name,
            r.direct,
            r.via_lr,
            r.via_ctr,
            r.total,
            opt(r.vliws_per_branch)
        );
    }
    s
}

// ---------------------------------------------------------------- 5.7

/// One row of Table 5.7: run-time load/store aliasing.
#[derive(Debug, Clone)]
pub struct Table57Row {
    /// Workload name.
    pub name: &'static str,
    /// Alias failures detected by load-verify.
    pub aliases: u64,
    /// VLIWs executed.
    pub vliws: u64,
    /// VLIWs per alias (None = alias-free).
    pub vliws_per_alias: Option<f64>,
}

/// Table 5.7, from default ∞-cache runs.
pub fn table5_7() -> Vec<Table57Row> {
    workloads()
        .iter()
        .map(|w| {
            let m = runner::run_default(w);
            Table57Row {
                name: m.name,
                aliases: m.stats.alias_failures,
                vliws: m.stats.vliws_executed,
                vliws_per_alias: m.stats.vliws_between(m.stats.alias_failures),
            }
        })
        .collect()
}

/// Formats Table 5.7.
pub fn print_table5_7(rows: &[Table57Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 5.7: VLIWs per runtime load-store alias");
    let _ =
        writeln!(s, "{:<10} {:>10} {:>12} {:>13}", "Program", "aliases", "VLIWs", "VLIWs/alias");
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>10} {:>12} {:>13}",
            r.name,
            r.aliases,
            r.vliws,
            opt(r.vliws_per_alias)
        );
    }
    s
}

// ------------------------------------------------------- 5.3/5.4/5.5 figs

/// The page sizes swept by Figures 5.3–5.5.
pub const PAGE_SIZES: [u32; 8] = [128, 256, 512, 1024, 2048, 4096, 8192, 16384];

/// One workload's page-size sweep.
#[derive(Debug, Clone)]
pub struct PageSweepRow {
    /// Workload name.
    pub name: &'static str,
    /// ∞-cache ILP per page size (Figure 5.3).
    pub ilp: Vec<f64>,
    /// Total translated code bytes per page size (Figure 5.4).
    pub code_bytes: Vec<u64>,
    /// Direct cross-page jumps per page size (Figure 5.5).
    pub direct_crosspage: Vec<u64>,
}

/// Runs the Figures 5.3–5.5 sweep.
pub fn page_sweep() -> Vec<PageSweepRow> {
    workloads()
        .iter()
        .map(|w| {
            let mut row = PageSweepRow {
                name: w.name,
                ilp: Vec::new(),
                code_bytes: Vec::new(),
                direct_crosspage: Vec::new(),
            };
            for ps in PAGE_SIZES {
                let cfg = TranslatorConfig { page_size: ps, ..TranslatorConfig::default() };
                let m = runner::run_daisy(w, cfg, Hierarchy::infinite());
                row.ilp.push(m.ilp());
                row.code_bytes.push(m.code_bytes_total);
                row.direct_crosspage.push(m.stats.crosspage.direct);
            }
            row
        })
        .collect()
}

/// Formats Figures 5.3–5.5 from the sweep.
pub fn print_page_sweep(rows: &[PageSweepRow]) -> String {
    let mut s = String::new();
    for (title, pick) in [
        ("Figure 5.3: ILP vs input page size", 0),
        ("Figure 5.4: Total VLIW code size (bytes) vs input page size", 1),
        ("Figure 5.5: Direct cross-page jumps vs input page size", 2),
    ] {
        let _ = writeln!(s, "{title}");
        let _ = write!(s, "{:<10}", "Program");
        for ps in PAGE_SIZES {
            let _ = write!(s, " {ps:>9}");
        }
        let _ = writeln!(s);
        for r in rows {
            let _ = write!(s, "{:<10}", r.name);
            for i in 0..PAGE_SIZES.len() {
                match pick {
                    0 => {
                        let _ = write!(s, " {:>9.2}", r.ilp[i]);
                    }
                    1 => {
                        let _ = write!(s, " {:>9}", r.code_bytes[i]);
                    }
                    _ => {
                        let _ = write!(s, " {:>9}", r.direct_crosspage[i]);
                    }
                }
            }
            let _ = writeln!(s);
        }
        let _ = writeln!(s);
    }
    s
}

// ---------------------------------------------------------------- 5.8/5.9

/// Table 5.8 rows from the analytic model.
pub fn table5_8() -> Vec<OverheadRow> {
    overhead::table_5_8(&OverheadModel::default())
}

/// Formats Table 5.8.
pub fn print_table5_8(rows: &[OverheadRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 5.8: Overhead of dynamic compilation (2 s, 1 GHz, ILP 4 program)");
    let _ = writeln!(
        s,
        "{:>14} {:>12} {:>12} {:>12}",
        "ins/compiled", "unique pages", "reuse", "time change"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:>14.0} {:>12.0} {:>12.0} {:>11.0}%",
            r.ins_to_compile, r.unique_pages, r.reuse, r.time_change_pct
        );
    }
    s
}

/// Table 5.9: reuse factors measured on this suite, with the paper's
/// SPEC95 numbers for comparison.
#[derive(Debug, Clone)]
pub struct Table59 {
    /// Measured on this reproduction's workloads.
    pub measured: Vec<ReuseFactor>,
    /// Reprinted from the paper.
    pub paper: Vec<ReuseFactor>,
}

/// Generates Table 5.9.
pub fn table5_9() -> Table59 {
    let measured = workloads()
        .iter()
        .map(|w| {
            let cpu = runner::run_reference(w);
            let prog = w.program();
            ReuseFactor {
                name: w.name.to_owned(),
                dynamic_instrs: cpu.ninstrs,
                static_words: u64::from(prog.code_size() / 4),
            }
        })
        .collect();
    Table59 { measured, paper: overhead::paper_spec95_reuse() }
}

/// Formats Table 5.9.
pub fn print_table5_9(t: &Table59) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 5.9: Reuse factors (dynamic ins / static ins words)");
    let _ = writeln!(s, "-- measured on this suite --");
    let _ = writeln!(s, "{:<12} {:>14} {:>12} {:>10}", "Program", "dynamic", "static", "reuse");
    for r in &t.measured {
        let _ = writeln!(
            s,
            "{:<12} {:>14} {:>12} {:>10.0}",
            r.name,
            r.dynamic_instrs,
            r.static_words,
            r.reuse()
        );
    }
    let _ = writeln!(s, "-- paper's SPEC95 numbers (reprinted) --");
    for r in &t.paper {
        let _ = writeln!(
            s,
            "{:<12} {:>14} {:>12} {:>10.0}",
            r.name,
            r.dynamic_instrs,
            r.static_words,
            r.reuse()
        );
    }
    s
}

// --------------------------------------------------------- utilization

/// Issue-slot utilization of one workload (the paper's internal "ALU
/// usage histograms").
#[derive(Debug, Clone)]
pub struct UtilizationRow {
    /// Workload name.
    pub name: &'static str,
    /// Mean parcels executed per tree instruction.
    pub mean_parcels: f64,
    /// Fraction of VLIWs executing 0–2, 3–7, 8–15, 16+ parcels.
    pub buckets: [f64; 4],
}

/// Parcel-per-VLIW utilization on the default 24-issue machine.
pub fn utilization() -> Vec<UtilizationRow> {
    workloads()
        .iter()
        .map(|w| {
            let m = runner::run_default(w);
            let h = m.stats.issue_histogram;
            let total: u64 = h.iter().sum();
            let frac = |range: std::ops::Range<usize>| {
                if total == 0 {
                    0.0
                } else {
                    h[range].iter().sum::<u64>() as f64 / total as f64
                }
            };
            UtilizationRow {
                name: m.name,
                mean_parcels: m.stats.mean_parcels_per_vliw(),
                buckets: [frac(0..3), frac(3..8), frac(8..16), frac(16..25)],
            }
        })
        .collect()
}

/// Formats the utilization histogram summary.
pub fn print_utilization(rows: &[UtilizationRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Issue-slot utilization (parcels executed per VLIW, 24-issue machine)");
    let _ = writeln!(
        s,
        "{:<10} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "Program", "mean", "0-2", "3-7", "8-15", "16-24"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>8.2} {:>7.0}% {:>7.0}% {:>7.0}% {:>7.0}%",
            r.name,
            r.mean_parcels,
            100.0 * r.buckets[0],
            100.0 * r.buckets[1],
            100.0 * r.buckets[2],
            100.0 * r.buckets[3]
        );
    }
    s
}

// -------------------------------------------------------- guest profile

/// Guest-level attribution of every workload: one guest-profiled run
/// under the paper's finite cache each (see
/// [`reporting::report_workload`]).
pub fn guest_profile() -> Vec<WorkloadReport> {
    workloads().iter().map(reporting::report_workload).collect()
}

/// Formats the guest-profile table, every figure at six places.
pub fn print_guest_profile(rows: &[WorkloadReport]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Guest profile (paper_default cache, one guest-profiled run per workload)");
    let _ = writeln!(
        s,
        "{:<10} {:>12} {:>11} {:>13} {:>13} {:>24} {:>15} {:>9} {:>16}",
        "Program",
        "base_instrs",
        "finite_ilp",
        "infinite_ilp",
        "ops_per_vliw",
        "overhead_per_base_instr",
        "waste_fraction",
        "spec_ops",
        "wasted_spec_ops"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>12} {:>11.6} {:>13.6} {:>13.6} {:>24.6} {:>15.6} {:>9} {:>16}",
            r.name,
            r.base_instrs,
            r.finite_ilp,
            r.infinite_ilp,
            r.ops_per_vliw,
            r.overhead_per_base_instr,
            r.waste_fraction,
            r.spec_ops,
            r.wasted_spec_ops
        );
    }
    let _ = writeln!(
        s,
        "{:<10} {:>12} {:>11.6} {:>13.6}",
        "GEOMEAN",
        "",
        geomean(rows.iter().map(|r| r.finite_ilp)),
        geomean(rows.iter().map(|r| r.infinite_ilp))
    );
    s
}

// ------------------------------------------------------------ ablations

/// One row of the scheduler-ablation study: how much each design
/// choice of the paper's algorithm contributes to ILP.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Workload name.
    pub name: &'static str,
    /// The full algorithm (paper defaults).
    pub full: f64,
    /// No renaming: every op in-order in the last VLIW (§2's key idea
    /// disabled).
    pub no_rename: f64,
    /// Loads never move above stores (§2.1's reordering disabled).
    pub no_load_spec: f64,
    /// Tiny scheduling window (16 instructions).
    pub window16: f64,
    /// Join points never revisited (k = 1: no unrolling).
    pub k1: f64,
}

/// Scheduler ablations on the default machine, infinite cache.
pub fn ablation() -> Vec<AblationRow> {
    workloads()
        .iter()
        .map(|w| {
            let run =
                |cfg: TranslatorConfig| runner::run_daisy(w, cfg, Hierarchy::infinite()).ilp();
            AblationRow {
                name: w.name,
                full: run(TranslatorConfig::default()),
                no_rename: run(TranslatorConfig { rename: false, ..TranslatorConfig::default() }),
                no_load_spec: run(TranslatorConfig {
                    speculate_loads: false,
                    ..TranslatorConfig::default()
                }),
                window16: run(TranslatorConfig { window_size: 16, ..TranslatorConfig::default() }),
                k1: run(TranslatorConfig { max_join_visits: 1, ..TranslatorConfig::default() }),
            }
        })
        .collect()
}

/// Formats the ablation study.
pub fn print_ablation(rows: &[AblationRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Ablation: ILP contribution of the scheduler's design choices");
    let _ = writeln!(
        s,
        "{:<10} {:>8} {:>10} {:>13} {:>10} {:>8}",
        "Program", "full", "no-rename", "no-load-spec", "window16", "k=1"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>8.2} {:>10.2} {:>13.2} {:>10.2} {:>8.2}",
            r.name, r.full, r.no_rename, r.no_load_spec, r.window16, r.k1
        );
    }
    let _ = writeln!(
        s,
        "{:<10} {:>8.2} {:>10.2} {:>13.2} {:>10.2} {:>8.2}",
        "MEAN",
        mean(rows.iter().map(|r| r.full)),
        mean(rows.iter().map(|r| r.no_rename)),
        mean(rows.iter().map(|r| r.no_load_spec)),
        mean(rows.iter().map(|r| r.window16)),
        mean(rows.iter().map(|r| r.k1))
    );
    s
}

// ---------------------------------------------------------------- Ch. 6

/// One row of the interpretive-compilation study.
#[derive(Debug, Clone)]
pub struct InterpretiveRow {
    /// Workload name.
    pub name: &'static str,
    /// Static (heuristic-prediction) translation ILP.
    pub static_ilp: f64,
    /// Interpretive-compilation ILP (observed branch outcomes and
    /// indirect-branch specialization).
    pub interpretive_ilp: f64,
}

/// Chapter 6's interpretive compilation versus the static translator.
pub fn interpretive() -> Vec<InterpretiveRow> {
    workloads()
        .iter()
        .map(|w| {
            let s = runner::run_default(w);
            let cfg = TranslatorConfig { interpretive: true, ..TranslatorConfig::default() };
            let i = runner::run_daisy(w, cfg, Hierarchy::infinite());
            InterpretiveRow { name: w.name, static_ilp: s.ilp(), interpretive_ilp: i.ilp() }
        })
        .collect()
}

/// Formats the interpretive-compilation study.
pub fn print_interpretive(rows: &[InterpretiveRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Chapter 6: Interpretive compilation vs static translation");
    let _ = writeln!(s, "{:<10} {:>8} {:>13}", "Program", "static", "interpretive");
    for r in rows {
        let _ = writeln!(s, "{:<10} {:>8.2} {:>13.2}", r.name, r.static_ilp, r.interpretive_ilp);
    }
    let _ = writeln!(
        s,
        "{:<10} {:>8.2} {:>13.2}",
        "MEAN",
        mean(rows.iter().map(|r| r.static_ilp)),
        mean(rows.iter().map(|r| r.interpretive_ilp))
    );
    s
}

/// One row of the oracle study.
#[derive(Debug, Clone)]
pub struct OracleRow {
    /// Workload name.
    pub name: &'static str,
    /// DAISY's dynamic-translation ILP (default machine).
    pub daisy_ilp: f64,
    /// Oracle ILP with unlimited resources.
    pub oracle_unlimited: f64,
    /// Oracle capped at the big (24-issue) machine.
    pub oracle_big: f64,
    /// Oracle capped at the 8-issue machine.
    pub oracle_eight: f64,
}

/// Chapter 6: oracle parallelism versus DAISY.
pub fn oracle_table() -> Vec<OracleRow> {
    workloads()
        .iter()
        .map(|w| {
            let m = runner::run_default(w);
            let prog = w.program();
            let run = |machine: Option<MachineConfig>| {
                let mut mem = Memory::new(w.mem_size);
                prog.load_into(&mut mem).expect("fits");
                let (r, _) = oracle::run_oracle_to_stop::<daisy_ppc::PpcIsa>(
                    &mut mem,
                    prog.entry,
                    machine,
                    w.max_instrs,
                );
                r.ilp()
            };
            OracleRow {
                name: w.name,
                daisy_ilp: m.ilp(),
                oracle_unlimited: run(None),
                oracle_big: run(Some(MachineConfig::big())),
                oracle_eight: run(Some(MachineConfig::eight_issue())),
            }
        })
        .collect()
}

/// Formats the oracle table.
pub fn print_oracle(rows: &[OracleRow]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Chapter 6: Oracle parallelism vs DAISY");
    let _ = writeln!(
        s,
        "{:<10} {:>10} {:>12} {:>12} {:>12}",
        "Program", "DAISY", "oracle(inf)", "oracle(24)", "oracle(8)"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "{:<10} {:>10.1} {:>12.1} {:>12.1} {:>12.1}",
            r.name, r.daisy_ilp, r.oracle_unlimited, r.oracle_big, r.oracle_eight
        );
    }
    let _ = writeln!(
        s,
        "{:<10} {:>10.1} {:>12.1} {:>12.1} {:>12.1}",
        "MEAN",
        mean(rows.iter().map(|r| r.daisy_ilp)),
        mean(rows.iter().map(|r| r.oracle_unlimited)),
        mean(rows.iter().map(|r| r.oracle_big)),
        mean(rows.iter().map(|r| r.oracle_eight))
    );
    s
}

#[cfg(test)]
mod tests {
    use super::opt;

    /// The `vliws_between` contract surfaces here: `None` (event never
    /// occurred) must render as a placeholder, not a number.
    #[test]
    fn opt_renders_none_as_dash() {
        assert_eq!(opt(None), "-");
        assert_eq!(opt(Some(25.0)), "25.0");
        assert_eq!(opt(Some(0.04)), "0.0"); // rare-but-present rounds, still numeric
    }
}
