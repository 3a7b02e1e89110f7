//! The metric catalogue and the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Metrics of an untraced run (`--trace 0`): what a user of the system
/// sees. `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ns_per_guest_instr", "ns"),
    ("ns_per_guest_instr_p90", "ns"),
    ("guest_ilp", "instr/cycle"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("pass_ratio", "ratio"),
];

/// Metrics of a traced run (`--trace 1`), one group per layer.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ppc.interp_ns_per_instr", "ns"),
    ("sched.translate_us_p50", "us"),
    ("sched.translate_us_p90", "us"),
    ("sched.groups", "count"),
    ("sched.ns_per_sched_instr", "ns"),
    ("packed.lower_us_p50", "us"),
    ("jit.compile_us_p50", "us"),
    ("jit.arena_new_us", "us"),
    ("native.compiles", "count"),
    ("native.refusals", "count"),
    ("native.flushes", "count"),
    ("native.bails", "count"),
    ("native.coverage", "ratio"),
    ("native.ibtc_hits", "count"),
    ("vmm.castout_step_us_p50", "us"),
    ("vmm.cast_outs", "count"),
    ("vmm.dispatches", "count"),
    ("vmm.code_bytes_total", "bytes"),
    ("step.exec_ns_p50", "ns"),
    ("step.exec_ns_p99", "ns"),
    ("step.count", "count"),
    ("step.xlate_wall_share", "ratio"),
    ("chain.chained_ratio", "ratio"),
    ("chain.icache_hit_ratio", "ratio"),
    ("engine.ns_per_vliw", "ns"),
    ("engine.vliws", "count"),
    ("engine.alias_failures", "count"),
    ("cachesim.ns_per_instr", "ns"),
    ("cachesim.l1i_miss_ratio", "ratio"),
    ("cachesim.l1d_miss_ratio", "ratio"),
    ("cachesim.stall_cycles", "count"),
    ("trace.overhead_ratio", "ratio"),
    ("host.oncpu_ratio", "ratio"),
    ("host.calibration_ns_per_step", "ns"),
];

/// The catalogue a run reports: end-to-end untraced, per-layer traced.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

#[cfg(test)]
/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[cfg(test)]
/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The final result of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Program runs attempted (untraced and traced).
    pub attempted: u64,
    /// Program runs whose output, determinism or native engagement
    /// check failed.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `value` under the catalogue metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: `correct`, `attempted`, `failed` and every
    /// catalogue metric of the run kind, with its unit. Returns an
    /// error naming a metric that was not measured or is not finite.
    pub fn json_line(&self, trace: bool) -> Result<String, String> {
        let mut metrics = String::new();
        for (i, (name, unit)) in catalogue(trace).iter().enumerate() {
            let v = *self.values.get(name).ok_or_else(|| format!("metric {name} not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite: {v}"));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(metrics, "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_and_units_are_valid_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(valid_unit(unit), "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_unit("per second!"));
    }

    #[test]
    fn json_line_has_the_result_shape() {
        let mut r = Report { attempted: 9, failed: 0, ..Report::default() };
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.25 + i as f64);
        }
        let line = r.json_line(false).unwrap();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 9, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 4.25, \"unit\": \"s\"}"));
        assert!(line.ends_with("}}"));
        assert!(!line.contains('\n'));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        // The traced catalogue is a different set: nothing measured yet.
        assert!(r.json_line(true).is_err());
    }

    #[test]
    fn json_line_refuses_missing_or_non_finite_values() {
        let mut r = Report { attempted: 1, ..Report::default() };
        assert!(r.json_line(false).is_err());
        for (name, _) in END_TO_END {
            r.set(name, f64::NAN);
        }
        assert!(r.json_line(false).is_err());
    }

    #[test]
    fn failures_make_the_run_incorrect() {
        let mut r = Report { attempted: 3, failed: 1, ..Report::default() };
        for (name, _) in END_TO_END {
            r.set(name, 1.0);
        }
        assert!(r.json_line(false).unwrap().starts_with("{\"correct\": false"));
    }

    /// `BENCHMARK.json` at the repository root must declare exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_declares_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else { return };
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..start + text[start..].find(']').expect("list closes")];
            body.split('{').skip(1).map(|obj| (field(obj, "name"), field(obj, "unit"))).collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(section("end_to_end"), own(END_TO_END));
        assert_eq!(section("per_layer"), own(PER_LAYER));
    }

    fn field(obj: &str, key: &str) -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &obj[at..];
        let open = rest.find('"').expect("value opens") + 1;
        let close = open + rest[open..].find('"').expect("value closes");
        rest[open..close].to_string()
    }
}
