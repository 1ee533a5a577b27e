//! The metric catalogue: every metric the benchmark prints, its unit, and —
//! for per-layer metrics — the end-to-end metric and workloads it should
//! move. `BENCHMARK.json` mirrors this table (a unit test keeps them in
//! step), and README.md explains it.

// The map from layer to end-to-end metric is documentation the unit tests
// check; the binary itself reads only names and units.
#![cfg_attr(not(test), allow(dead_code))]

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// An end-to-end metric (measured with tracing off).
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub bound: f64,
}

/// A per-layer metric (measured in the separate traced run).
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The end-to-end metric a change to this layer should move, or
    /// `None` for attribution-only metrics.
    pub moves: Option<&'static str>,
    /// The workloads on which it should move it (for attribution-only
    /// metrics: the workloads that exercise the layer).
    pub workloads: &'static [&'static str],
}

pub const WORKLOADS: [&str; 4] = [
    "campaign-default",
    "campaign-one-window",
    "figures-quick",
    "campaign-distributed",
];

const ALL: &[&str] = &WORKLOADS;
const CAMPAIGNS: &[&str] = &["campaign-default", "campaign-one-window"];
const FIGURES: &[&str] = &["figures-quick"];
const DISTRIBUTED: &[&str] = &["campaign-distributed"];

pub const END_TO_END: [EndToEnd; 4] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        bound: 0.2,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: Option<&'static str>,
    workloads: &'static [&'static str],
) -> Layer {
    Layer {
        name,
        unit,
        better,
        moves,
        workloads,
    }
}

use Better::{Higher, Lower};

pub const LAYERS: &[Layer] = &[
    layer("workloads.build_ms", "ms", Lower, Some("wall_s"), FIGURES),
    layer("arch.probe_ms", "ms", Lower, Some("wall_s"), FIGURES),
    layer("uarch.step_ns", "ns", Lower, Some("wall_s"), ALL),
    layer("uarch.clone_us", "us", Lower, Some("wall_s"), ALL),
    layer(
        "bitstate.fingerprint_full_us",
        "us",
        Lower,
        Some("wall_s"),
        CAMPAIGNS,
    ),
    layer("inject.warmup_s", "s", Lower, Some("wall_s"), FIGURES),
    layer(
        "inject.golden_s",
        "s",
        Lower,
        Some("wall_s"),
        &["campaign-default"],
    ),
    layer(
        "inject.golden_steps_per_cycle",
        "steps",
        Lower,
        Some("cpu_s"),
        &["campaign-default"],
    ),
    layer("inject.batch_s", "s", Lower, Some("wall_s"), CAMPAIGNS),
    layer(
        "inject.trial_steps",
        "steps",
        Lower,
        Some("wall_s"),
        CAMPAIGNS,
    ),
    layer("inject.tasks", "count", Lower, None, ALL),
    layer("inject.golden_cycles", "count", Lower, None, ALL),
    layer("span.warmup_s", "s", Lower, None, ALL),
    layer("span.golden_s", "s", Lower, None, ALL),
    layer("span.trials_s", "s", Lower, None, ALL),
    layer("span.advance_s", "s", Lower, None, ALL),
    layer("span.ride_s", "s", Lower, None, ALL),
    layer("span.classify_s", "s", Lower, None, ALL),
    layer("span.prune_s", "s", Lower, None, ALL),
    layer("span.journal_s", "s", Lower, None, ALL),
    layer("span.coverage", "ratio", Higher, None, ALL),
    layer("arch.sw_s", "s", Lower, Some("wall_s"), FIGURES),
    layer("arch.sw_golden_ms", "ms", Lower, Some("wall_s"), FIGURES),
    layer("arch.sw_trial_ms", "ms", Lower, Some("wall_s"), FIGURES),
    layer(
        "bench.campaign.baseline_lr_s",
        "s",
        Lower,
        Some("wall_s"),
        FIGURES,
    ),
    layer(
        "bench.campaign.baseline_l_s",
        "s",
        Lower,
        Some("wall_s"),
        FIGURES,
    ),
    layer(
        "bench.campaign.protected_lr_s",
        "s",
        Lower,
        Some("wall_s"),
        FIGURES,
    ),
    layer("bench.render_ms", "ms", Lower, Some("wall_s"), FIGURES),
    layer(
        "journal.append_ms",
        "ms",
        Lower,
        Some("wall_s"),
        DISTRIBUTED,
    ),
    layer("shard.serve_s", "s", Lower, Some("wall_s"), DISTRIBUTED),
    layer("shard.merge_s", "s", Lower, Some("wall_s"), DISTRIBUTED),
    layer(
        "lease.regranted",
        "count",
        Lower,
        Some("wall_s"),
        DISTRIBUTED,
    ),
    layer("lease.expired", "count", Lower, Some("wall_s"), DISTRIBUTED),
    layer(
        "lease.duplicates",
        "count",
        Lower,
        Some("wall_s"),
        DISTRIBUTED,
    ),
    layer("obs.traced_overhead_x", "x", Lower, None, ALL),
    layer("inject.unattributed_s", "s", Lower, None, ALL),
];

/// Metric names are restricted to `[A-Za-z0-9_.-]`, starting with a
/// letter or digit, at most 64 characters.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(LAYERS.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
        .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_only_the_allowed_characters() {
        let mut seen = std::collections::BTreeSet::new();
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(LAYERS.iter().map(|m| m.name))
        {
            assert!(valid_name(name), "bad metric name {name:?}");
            assert!(seen.insert(name), "duplicate metric name {name}");
        }
        for bad in ["", "a b", "x/y", "_lead", "é"] {
            assert!(!valid_name(bad), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn every_layer_metric_names_an_end_to_end_metric_and_a_workload() {
        for m in LAYERS {
            assert!(!m.workloads.is_empty(), "{} names no workload", m.name);
            for w in m.workloads {
                assert!(
                    WORKLOADS.contains(w),
                    "{} names unknown workload {w}",
                    m.name
                );
            }
            if let Some(e) = m.moves {
                assert!(
                    END_TO_END.iter().any(|x| x.name == e),
                    "{} names unknown end-to-end metric {e}",
                    m.name
                );
            } else {
                // Only the attribution metrics move nothing.
                assert!(
                    m.name.starts_with("span.")
                        || m.name.starts_with("obs.")
                        || m.name.starts_with("inject."),
                    "{} moves nothing but is not an attribution metric",
                    m.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_mirrors_the_catalogue() {
        let json = include_str!("../../BENCHMARK.json");
        for w in WORKLOADS {
            assert!(
                json.contains(&format!("\"name\": \"{w}\"")),
                "workload {w} missing"
            );
        }
        for m in &END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"lower\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&entry), "end-to-end entry missing: {entry}");
        }
        for m in LAYERS {
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"}}",
                m.name, m.unit
            );
            assert!(json.contains(&entry), "per-layer entry missing: {entry}");
        }
        let entries = json.matches("\"name\":").count();
        assert_eq!(entries, WORKLOADS.len() + END_TO_END.len() + LAYERS.len());
    }
}
