//! The four workloads and one untraced iteration of each, plus the output
//! checks every iteration must pass.

use std::fmt::Write as _;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tfsim_arch::swinject::{FaultModel, SwTally};
use tfsim_bench::Scale;
use tfsim_bitstate::InjectionMask;
use tfsim_inject::{
    merge_shards, run_campaign_on, run_campaign_with_tasks, run_worker, serve_campaign,
    CampaignConfig, CampaignObs, CampaignResult, FailureMode, JournalMeta, LeaseStats, ServeConfig,
    WorkerConfig,
};
use tfsim_obs::{EventSink, NoopSink};
use tfsim_uarch::PipelineConfig;
use tfsim_workloads::Workload;

use crate::sys::digest;

/// `workload seed digest` lines: the digests iterations print, recorded
/// for the iteration seeds of run seed 42 (the `figures` binary's default
/// seed), plus one `workload invariant digest` line per workload.
const REFERENCES: &str = include_str!("../refs.txt");

/// Most iterations one run makes (references are stored for this many).
pub const MAX_ITERATIONS: usize = 10;

/// The campaign seed of iteration `i` of a run with seed `seed`. Each
/// iteration draws its own trial plan, so a run's median spans several
/// plans: a campaign's cost is mostly its gray-area trials, whose number
/// depends on the plan. Iteration 0, like the traced run, uses `seed`.
pub fn iteration_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64) << 32
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CampaignDefault,
    CampaignOneWindow,
    FiguresQuick,
    CampaignDistributed,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "campaign-default" => Some(Kind::CampaignDefault),
            "campaign-one-window" => Some(Kind::CampaignOneWindow),
            "figures-quick" => Some(Kind::FiguresQuick),
            "campaign-distributed" => Some(Kind::CampaignDistributed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::CampaignDefault => "campaign-default",
            Kind::CampaignOneWindow => "campaign-one-window",
            Kind::FiguresQuick => "figures-quick",
            Kind::CampaignDistributed => "campaign-distributed",
        }
    }

    /// Trials one iteration attempts (microarchitectural plus, for
    /// `figures-quick`, software-level trials).
    pub fn trials_per_iteration(self) -> u64 {
        match self {
            Kind::FiguresQuick => {
                let c = Scale::Quick.campaign(0);
                let hw = 3
                    * tfsim_workloads::all().len() as u64
                    * (c.start_points * c.trials_per_start_point) as u64;
                let sw = (FaultModel::ALL.len() * tfsim_workloads::all().len()) as u64
                    * Scale::Quick.sw_trials();
                hw + sw
            }
            _ => {
                let c = campaign_config(self, 0);
                2 * (c.start_points * c.trials_per_start_point) as u64
            }
        }
    }

    /// What an iteration with campaign seed `seed` must produce: its
    /// trial count, the seed-independent part of its output, and — if
    /// stored for this seed — its whole output. The distributed campaign
    /// must reproduce the in-process census of the same config, so it
    /// shares `campaign-default`'s references.
    pub fn expected(self, seed: u64) -> Expected {
        let name = match self {
            Kind::CampaignDistributed => Kind::CampaignDefault.name(),
            k => k.name(),
        };
        let stored = |key: &str| {
            REFERENCES.lines().find_map(|line| {
                let mut f = line.split_whitespace();
                (f.next() == Some(name) && f.next() == Some(key))
                    .then(|| f.next().map(str::to_string))
                    .flatten()
            })
        };
        Expected {
            trials: self.trials_per_iteration(),
            digest: stored(&seed.to_string()),
            invariant: stored("invariant"),
        }
    }
}

/// The two-benchmark subset of the campaign workloads.
pub fn campaign_workloads() -> Vec<Workload> {
    ["gzip-like", "mcf-like"]
        .iter()
        .map(|n| tfsim_workloads::by_name(n).expect("built-in workload"))
        .collect()
}

/// The campaign config of a campaign workload: the default-scale preset on
/// one thread, with one long-window start point for `campaign-one-window`.
pub fn campaign_config(kind: Kind, seed: u64) -> CampaignConfig {
    let mut c = CampaignConfig::default_scale(seed);
    c.threads = 1;
    if kind == Kind::CampaignOneWindow {
        c.start_points = 1;
        c.trials_per_start_point = 600;
    }
    c
}

/// The three campaign configs `tfsim_bench::run_campaigns` runs, in its
/// order, with the metrics that time them.
pub fn figure_campaigns(seed: u64) -> [(&'static str, CampaignConfig); 3] {
    let mut lr = Scale::Quick.campaign(seed);
    lr.mask = InjectionMask::LatchesAndRams;
    lr.pipeline = PipelineConfig::baseline();
    let mut l = Scale::Quick.campaign(seed ^ 0x10);
    l.mask = InjectionMask::LatchesOnly;
    l.pipeline = PipelineConfig::baseline();
    let mut p = Scale::Quick.campaign(seed ^ 0x20);
    p.mask = InjectionMask::LatchesAndRams;
    p.pipeline = PipelineConfig::protected();
    [
        ("bench.campaign.baseline_lr_s", lr),
        ("bench.campaign.baseline_l_s", l),
        ("bench.campaign.protected_lr_s", p),
    ]
}

/// What the output checks compare: per-benchmark counts, the by-category
/// census and the eligible-bit count, in a canonical text form.
pub fn census_text(r: &CampaignResult) -> String {
    let mut out = String::new();
    for b in &r.benchmarks {
        let _ = writeln!(out, "bench {} {}", b.name, counts_text(&b.counts));
    }
    for (cat, o) in &r.by_category {
        let _ = writeln!(out, "category {} {}", cat.label(), counts_text(o));
    }
    let _ = writeln!(out, "eligible_bits {}", r.eligible_bits);
    out
}

fn counts_text(o: &tfsim_inject::OutcomeCounts) -> String {
    let mut s = format!("match={} gray={}", o.matched, o.gray);
    for m in FailureMode::ALL {
        let _ = write!(s, " {}={}", m.label(), o.failure(m));
    }
    s
}

/// Every exhibit `figures --scale quick` prints, in its order.
pub fn render_all(c: &tfsim_bench::Campaigns, sw: &[(FaultModel, SwTally)]) -> String {
    use tfsim_bench::*;
    [
        render_config(),
        render_table1(),
        render_fig3(c),
        render_fig4(c),
        render_fig5(c),
        render_fig6(c),
        render_fig7(c),
        render_fig8(c),
        render_overhead(),
        render_fig9(c),
        render_fig10(c),
        render_reduction(c),
        render_fig11(sw),
        render_summary(c, sw),
    ]
    .join("\n")
}

/// The checked result of one iteration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// Trials that produced a classified outcome (census or software tally).
    pub trials: u64,
    /// Trials the harness quarantined (contained panics).
    pub quarantined: u64,
    /// Digest of the census text (campaigns) or the rendered exhibits.
    pub digest: String,
    /// Digest of the seed-independent part: benchmark names and eligible
    /// bits of every campaign.
    pub invariant: String,
}

impl Output {
    pub fn of_campaigns(results: &[&CampaignResult], text: &str) -> Output {
        let mut invariant = String::new();
        for r in results {
            for b in &r.benchmarks {
                let _ = write!(invariant, "{} ", b.name);
            }
            let _ = writeln!(invariant, "eligible_bits {}", r.eligible_bits);
        }
        Output {
            trials: results.iter().map(|r| r.totals().total()).sum(),
            quarantined: results.iter().map(|r| r.quarantined.len() as u64).sum(),
            digest: digest(text),
            invariant: digest(&invariant),
        }
    }
}

/// What an iteration must produce.
#[derive(Debug, Clone)]
pub struct Expected {
    pub trials: u64,
    /// Digest of the whole output, where one is known.
    pub digest: Option<String>,
    /// Digest of the seed-independent part, where one is known.
    pub invariant: Option<String>,
}

impl Expected {
    /// Expects exactly `out` again (traced against untraced runs).
    pub fn same_as(out: &Output) -> Expected {
        Expected {
            trials: out.trials + out.quarantined,
            digest: Some(out.digest.clone()),
            invariant: Some(out.invariant.clone()),
        }
    }

    /// How an iteration's trials are accounted: all of them fail when the
    /// iteration failed a check, otherwise only the quarantined ones.
    pub fn failed_trials(&self, out: &Output) -> u64 {
        let ok = out.trials + out.quarantined == self.trials
            && self.digest.as_ref().is_none_or(|d| *d == out.digest)
            && self.invariant.as_ref().is_none_or(|d| *d == out.invariant);
        if ok {
            out.quarantined
        } else {
            self.trials
        }
    }
}

/// Component timings of one distributed iteration.
pub struct Distributed {
    pub result: CampaignResult,
    pub serve: Duration,
    pub merge: Duration,
    pub stats: LeaseStats,
    pub shards: Vec<PathBuf>,
}

/// Serves `config` to two localhost worker threads, each journaling to its
/// own shard under `dir`, then rebuilds the census from the merged shards.
pub fn run_distributed(
    config: &CampaignConfig,
    workloads: &[Workload],
    dir: &Path,
    ops: &dyn EventSink,
    obs: &CampaignObs<'_>,
) -> Distributed {
    let shards: Vec<PathBuf> = (0..2)
        .map(|i| dir.join(format!("shard{i}.jsonl")))
        .collect();
    for s in &shards {
        // A shard left by an earlier iteration would be resumed, not rerun.
        let _ = std::fs::remove_file(s);
    }
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a localhost port");
    let addr = listener.local_addr().expect("bound address").to_string();
    // Leases never expire on a healthy run (tasks take about a second);
    // the idle timeout only ends a run whose workers all died.
    let serve_cfg = ServeConfig {
        idle_timeout_ms: 60_000,
        ..ServeConfig::default()
    };
    let t0 = Instant::now();
    let report = std::thread::scope(|scope| {
        let coordinator =
            scope.spawn(|| serve_campaign(listener, config, workloads, None, ops, &serve_cfg));
        let workers: Vec<_> = shards
            .iter()
            .map(|shard| {
                let mut wc = WorkerConfig::new(addr.clone());
                wc.shard = Some(shard.clone());
                scope.spawn(move || run_worker(&wc))
            })
            .collect();
        for w in workers {
            w.join().expect("worker thread").expect("worker run");
        }
        coordinator
            .join()
            .expect("coordinator thread")
            .expect("serve")
    });
    let serve = t0.elapsed();
    assert!(
        report.complete,
        "distributed campaign incomplete: {:?}",
        report.stats
    );
    let t1 = Instant::now();
    let meta = JournalMeta::new(config, workloads);
    let (tasks, _) = merge_shards(&meta, &shards).expect("merge worker shards");
    let result = run_campaign_with_tasks(config, workloads, obs, tasks);
    let merge = t1.elapsed();
    Distributed {
        result,
        serve,
        merge,
        stats: report.stats,
        shards,
    }
}

/// Runs one untraced iteration of `kind`: a fresh library call with no
/// state carried over from any earlier call.
pub fn iterate(kind: Kind, seed: u64, scratch: &Path) -> Output {
    match kind {
        Kind::CampaignDefault | Kind::CampaignOneWindow => {
            let r = run_campaign_on(&campaign_config(kind, seed), &campaign_workloads());
            Output::of_campaigns(&[&r], &census_text(&r))
        }
        Kind::FiguresQuick => {
            let c = tfsim_bench::run_campaigns(Scale::Quick, seed);
            let sw = tfsim_bench::run_sw_experiments(Scale::Quick, seed);
            let mut out = Output::of_campaigns(
                &[&c.baseline_lr, &c.baseline_l, &c.protected_lr],
                &render_all(&c, &sw),
            );
            out.trials += sw.iter().map(|(_, t)| t.total()).sum::<u64>();
            out
        }
        Kind::CampaignDistributed => {
            let config = campaign_config(Kind::CampaignDefault, seed);
            let d = run_distributed(
                &config,
                &campaign_workloads(),
                scratch,
                &NoopSink,
                &CampaignObs::disabled(),
            );
            for s in &d.shards {
                let _ = std::fs::remove_file(s);
            }
            Output::of_campaigns(&[&d.result], &census_text(&d.result))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REFERENCE_SEED: u64 = 42;

    fn small_result() -> CampaignResult {
        let mut cfg = CampaignConfig::quick(3);
        cfg.start_points = 1;
        cfg.trials_per_start_point = 6;
        cfg.monitor_cycles = 400;
        cfg.threads = 1;
        run_campaign_on(&cfg, &campaign_workloads()[..1])
    }

    #[test]
    fn a_perturbed_census_is_reported_as_failed_trials() {
        let r = small_result();
        let good = Output::of_campaigns(&[&r], &census_text(&r));
        let expected = Expected::same_as(&good);
        assert_eq!(expected.failed_trials(&good), 0);

        let mut perturbed = r.clone();
        perturbed.benchmarks[0].counts.gray += 1;
        perturbed.benchmarks[0].counts.matched -= 1;
        let bad = Output::of_campaigns(&[&perturbed], &census_text(&perturbed));
        assert_ne!(bad.digest, good.digest);
        assert_eq!(
            bad.invariant, good.invariant,
            "the census moved, not the machine"
        );
        assert_eq!(expected.failed_trials(&bad), 6, "every trial fails");

        let mut moved = r.clone();
        moved.eligible_bits += 1;
        let moved = Output::of_campaigns(&[&moved], &census_text(&moved));
        let any_seed = Expected {
            digest: None,
            ..expected.clone()
        };
        assert_eq!(
            any_seed.failed_trials(&moved),
            6,
            "invariant checked at any seed"
        );

        let short = Output {
            trials: 5,
            ..good.clone()
        };
        assert_eq!(
            any_seed.failed_trials(&short),
            6,
            "a lost trial fails the iteration"
        );
        let quarantined = Output {
            trials: 5,
            quarantined: 1,
            ..good
        };
        assert_eq!(any_seed.failed_trials(&quarantined), 1);
    }

    #[test]
    fn every_iteration_of_the_reference_seed_has_a_reference() {
        for name in crate::metrics::WORKLOADS {
            let kind = Kind::parse(name).expect("catalogued workload parses");
            assert_eq!(kind.name(), name);
            for i in 0..MAX_ITERATIONS {
                let expected = kind.expected(iteration_seed(REFERENCE_SEED, i));
                assert!(
                    expected.digest.is_some(),
                    "{name} iteration {i} has no reference"
                );
                assert!(expected.invariant.is_some(), "{name} has no invariant");
            }
        }
        assert_eq!(Kind::parse("nope"), None);
        assert_eq!(iteration_seed(7, 0), 7);
    }

    #[test]
    fn trial_counts_match_the_presets() {
        assert_eq!(Kind::CampaignDefault.trials_per_iteration(), 1_200);
        assert_eq!(Kind::CampaignOneWindow.trials_per_iteration(), 1_200);
        assert_eq!(Kind::CampaignDistributed.trials_per_iteration(), 1_200);
        assert_eq!(Kind::FiguresQuick.trials_per_iteration(), 2_400 + 2_400);
    }
}
