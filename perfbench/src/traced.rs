//! The traced run: per-layer costs of one workload, measured by timing the
//! library's public calls from the outside.
//!
//! The run first takes the campaign through `run_campaign_observed` with
//! the span profiler on (span self times, trial events, tracing overhead),
//! then replays every (benchmark, start point) task step by step — program
//! build, TLB probe, warm-up, `StartPoint::prepare`, `StartPoint::run_trials`
//! on the campaign's own plan and on a strided plan of the same size — and
//! times each call. Replayed records must match the campaign's trial events,
//! and sampled events are re-run on the reference `StartPoint::run_trial`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use tfsim_arch::swinject;
use tfsim_arch::FuncSim;
use tfsim_bench::Scale;
use tfsim_bitstate::fingerprint_of;
use tfsim_check::Rng;
use tfsim_inject::{
    merge_shards, run_campaign_observed, run_campaign_on, CampaignConfig, CampaignJournal,
    CampaignObs, CampaignResult, JournalMeta, Outcome, StartPoint, TrialSpec,
};
use tfsim_obs::{Event, RingSink, SpanProfiler, SpanTree};
use tfsim_uarch::Pipeline;
use tfsim_workloads::Workload;

use crate::metrics::LAYERS;
use crate::work::{
    campaign_config, campaign_workloads, census_text, figure_campaigns, render_all,
    run_distributed, Expected, Kind, Output,
};

/// Trial events re-run on the reference path per traced run.
const SAMPLED_TRIALS: usize = 8;
/// Clones and full fingerprint walks timed per task.
const MICRO_REPS: u32 = 16;
/// `FuncSim` budget of the TLB probe, as in the library's warm-up.
const PROBE_INSNS: u64 = 50_000_000;
/// The campaign's phase spans and the metrics of their self times.
const SPAN_METRICS: [(&str, &str); 8] = [
    ("warmup", "span.warmup_s"),
    ("golden", "span.golden_s"),
    ("trials", "span.trials_s"),
    ("advance", "span.advance_s"),
    ("ride", "span.ride_s"),
    ("classify", "span.classify_s"),
    ("prune", "span.prune_s"),
    ("journal", "span.journal_s"),
];

/// Attempted and failed trials plus check results of a run.
#[derive(Debug, Default)]
pub struct Account {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Account {
    /// Accounts one checked iteration (see [`Expected::failed_trials`]).
    pub fn iteration(&mut self, what: &str, out: &Output, expected: &Expected) {
        self.attempted += expected.trials;
        let failed = expected.failed_trials(out);
        if failed > out.quarantined {
            self.errors
                .push(format!("{what}: got {out:?}, expected {expected:?}"));
        }
        self.failed += failed;
    }
}

/// Summed costs of the replayed tasks.
#[derive(Default)]
struct Replay {
    tasks: u64,
    build: Duration,
    probe: Duration,
    warm: Duration,
    golden: Duration,
    golden_cycles: u64,
    batch: Duration,
    batch_trials: u64,
    /// `run_trials` on the observed campaign's own plans.
    replayed: Duration,
    step: Duration,
    steps: u64,
    clone: Duration,
    fingerprint: Duration,
    micro_reps: u64,
}

impl Replay {
    fn timed_layers(&self) -> Duration {
        self.build + self.probe + self.warm + self.golden + self.replayed
    }
}

/// One trial as the observed campaign's event stream reported it.
#[derive(Clone)]
struct Reported {
    bench: usize,
    start_point: u32,
    spec: TrialSpec,
    detect_cycle: u64,
    /// `(outcome, mode, category, kind, unit, valid_instructions)` labels.
    labels: String,
}

fn record_labels(rec: &tfsim_inject::TrialRecord) -> String {
    let (outcome, mode) = match rec.outcome {
        Outcome::MicroArchMatch => ("match", None),
        Outcome::GrayArea => ("gray", None),
        Outcome::Failure(m) => ("fail", Some(m.label())),
    };
    format!(
        "{outcome} {:?} {} {} {:?} {}",
        mode,
        rec.category.label(),
        rec.kind.label(),
        rec.unit.map(|u| u.label()),
        rec.valid_instructions
    )
}

/// The trial events of a campaign in (benchmark, start point, trial) order.
fn reported_trials(events: &[Event]) -> Vec<Reported> {
    let mut trials: Vec<(u64, Reported)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Trial {
                benchmark,
                start_point,
                trial,
                target,
                inject_cycle,
                category,
                kind,
                unit,
                outcome,
                mode,
                detect_cycle,
                valid_instructions,
                ..
            } => Some((
                *trial,
                Reported {
                    bench: *benchmark as usize,
                    start_point: *start_point as u32,
                    spec: TrialSpec {
                        target: *target,
                        inject_cycle: *inject_cycle,
                    },
                    detect_cycle: *detect_cycle,
                    labels: format!(
                        "{outcome} {:?} {category} {kind} {:?} {valid_instructions}",
                        mode.as_deref(),
                        unit.as_deref()
                    ),
                },
            )),
            _ => None,
        })
        .collect();
    trials.sort_by_key(|(trial, r)| (r.bench, r.start_point, *trial));
    trials.into_iter().map(|(_, r)| r).collect()
}

/// Picks `n` reported trials, deterministically from `seed`.
fn sample(trials: &[Reported], seed: u64, n: usize) -> Vec<Reported> {
    if trials.is_empty() {
        return Vec::new();
    }
    let mut rng = Rng::from_seed_stream(seed, 0x5a_4d_50_4c);
    (0..n)
        .map(|_| trials[rng.gen_range(0..trials.len())].clone())
        .collect()
}

/// Re-runs a sampled trial on the reference path. The outcome must match
/// with the full monitor window; and since a trial's outcome is decided at
/// its detect cycle, a window ending there must reach the same outcome
/// while one ending a cycle earlier must not decide it (gray area).
fn recheck(sp: &StartPoint, config: &CampaignConfig, s: &Reported) -> Result<(), String> {
    let TrialSpec {
        target,
        inject_cycle,
    } = s.spec;
    let full = sp.run_trial(config.mask, target, inject_cycle, config.monitor_cycles);
    if record_labels(&full) != s.labels {
        return Err(format!(
            "run_trial gave {:?}, event says {:?}",
            record_labels(&full),
            s.labels
        ));
    }
    let window = s
        .detect_cycle
        .checked_sub(inject_cycle)
        .ok_or("detect before inject")?;
    if window > config.monitor_cycles {
        return Err(format!(
            "detect cycle {} beyond the monitor window",
            s.detect_cycle
        ));
    }
    if full.outcome == Outcome::GrayArea {
        return Ok(());
    }
    let at = sp.run_trial(config.mask, target, inject_cycle, window);
    if at.outcome != full.outcome {
        return Err(format!(
            "window ending at detect cycle {} gave {:?}",
            s.detect_cycle, at.outcome
        ));
    }
    if window > 0 {
        let before = sp.run_trial(config.mask, target, inject_cycle, window - 1);
        if before.outcome != Outcome::GrayArea {
            return Err(format!(
                "outcome already decided before detect cycle {}: {:?}",
                s.detect_cycle, before.outcome
            ));
        }
    }
    Ok(())
}

/// A plan of `n` trials spread evenly over the eligible bits, with
/// injection cycles strided through the window: seed-independent, so the
/// batch cost it measures moves only with the engine.
fn strided_plan(bits: u64, window: u64, n: u32) -> Vec<TrialSpec> {
    let n = n as u64;
    (0..n)
        .map(|i| TrialSpec {
            target: (2 * i + 1) * bits / (2 * n),
            inject_cycle: i * 97 % window,
        })
        .collect()
}

/// Replays every task of `config` through the public step-by-step API,
/// timing each call: the reported plan (whose records must match the
/// reported ones), then a strided plan of the same size. Re-runs the
/// samples that fall in each task on the reference path.
fn replay(
    config: &CampaignConfig,
    workloads: &[Workload],
    reported: &[Reported],
    samples: &[Reported],
    total: &mut Replay,
    acct: &mut Account,
) {
    let horizon = config.inject_window + config.monitor_cycles;
    for (b, w) in workloads.iter().enumerate() {
        for s in 0..config.start_points {
            let t = Instant::now();
            let program = w.build(config.scale);
            total.build += t.elapsed();

            let t = Instant::now();
            let mut probe = FuncSim::new(&program);
            probe.run(PROBE_INSNS);
            total.probe += t.elapsed();

            let t = Instant::now();
            let mut warm = Pipeline::new(&program, config.pipeline);
            warm.set_tlbs(probe.code_pages().clone(), probe.data_pages().clone());
            warm.enable_flow_log();
            for _ in 0..config.warmup_cycles + config.spacing_cycles * s as u64 {
                if !warm.running() {
                    break;
                }
                warm.step();
            }
            total.warm += t.elapsed();

            let t = Instant::now();
            let sp = StartPoint::prepare(&warm, horizon, config.mask);
            total.golden += t.elapsed();
            total.golden_cycles += horizon;

            // The floor: one fault-free pass over the same golden window,
            // with no fingerprinting or logging.
            let mut machine = warm.clone();
            machine.disable_flow_log();
            let t = Instant::now();
            for _ in 0..MICRO_REPS {
                black_box(machine.clone());
            }
            total.clone += t.elapsed();
            let t = Instant::now();
            for _ in 0..MICRO_REPS {
                black_box(fingerprint_of(&mut machine));
            }
            total.fingerprint += t.elapsed();
            total.micro_reps += MICRO_REPS as u64;
            let t = Instant::now();
            for _ in 0..horizon {
                if !machine.running() {
                    break;
                }
                machine.step();
                total.steps += 1;
            }
            total.step += t.elapsed();

            let task: Vec<&Reported> = reported
                .iter()
                .filter(|r| r.bench == b && r.start_point == s)
                .collect();
            if task.len() != config.trials_per_start_point as usize {
                acct.errors
                    .push(format!("{} sp{s}: {} trial events", w.name, task.len()));
                acct.failed += config.trials_per_start_point as u64;
            }
            let plan: Vec<TrialSpec> = task.iter().map(|r| r.spec).collect();
            let t = Instant::now();
            let records = sp.run_trials(config.mask, &plan, config.monitor_cycles);
            total.replayed += t.elapsed();
            acct.attempted += task.len() as u64;
            for (rec, r) in records.iter().zip(&task) {
                if record_labels(rec) != r.labels {
                    acct.failed += 1;
                    acct.errors.push(format!(
                        "{} sp{s}: replayed {:?}, event says {:?}",
                        w.name,
                        record_labels(rec),
                        r.labels
                    ));
                }
            }

            let plan = strided_plan(
                sp.bit_count(),
                config.inject_window,
                config.trials_per_start_point,
            );
            let t = Instant::now();
            black_box(sp.run_trials(config.mask, &plan, config.monitor_cycles));
            total.batch += t.elapsed();
            total.batch_trials += plan.len() as u64;
            total.tasks += 1;

            for sample in samples
                .iter()
                .filter(|x| x.bench == b && x.start_point == s)
            {
                acct.attempted += 1;
                if let Err(e) = recheck(&sp, config, sample) {
                    acct.failed += 1;
                    acct.errors.push(format!(
                        "{} sp{s} target {} cycle {}: {e}",
                        w.name, sample.spec.target, sample.spec.inject_cycle
                    ));
                }
            }
        }
    }
}

/// Self time per span name (wall time not covered by child spans), summed
/// over every node of that name.
fn span_self_ns(tree: &SpanTree) -> BTreeMap<String, u64> {
    let flat = tree.flatten();
    let mut out = BTreeMap::new();
    for (path, wall, _) in &flat {
        let prefix = format!("{path};");
        let children: u64 = flat
            .iter()
            .filter(|(p, _, _)| {
                p.strip_prefix(&prefix)
                    .is_some_and(|rest| !rest.contains(';'))
            })
            .map(|(_, w, _)| w)
            .sum();
        let name = path.rsplit(';').next().unwrap_or(path).to_string();
        *out.entry(name).or_insert(0) += wall.saturating_sub(children);
    }
    out
}

/// One observed campaign: result, wall time, and its trial events.
fn observe(
    config: &CampaignConfig,
    workloads: &[Workload],
    spans: &SpanProfiler,
) -> (CampaignResult, Duration, Vec<Event>) {
    let sink = RingSink::new(1 << 16);
    let obs = CampaignObs {
        sink: &sink,
        metrics: None,
        progress: None,
        spans: Some(spans),
    };
    let t = Instant::now();
    let r = run_campaign_observed(config, workloads, &obs);
    (r, t.elapsed(), sink.events())
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Runs the traced measurement of `kind`. `untraced` is an untraced
/// iteration of the same workload and seed (wall time and output) that the
/// traced results are checked and normalised against.
pub fn run(
    kind: Kind,
    seed: u64,
    scratch: &Path,
    untraced: (Duration, &Output),
    acct: &mut Account,
) -> BTreeMap<&'static str, f64> {
    let mut m: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (l.name, 0.0)).collect();
    let (wall_u, untraced_out) = untraced;
    let spans = SpanProfiler::new();
    let mut total = Replay::default();

    match kind {
        Kind::CampaignDefault | Kind::CampaignOneWindow => {
            let config = campaign_config(kind, seed);
            let wl = campaign_workloads();
            let (r, wall_t, events) = observe(&config, &wl, &spans);
            let out = Output::of_campaigns(&[&r], &census_text(&r));
            acct.iteration("observed campaign", &out, &Expected::same_as(untraced_out));
            m.insert("obs.traced_overhead_x", ratio(secs(wall_t), secs(wall_u)));
            let reported = reported_trials(&events);
            let samples = sample(&reported, seed, SAMPLED_TRIALS);
            replay(&config, &wl, &reported, &samples, &mut total, acct);
            m.insert(
                "inject.unattributed_s",
                secs(wall_u) - secs(total.timed_layers()),
            );
        }
        Kind::FiguresQuick => {
            let all = tfsim_workloads::all();
            let mut results = Vec::new();
            let mut untraced_campaigns = Duration::ZERO;
            for (metric, config) in figure_campaigns(seed) {
                let t = Instant::now();
                results.push(run_campaign_on(&config, &all));
                let d = t.elapsed();
                untraced_campaigns += d;
                m.insert(metric, secs(d));
            }
            let t = Instant::now();
            let sw = tfsim_bench::run_sw_experiments(Scale::Quick, seed);
            let sw_time = t.elapsed();
            let [lr, l, p]: [CampaignResult; 3] = results.try_into().expect("three campaigns");
            let campaigns = tfsim_bench::Campaigns {
                baseline_lr: lr,
                baseline_l: l,
                protected_lr: p,
            };
            let t = Instant::now();
            let text = render_all(&campaigns, &sw);
            let render = t.elapsed();
            let mut out = Output::of_campaigns(
                &[
                    &campaigns.baseline_lr,
                    &campaigns.baseline_l,
                    &campaigns.protected_lr,
                ],
                &text,
            );
            out.trials += sw.iter().map(|(_, t)| t.total()).sum::<u64>();
            acct.iteration("decomposed figures", &out, &Expected::same_as(untraced_out));
            m.insert("arch.sw_s", secs(sw_time));
            m.insert("bench.render_ms", render.as_secs_f64() * 1e3);

            let mut golden = Duration::ZERO;
            for w in &all {
                let program = w.build(1);
                let t = Instant::now();
                black_box(swinject::golden_ref(&program, 10_000_000));
                golden += t.elapsed();
            }
            let sw_trials = sw.iter().map(|(_, t)| t.total()).sum::<u64>();
            m.insert("arch.sw_golden_ms", golden.as_secs_f64() * 1e3);
            m.insert(
                "arch.sw_trial_ms",
                ratio(
                    (sw_time.saturating_sub(golden)).as_secs_f64() * 1e3,
                    sw_trials as f64,
                ),
            );

            let mut traced_campaigns = Duration::ZERO;
            let reference = [
                &campaigns.baseline_lr,
                &campaigns.baseline_l,
                &campaigns.protected_lr,
            ];
            for (i, (metric, config)) in figure_campaigns(seed).into_iter().enumerate() {
                let (r, wall_t, events) = observe(&config, &all, &spans);
                traced_campaigns += wall_t;
                let expected = Output::of_campaigns(&[reference[i]], &census_text(reference[i]));
                let out = Output::of_campaigns(&[&r], &census_text(&r));
                acct.iteration(
                    &format!("observed campaign of {metric}"),
                    &out,
                    &Expected::same_as(&expected),
                );
                let reported = reported_trials(&events);
                let samples = sample(&reported, seed ^ i as u64, SAMPLED_TRIALS / 2);
                replay(&config, &all, &reported, &samples, &mut total, acct);
            }
            m.insert(
                "obs.traced_overhead_x",
                ratio(secs(traced_campaigns), secs(untraced_campaigns)),
            );
            m.insert(
                "inject.unattributed_s",
                secs(wall_u) - secs(untraced_campaigns + sw_time + render),
            );
        }
        Kind::CampaignDistributed => {
            let config = campaign_config(Kind::CampaignDefault, seed);
            let wl = campaign_workloads();
            let ops = RingSink::new(1 << 12);
            let sink = RingSink::new(1 << 16);
            let obs = CampaignObs {
                sink: &sink,
                metrics: None,
                progress: None,
                spans: None,
            };
            let t = Instant::now();
            let d = run_distributed(&config, &wl, scratch, &ops, &obs);
            let wall_t = t.elapsed();
            let dist = Output::of_campaigns(&[&d.result], &census_text(&d.result));
            acct.iteration(
                "traced distributed",
                &dist,
                &Expected::same_as(untraced_out),
            );
            m.insert("shard.serve_s", secs(d.serve));
            m.insert("shard.merge_s", secs(d.merge));
            m.insert("lease.regranted", d.stats.regranted as f64);
            m.insert("lease.expired", d.stats.expired as f64);
            m.insert("lease.duplicates", d.stats.duplicates as f64);
            m.insert("obs.traced_overhead_x", ratio(secs(wall_t), secs(wall_u)));
            m.insert(
                "inject.unattributed_s",
                secs(wall_u) - secs(d.serve + d.merge),
            );

            let meta = JournalMeta::new(&config, &wl);
            let (tasks, _) = merge_shards(&meta, &d.shards).expect("merge worker shards");
            let path = scratch.join("append.jsonl");
            let _ = std::fs::remove_file(&path);
            let t = Instant::now();
            let journal = CampaignJournal::create(&path, &meta).expect("create journal");
            for task in &tasks {
                journal.append_task(task).expect("append journal task");
            }
            m.insert("journal.append_ms", t.elapsed().as_secs_f64() * 1e3);
            drop(journal);
            for p in d.shards.iter().chain([&path]) {
                let _ = std::fs::remove_file(p);
            }

            // The in-process census of the same config is the reference
            // the distributed census must equal, at any seed.
            let (r, _, events) = observe(&config, &wl, &spans);
            let out = Output::of_campaigns(&[&r], &census_text(&r));
            acct.iteration("in-process reference", &out, &Expected::same_as(&dist));
            let reported = reported_trials(&events);
            let samples = sample(&reported, seed, SAMPLED_TRIALS);
            replay(&config, &wl, &reported, &samples, &mut total, acct);
        }
    }

    let tree = spans.snapshot();
    let self_ns = span_self_ns(&tree);
    for (span, metric) in SPAN_METRICS {
        m.insert(metric, self_ns.get(span).copied().unwrap_or(0) as f64 / 1e9);
    }
    m.insert("span.coverage", tree.coverage_at_depth(2).unwrap_or(0.0));

    let step_ns = ratio(total.step.as_nanos() as f64, total.steps as f64);
    let reps = total.micro_reps as f64;
    m.insert("workloads.build_ms", total.build.as_secs_f64() * 1e3);
    m.insert("arch.probe_ms", total.probe.as_secs_f64() * 1e3);
    m.insert("uarch.step_ns", step_ns);
    m.insert(
        "uarch.clone_us",
        ratio(total.clone.as_nanos() as f64 / 1e3, reps),
    );
    m.insert(
        "bitstate.fingerprint_full_us",
        ratio(total.fingerprint.as_nanos() as f64 / 1e3, reps),
    );
    m.insert("inject.warmup_s", secs(total.warm));
    m.insert("inject.golden_s", secs(total.golden));
    m.insert(
        "inject.golden_steps_per_cycle",
        ratio(
            total.golden.as_nanos() as f64,
            total.golden_cycles as f64 * step_ns,
        ),
    );
    m.insert("inject.batch_s", secs(total.batch));
    m.insert(
        "inject.trial_steps",
        ratio(
            total.batch.as_nanos() as f64,
            total.batch_trials as f64 * step_ns,
        ),
    );
    m.insert("inject.tasks", total.tasks as f64);
    m.insert("inject.golden_cycles", total.golden_cycles as f64);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_self_time_subtracts_direct_children_only() {
        let mut ls = tfsim_obs::LocalSpans::new();
        ls.enter("campaign");
        ls.enter("sp0");
        ls.enter("trials");
        ls.record("classify", 5, 1);
        ls.exit();
        ls.exit();
        ls.exit();
        let profiler = SpanProfiler::new();
        profiler.absorb(&ls);
        let tree = profiler.snapshot();
        let wall: BTreeMap<String, u64> = tree
            .flatten()
            .into_iter()
            .map(|(p, w, _)| (p.rsplit(';').next().unwrap().to_string(), w))
            .collect();
        let own = span_self_ns(&tree);
        assert_eq!(own["classify"], 5);
        assert_eq!(own["trials"], wall["trials"].saturating_sub(5));
        assert_eq!(own["sp0"], wall["sp0"] - wall["trials"]);
    }

    #[test]
    fn strided_plan_covers_bits_and_window() {
        let plan = strided_plan(1_000, 250, 100);
        assert_eq!(plan.len(), 100);
        assert!(plan
            .iter()
            .all(|s| s.target < 1_000 && s.inject_cycle < 250));
        let distinct: std::collections::BTreeSet<u64> = plan.iter().map(|s| s.target).collect();
        assert_eq!(distinct.len(), 100);
    }

    #[test]
    fn replayed_and_sampled_trials_match_the_reported_ones() {
        let mut config = CampaignConfig::quick(11);
        config.start_points = 1;
        config.trials_per_start_point = 12;
        config.monitor_cycles = 600;
        config.threads = 1;
        let wl = &campaign_workloads()[..1];
        let spans = SpanProfiler::new();
        let (_, _, events) = observe(&config, wl, &spans);
        let reported = reported_trials(&events);
        assert_eq!(reported.len(), 12);
        let mut samples = sample(&reported, 1, 6);
        let mut acct = Account::default();
        replay(
            &config,
            wl,
            &reported,
            &samples,
            &mut Replay::default(),
            &mut acct,
        );
        assert_eq!(
            (acct.attempted, acct.failed),
            (12 + 6, 0),
            "{:?}",
            acct.errors
        );

        // A trial whose event disagrees with the reference is a failure.
        samples[0].detect_cycle = samples[0].spec.inject_cycle + config.monitor_cycles + 1;
        samples[1].labels.push('!');
        let mut wrong = reported.clone();
        wrong[3].labels.push('!');
        let mut acct = Account::default();
        replay(
            &config,
            wl,
            &wrong,
            &samples[..2],
            &mut Replay::default(),
            &mut acct,
        );
        assert_eq!(
            (acct.attempted, acct.failed),
            (12 + 2, 3),
            "{:?}",
            acct.errors
        );
    }
}
