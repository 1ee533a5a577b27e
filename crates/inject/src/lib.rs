#![warn(missing_docs)]

//! # tfsim-inject — the fault-injection framework
//!
//! Implements the paper's experimental methodology (Section 2):
//!
//! 1. **Warm-up and checkpoints.** A workload runs on the pipeline model;
//!    checkpoints (clones of the warmed machine) become *start points*.
//! 2. **Golden precomputation.** The fault-free machine runs once per
//!    benchmark over the union of its start points' monitoring horizons,
//!    recording a per-cycle 128-bit fingerprint of *every* state bit, the
//!    retirement trace, and the commit spans behind the per-cycle count of
//!    in-flight instructions that eventually commit (for the Figure 6
//!    utilization analysis). Each start point views its window of this
//!    shared golden timeline.
//! 3. **Trials.** Each trial clones the checkpoint, flips one uniformly
//!    chosen eligible state bit at a uniformly chosen cycle, and monitors
//!    up to 10,000 cycles, classifying the outcome as:
//!    * [`Outcome::MicroArchMatch`] — entire machine state re-converged
//!      with the golden run (fault conclusively masked);
//!    * [`Outcome::Failure`] — architectural state diverged, subdivided
//!      into the paper's seven failure modes ([`FailureMode`]);
//!    * [`Outcome::GrayArea`] — neither, within the monitoring window.
//!
//! Architectural checking happens at *retirement granularity*: the
//! injected machine's k-th retired instruction must match the golden k-th
//! record (PC, next PC, instruction word, destination value, store).
//! This makes the check timing-tolerant, so protection-induced pipeline
//! flushes land in the Gray Area rather than being counted as failures —
//! matching the paper's semantics.
//!
//! Campaigns are observable via [`run_campaign_observed`]: per-trial events
//! into a `tfsim_obs::EventSink` (JSONL traces for the `tfsim-run report`
//! subcommand), counters and latency histograms into [`CampaignMetrics`],
//! and a live progress gauge. Telemetry is strictly pay-for-what-you-use:
//! [`run_campaign`] uses [`CampaignObs::disabled`] and runs the
//! pre-telemetry code path.
//!
//! ```no_run
//! use tfsim_inject::{run_campaign, run_campaign_observed, CampaignConfig, CampaignObs};
//! use tfsim_bitstate::InjectionMask;
//! use tfsim_obs::RingSink;
//!
//! let mut config = CampaignConfig::quick(7);
//! config.mask = InjectionMask::LatchesOnly;
//! let result = run_campaign(&config);
//! println!("masked: {:.1}%", 100.0 * result.totals().masked_fraction());
//!
//! // The same campaign with the trial-event stream kept in memory:
//! let sink = RingSink::new(4096);
//! let obs = CampaignObs { sink: &sink, metrics: None, progress: None, spans: None };
//! let traced = run_campaign_observed(&config, &tfsim_workloads::all(), &obs);
//! assert_eq!(traced.totals(), result.totals());
//! println!("{} events captured", sink.events().len());
//! ```

mod campaign;
mod footprint;
mod golden;
mod journal;
mod lease;
mod pruner;
mod shard;
mod trial;

pub use campaign::{
    run_campaign, run_campaign_journaled, run_campaign_observed, run_campaign_on,
    run_campaign_with_tasks, BenchmarkResult, CampaignConfig, Engine, CampaignMetrics, CampaignObs,
    CampaignQuarantine, CampaignResult, OutcomeCounts, ScatterPoint,
};
pub use journal::{CampaignJournal, JournalMeta, JournaledTask};
pub use lease::{CompleteOutcome, LeaseStats, LeaseTable, RenewError, TaskId};
pub use shard::{
    merge_shards, run_worker, serve_campaign, MergeStats, ServeConfig, ServeReport, WorkerConfig,
    WorkerReport,
};
pub use tfsim_obs::PruneDispositions;
pub use trial::{
    FailureMode, Outcome, StartPoint, TracedBatch, TrialFault, TrialRecord, TrialSpec, TrialTrace,
};
