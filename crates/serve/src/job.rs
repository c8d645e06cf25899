//! Job vocabulary shared by every front end: what to run ([`JobSpec`]),
//! what streamed out ([`JobEvent`]) and what it amounted to
//! ([`JobOutcome`]).
//!
//! The `flh campaign` subcommand, the bench binaries and the serve
//! protocol all build one of these specs and hand it to the
//! [`JobEngine`](crate::engine::JobEngine); none of them owns private
//! parse→compile→campaign plumbing anymore.

use flh_atpg::{ApplicationStyle, CampaignResult};
use flh_core::{DftStyle, EvalConfig, StyleEvaluation};
use flh_obs::Json;

use crate::cache::CacheLookup;
use crate::source::CircuitSource;

/// Deterministic job identity: assigned in submission order, displayed as
/// `job-N`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

impl JobId {
    /// Parses the `job-N` display form back to an id.
    pub fn parse(text: &str) -> Option<JobId> {
        text.strip_prefix("job-")?.parse().ok().map(JobId)
    }
}

/// What a job computes over its compiled circuit.
#[derive(Clone, Debug)]
pub enum JobKind {
    /// Seeded random transition-fault campaign, one batch per application
    /// style.
    Campaign {
        /// Styles to run, in batch order.
        styles: Vec<ApplicationStyle>,
        /// Pattern pairs per style.
        pairs: usize,
        /// Campaign seed.
        seed: u64,
    },
    /// Area/delay/power overhead evaluation, one batch per DFT style.
    Evaluate {
        /// Styles to evaluate, in batch order.
        styles: Vec<DftStyle>,
        /// Shared evaluation environment.
        config: EvalConfig,
    },
}

/// A complete unit of work: a circuit source, optional DFT styling applied
/// before the computation, and the computation itself.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Where the circuit comes from.
    pub source: CircuitSource,
    /// DFT transform applied to the circuit before the job runs (campaign
    /// jobs only; evaluation styles internally).
    pub dft: Option<DftStyle>,
    /// The computation.
    pub kind: JobKind,
}

impl JobSpec {
    /// A campaign spec with the CLI defaults: all three application
    /// styles, 256 pairs, seed 7.
    pub fn campaign(source: CircuitSource) -> Self {
        JobSpec {
            source,
            dft: None,
            kind: JobKind::Campaign {
                styles: ALL_APPLICATION_STYLES.to_vec(),
                pairs: 256,
                seed: 7,
            },
        }
    }

    /// An overhead-evaluation spec over the given styles.
    pub fn evaluate(source: CircuitSource, styles: Vec<DftStyle>, config: EvalConfig) -> Self {
        JobSpec {
            source,
            dft: None,
            kind: JobKind::Evaluate { styles, config },
        }
    }

    /// Replaces the campaign style list (no-op for evaluation jobs).
    #[must_use]
    pub fn with_styles(mut self, new: Vec<ApplicationStyle>) -> Self {
        if let JobKind::Campaign { styles, .. } = &mut self.kind {
            *styles = new;
        }
        self
    }

    /// Replaces the campaign pair count (no-op for evaluation jobs).
    #[must_use]
    pub fn with_pairs(mut self, new: usize) -> Self {
        if let JobKind::Campaign { pairs, .. } = &mut self.kind {
            *pairs = new;
        }
        self
    }

    /// Replaces the campaign seed (no-op for evaluation jobs).
    #[must_use]
    pub fn with_seed(mut self, new: u64) -> Self {
        if let JobKind::Campaign { seed, .. } = &mut self.kind {
            *seed = new;
        }
        self
    }

    /// Sets the DFT transform applied before the job runs.
    #[must_use]
    pub fn with_dft(mut self, dft: Option<DftStyle>) -> Self {
        self.dft = dft;
        self
    }
}

/// The application styles in canonical (CLI table) order.
pub const ALL_APPLICATION_STYLES: [ApplicationStyle; 3] = [
    ApplicationStyle::ArbitraryTwoPattern,
    ApplicationStyle::Broadside,
    ApplicationStyle::SkewedLoad,
];

/// Parses a `--styles` list for campaign jobs: `all`, or a comma-separated
/// subset of `arbitrary` (aliases `atp`, `two-pattern`), `broadside`
/// (alias `bs`), `skewed` (aliases `skewed-load`, `sl`). Order is
/// preserved; duplicates are rejected.
///
/// # Errors
///
/// Names the unknown or repeated style.
pub fn parse_application_styles(list: &str) -> Result<Vec<ApplicationStyle>, String> {
    if list == "all" {
        return Ok(ALL_APPLICATION_STYLES.to_vec());
    }
    let mut styles = Vec::new();
    for part in list.split(',') {
        let style = match part.trim() {
            "arbitrary" | "atp" | "two-pattern" | "arbitrary-two-pattern" => {
                ApplicationStyle::ArbitraryTwoPattern
            }
            "broadside" | "bs" => ApplicationStyle::Broadside,
            "skewed" | "skewed-load" | "sl" => ApplicationStyle::SkewedLoad,
            other => return Err(format!("unknown application style {other:?}")),
        };
        if styles.contains(&style) {
            return Err(format!("application style {style} given twice"));
        }
        styles.push(style);
    }
    if styles.is_empty() {
        return Err("empty style list".into());
    }
    Ok(styles)
}

/// Parses a DFT style name as the `flh` CLI spells them (`plain`/`scan`,
/// `enhanced`/`es`, `mux`, `flh`).
pub fn parse_dft_style(name: &str) -> Option<DftStyle> {
    match name {
        "plain" | "scan" => Some(DftStyle::PlainScan),
        "enhanced" | "es" => Some(DftStyle::EnhancedScan),
        "mux" => Some(DftStyle::MuxHold),
        "flh" => Some(DftStyle::Flh),
        _ => None,
    }
}

/// One streamed result batch.
#[derive(Clone, Debug)]
pub enum BatchPayload {
    /// One application style's campaign result.
    Campaign(CampaignResult),
    /// One DFT style's overhead evaluation.
    Evaluation(StyleEvaluation),
}

/// Wall-clock throughput attached to a [`JobEvent::Progress`] event when
/// the engine opts into timings (`JobEngine::with_timings`). Off by
/// default: wall clock on the wire would break the byte-identical
/// transcript contract.
#[derive(Clone, Copy, Debug)]
pub struct ProgressTiming {
    /// Pattern pairs simulated per second in the batch just finished.
    pub pairs_per_s: f64,
    /// Estimated milliseconds to finish the job's remaining batches at
    /// that rate.
    pub eta_ms: u64,
}

/// Lifecycle events a job emits, in deterministic order: one `Started`,
/// one `Batch` per style in spec order (campaign batches each followed by
/// one `Progress`), then exactly one of `Done`, `Failed` or `Cancelled`.
#[derive(Clone, Debug)]
pub enum JobEvent {
    /// The circuit is compiled (or was already cached) and batches are
    /// about to stream.
    Started {
        /// The job.
        job: JobId,
        /// Resolved circuit name.
        circuit: String,
        /// How the compiled-circuit cache served the lookup.
        cache: CacheLookup,
    },
    /// One per-style result.
    Batch {
        /// The job.
        job: JobId,
        /// Batch index within the job, from 0, in spec style order.
        index: usize,
        /// The result.
        payload: BatchPayload,
    },
    /// Coverage progress through a campaign job, emitted after each
    /// `Batch` (campaign jobs only — evaluation batches carry no
    /// fault-coverage ledger). Deterministic fields only, unless the
    /// engine opts into timings.
    Progress {
        /// The job.
        job: JobId,
        /// Batches finished so far (1-based: the batch just streamed).
        done: usize,
        /// Total batches the job will run.
        batches: usize,
        /// Application style of the batch just finished.
        style: String,
        /// Faults detected in that batch.
        detected: usize,
        /// Total faults simulated in that batch.
        faults: usize,
        /// Coverage of that batch, percent.
        coverage_pct: f64,
        /// Pattern pairs applied so far across the job.
        pairs_done: usize,
        /// Pattern pairs planned across the whole job.
        pairs_total: usize,
        /// Wall-clock throughput/ETA, only with `with_timings(true)`.
        timing: Option<ProgressTiming>,
    },
    /// All batches delivered.
    Done {
        /// The job.
        job: JobId,
        /// Number of batches streamed.
        batches: usize,
        /// Per-job deterministic metrics (the flh-obs deterministic
        /// section of the job's `det_delta`), when the recorder is
        /// installed.
        metrics: Option<Json>,
    },
    /// The job could not run to completion.
    Failed {
        /// The job.
        job: JobId,
        /// What went wrong.
        reason: String,
    },
    /// The job was cancelled while still queued.
    Cancelled {
        /// The job.
        job: JobId,
    },
}

impl JobEvent {
    /// The job the event belongs to.
    pub fn job(&self) -> JobId {
        match self {
            JobEvent::Started { job, .. }
            | JobEvent::Batch { job, .. }
            | JobEvent::Progress { job, .. }
            | JobEvent::Done { job, .. }
            | JobEvent::Failed { job, .. }
            | JobEvent::Cancelled { job } => *job,
        }
    }

    /// True for the last event a job ever emits.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobEvent::Done { .. } | JobEvent::Failed { .. } | JobEvent::Cancelled { .. }
        )
    }
}

/// Summary of one completed job, returned by the engine alongside the
/// streamed events.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// The job.
    pub job: JobId,
    /// Every batch payload, in stream order.
    pub batches: Vec<BatchPayload>,
    /// How the compiled-circuit cache served the lookup.
    pub cache: CacheLookup,
    /// Per-job deterministic metrics, when recording.
    pub metrics: Option<Json>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_round_trip_their_display_form() {
        assert_eq!(JobId(7).to_string(), "job-7");
        assert_eq!(JobId::parse("job-7"), Some(JobId(7)));
        assert_eq!(JobId::parse("task-7"), None);
        assert_eq!(JobId::parse("job-x"), None);
    }

    #[test]
    fn style_lists_parse_in_order_without_duplicates() {
        assert_eq!(
            parse_application_styles("all").unwrap(),
            ALL_APPLICATION_STYLES.to_vec()
        );
        assert_eq!(
            parse_application_styles("skewed,atp").unwrap(),
            vec![
                ApplicationStyle::SkewedLoad,
                ApplicationStyle::ArbitraryTwoPattern
            ]
        );
        assert!(parse_application_styles("broadside,bs")
            .unwrap_err()
            .contains("twice"));
        assert!(parse_application_styles("sideways").is_err());
        assert!(parse_application_styles("").is_err());
    }
}
