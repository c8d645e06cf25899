//! The [`JobEngine`]: one compiled-circuit cache, one thread pool, one
//! `run` path every front end shares.
//!
//! An engine is cheap state — a [`ThreadPool`] (logical width; results are
//! bit-identical at every width) and a mutexed [`CircuitCache`]. Running a
//! job is synchronous on the caller's thread: the engine resolves the
//! circuit through the cache, streams [`JobEvent`]s into the caller's
//! sink in a deterministic order (`Started`, one `Batch` per style in
//! spec order, `Done`/`Failed`), and returns a [`JobOutcome`]. Queueing,
//! cancellation and cross-thread delivery live one layer up in
//! [`JobSession`](crate::session::JobSession).
//!
//! When the flh-obs recorder is installed, each run brackets itself with
//! snapshots and attaches `det_delta` of the two — the job's own
//! deterministic counters, unpolluted by neighbours — to its `Done` event,
//! and feeds the per-job cost histograms (`serve.job.*`) and the
//! per-style coverage time series (`serve.coverage.<style>`, logical
//! batch ticks) from the same delta. Campaign batches additionally stream
//! a `Progress` event; its wall-clock throughput/ETA fields exist only
//! when the engine opts in via [`JobEngine::with_timings`], keeping
//! default transcripts clock-free.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use flh_atpg::transition::enumerate_transition_faults;
use flh_atpg::{transition_campaign_filtered, StaticFilter, TestView};
use flh_core::{apply_style, baseline_row, evaluate_against, measure_baseline, DftStyle};
use flh_exec::ThreadPool;

use crate::cache::{CacheLookup, CacheStats, CircuitCache, CompiledEntry};
use crate::job::{BatchPayload, JobEvent, JobId, JobKind, JobOutcome, JobSpec, ProgressTiming};
use crate::source::CircuitSource;

/// Shared campaign/evaluation executor. See the module docs.
#[derive(Debug)]
pub struct JobEngine {
    pool: ThreadPool,
    cache: Mutex<CircuitCache>,
    /// Logical tick for coverage time series: one per campaign batch, in
    /// execution order — deterministic on a session's single executor.
    tick: AtomicU64,
    /// When true, campaign `Progress` events carry wall-clock throughput
    /// and ETA. Off by default — wall clock on the wire would break the
    /// byte-identical transcript contract.
    timings: bool,
    /// Circuit whose jobs panic ([`JobEngine::corrupt_panic_on`]).
    panic_on: Option<String>,
}

impl JobEngine {
    /// An engine over the given pool, caching up to `cache_capacity`
    /// compiled entries.
    pub fn new(pool: ThreadPool, cache_capacity: usize) -> Self {
        JobEngine {
            pool,
            cache: Mutex::new(CircuitCache::new(cache_capacity)),
            tick: AtomicU64::new(0),
            timings: false,
            panic_on: None,
        }
    }

    /// An engine on the environment-configured pool
    /// (`FLH_THREADS`) with the default cache capacity.
    pub fn from_env() -> Self {
        JobEngine::new(ThreadPool::from_env(), crate::cache::DEFAULT_CACHE_CAPACITY)
    }

    /// Opts campaign `Progress` events into wall-clock throughput/ETA
    /// fields (`flh serve --timings`).
    #[must_use]
    pub fn with_timings(mut self, on: bool) -> Self {
        self.timings = on;
        self
    }

    /// Corruption hook: every job on the circuit named `circuit` panics
    /// right after its `Started` event, inside a pool job — on a worker
    /// thread whenever the pool dispatches more than one. Like the
    /// `Netlist::corrupt_*` mutators, it breaks one thing on purpose: the
    /// session tests use it to check that a panicking job fails alone.
    /// Production code must never call it.
    #[must_use]
    pub fn corrupt_panic_on(mut self, circuit: &str) -> Self {
        self.panic_on = Some(circuit.to_string());
        self
    }

    /// Whether progress events carry wall-clock throughput.
    pub fn timings(&self) -> bool {
        self.timings
    }

    /// The engine's pool.
    pub fn pool(&self) -> &ThreadPool {
        &self.pool
    }

    /// Cache totals since the engine was created.
    pub fn cache_stats(&self) -> CacheStats {
        self.lock_cache().stats()
    }

    fn lock_cache(&self) -> std::sync::MutexGuard<'_, CircuitCache> {
        // A poisoned cache mutex only means another job panicked mid-
        // insert; the BTreeMaps are still structurally sound.
        self.cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolves a compiled circuit through the cache without running a
    /// job — for callers (bench ceilings, perf harnesses) that drive the
    /// simulator directly but want the shared keying and reuse.
    ///
    /// # Errors
    ///
    /// Load/style/compile failures, as a display string.
    pub fn compiled(
        &self,
        source: &CircuitSource,
        dft: Option<flh_core::DftStyle>,
    ) -> Result<(Arc<CompiledEntry>, CacheLookup), String> {
        self.lock_cache().get_or_compile(source, dft)
    }

    /// Runs one job synchronously, streaming events into `emit`.
    ///
    /// # Errors
    ///
    /// Returns the failure reason (also emitted as a `Failed` event).
    pub fn run(
        &self,
        job: JobId,
        spec: &JobSpec,
        emit: &mut dyn FnMut(JobEvent),
    ) -> Result<JobOutcome, String> {
        let _span = flh_obs::span("serve.job.exec");
        let before = flh_obs::enabled().then(flh_obs::snapshot);
        let fail = |reason: String, emit: &mut dyn FnMut(JobEvent)| {
            emit(JobEvent::Failed {
                job,
                reason: reason.clone(),
            });
            Err(reason)
        };

        let (entry, cache) = match self.compiled(&spec.source, spec.dft) {
            Ok(found) => found,
            Err(reason) => return fail(reason, emit),
        };
        emit(JobEvent::Started {
            job,
            circuit: spec.source.name().to_string(),
            cache,
        });
        if self.panic_on.as_deref() == Some(spec.source.name()) {
            self.pool.run(2, |i| {
                if i == 1 {
                    panic!("corrupt_panic_on: job-{} panicked in pool job {i}", job.0);
                }
            });
        }

        let mut batches = Vec::new();
        match &spec.kind {
            JobKind::Campaign {
                styles,
                pairs,
                seed,
            } => {
                let view = match TestView::with_program(
                    &entry.netlist,
                    Arc::clone(&entry.compiled),
                    Arc::clone(&entry.program),
                ) {
                    Ok(view) => view,
                    Err(e) => return fail(e.to_string(), emit),
                };
                let faults = enumerate_transition_faults(&entry.netlist);
                // One prune filter serves every style of the job.
                let filter = StaticFilter::from_view(&view);
                let pairs_total = styles.len() * *pairs;
                let mut pairs_done = 0usize;
                for (index, &style) in styles.iter().enumerate() {
                    // Lands in Progress fields that are absent by default;
                    // time-ok: sampled only when --timings opted in.
                    let batch_start = self.timings.then(std::time::Instant::now);
                    let result = transition_campaign_filtered(
                        &view,
                        &faults,
                        style,
                        *pairs,
                        *seed,
                        &self.pool,
                        Some(&filter),
                    );
                    pairs_done += *pairs;
                    if flh_obs::enabled() {
                        flh_obs::named_add("serve.campaign.pairs", *pairs as u64);
                        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
                        flh_obs::series_record(
                            &format!(
                                "serve.coverage.{}",
                                crate::proto::application_wire_name(style)
                            ),
                            tick,
                            (result.coverage_pct() * 100.0).round() as i64,
                        );
                    }
                    let timing = batch_start.map(|start| {
                        // time-ok: --timings only; see above.
                        let secs = start.elapsed().as_secs_f64().max(1e-9);
                        let pairs_per_s = *pairs as f64 / secs;
                        let remaining = (pairs_total - pairs_done) as f64;
                        ProgressTiming {
                            pairs_per_s,
                            eta_ms: (remaining / pairs_per_s * 1e3).round() as u64,
                        }
                    });
                    batches.push(BatchPayload::Campaign(result.clone()));
                    emit(JobEvent::Batch {
                        job,
                        index,
                        payload: BatchPayload::Campaign(result.clone()),
                    });
                    emit(JobEvent::Progress {
                        job,
                        done: index + 1,
                        batches: styles.len(),
                        style: result.style.to_string(),
                        detected: result.detected,
                        faults: result.total_faults,
                        coverage_pct: result.coverage_pct(),
                        pairs_done,
                        pairs_total,
                        timing,
                    });
                }
            }
            JobKind::Evaluate { styles, config } => {
                // The plain-scan baseline is measured once per job.
                let baseline = match measure_baseline(&entry.netlist, config) {
                    Ok(baseline) => baseline,
                    Err(e) => return fail(e.to_string(), emit),
                };
                for (index, &style) in styles.iter().enumerate() {
                    // The plain-scan row is the baseline itself.
                    let eval = apply_style(&entry.netlist, style).and_then(|styled| match style {
                        DftStyle::PlainScan => Ok(baseline_row(&baseline, &styled)),
                        _ => evaluate_against(&baseline, &styled, config),
                    });
                    let eval = match eval {
                        Ok(eval) => eval,
                        Err(e) => return fail(e.to_string(), emit),
                    };
                    batches.push(BatchPayload::Evaluation(eval.clone()));
                    emit(JobEvent::Batch {
                        job,
                        index,
                        payload: BatchPayload::Evaluation(eval),
                    });
                }
            }
        }

        let metrics = before.map(|before| {
            let delta = flh_obs::snapshot().det_delta(&before);
            let counter = |name: &str| {
                delta
                    .counters
                    .iter()
                    .find(|&&(n, _)| n == name)
                    .map_or(0, |&(_, v)| v)
            };
            // The per-job latency ledger in deterministic units: the
            // job's own simulator/replay work, from its counter delta.
            // Recorded after the delta is taken, so it lands between this
            // job's `after` and the next job's `before` snapshot and
            // cancels out of every per-job document while still reaching
            // the global `stats` histograms.
            flh_obs::record(
                flh_obs::Hist::ServeJobBytecodeInsts,
                counter("sim.bytecode_insts"),
            );
            flh_obs::record(
                flh_obs::Hist::ServeJobReplayEvents,
                counter("replay.events"),
            );
            flh_obs::deterministic_json(&delta)
        });
        emit(JobEvent::Done {
            job,
            batches: batches.len(),
            metrics: metrics.clone(),
        });
        Ok(JobOutcome {
            job,
            batches,
            cache,
            metrics,
        })
    }
}
