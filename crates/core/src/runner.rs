//! Campaign orchestration: the fault-injection phase end to end.
//!
//! [`CampaignRunner`] is the single campaign entry point — a builder over
//! the paper's Section 3.3 flow: read campaign data, make a reference
//! run, then execute every experiment, logging each to
//! `LoggedSystemState` and reporting progress to the Fig. 7 window
//! equivalent. Every campaign, fresh or resumed and at any worker count,
//! goes through the same three parts:
//!
//! * **Plan.** One builder decides every fault index once: already
//!   stored (resume), pruned, predicted, fanned out from its equivalence
//!   class's representative, or executed. It takes the reference run from
//!   the store when one is there and builds the checkpoint cache over the
//!   executed indices only. A fresh run is a resume with nothing stored;
//!   [`plan_campaign`], which `goofi-server` worker processes call, is the
//!   same builder with class execution off and no store.
//! * **Executor.** `workers(1)` (the default) produces every row on the
//!   calling thread. Otherwise a pool runs (experiment E8): its workers
//!   claim chunks of the executed indices off a shared cursor, pass a
//!   pause/stop gate, and a chunk a worker lost goes back to the queue.
//!   The pool has two worker kinds. With [`CampaignRunner::from_factory`]
//!   and `workers(n)`, each worker is a thread driving its own target.
//!   With [`CampaignRunner::processes`], each worker drives a child
//!   process that derives the same plan and executes the chunks it is
//!   shipped; `goofi-server` supplies the processes ([`WorkerProcesses`]),
//!   and a process that dies is replaced within a respawn budget.
//! * **Writer.** One writer logs rows to the store in fault-list order (a
//!   reorder buffer, so every worker count and kind writes a
//!   byte-identical database), emits progress events and applies the
//!   operator's pause/resume/stop commands. The in-thread executor calls
//!   it inline; the pool feeds it over a channel on a dedicated thread.
//!
//! When [`RunOptions::telemetry`] is enabled the runner installs a
//! [`goofi_telemetry::Recorder`] (thread-locally, on every campaign
//! thread), collects phase/building-block spans and per-worker scheduler
//! gauges, and persists the campaign rollup to the `CampaignTelemetry`
//! table. Telemetry never perturbs results: logged experiment rows are
//! byte-identical with telemetry on or off at any worker count.

use crate::algorithm::{reference_run, run_experiment, ExperimentRun};
use crate::analysis::CampaignStats;
use crate::campaign::{Campaign, LogMode, Technique};
use crate::checkpoint::{run_experiment_checkpointed, CheckpointPlan};
use crate::error::{GoofiError, Result};
use crate::fault::{generate_fault_list, PlannedFault, TriggerPolicy};
use crate::preinject::LivenessAnalysis;
use crate::progress::{Command, Controller, ProgressEvent};
use crate::staticanalysis::{ClassKind, Pruning, StaticAnalysis};
use crate::store::{reference_experiment_name, ExperimentData, ExperimentRecord, GoofiStore};
use crate::target::{TargetSystemConfig, TargetSystemInterface};
use goofi_telemetry::{names, CampaignTelemetry, Recorder, TelemetryMode, WorkerTelemetry};
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Tuning knobs for campaign execution that do not change results, only
/// how they are obtained.
///
/// The struct is `#[non_exhaustive]`: construct it with
/// [`RunOptions::new`] (or `Default`) and the chainable setters, so new
/// knobs are never breaking changes:
///
/// ```ignore
/// let opts = RunOptions::new().checkpoint(false).telemetry(TelemetryMode::Metrics);
/// ```
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Build an injection-time checkpoint cache (one pilot execution,
    /// snapshot at each distinct first activation time) and start
    /// experiments from the nearest preceding checkpoint instead of from
    /// reset. Byte-identical results either way; targets or campaigns the
    /// cache cannot serve (no snapshot support, detail mode, pre-runtime
    /// SWIFI) silently fall back to cold starts. Defaults to `true`.
    pub checkpoint: bool,
    /// How much telemetry to record. Defaults to [`TelemetryMode::Off`],
    /// which costs one thread-local read per instrumentation site.
    pub telemetry: TelemetryMode,
    /// How experiments are pruned before injection. Defaults to
    /// [`Pruning::Trace`], which honours the campaign's
    /// `pre_injection_analysis` flag with trace-based liveness.
    /// [`Pruning::Static`] prunes from the workload binary alone (no
    /// reference trace), falling back to no pruning on targets without a
    /// static analyzer. Pruned experiments synthesise the reference
    /// outcome either way, so logged rows are identical across modes for
    /// experiments that actually run.
    pub pruning: Pruning,
    /// Execute one representative experiment per fault equivalence class
    /// and synthesise the remaining class members' rows from it. Classes
    /// group faults that mutate the same bits with the same model at
    /// injection times within one first-touch window of the fault-free
    /// timeline, so member outcomes are provably identical to the
    /// representative's. Logged rows are byte-identical with the knob on
    /// or off. Requires a target with a static analyzer (silently falls
    /// back to executing everything otherwise). Defaults to `false`.
    pub class_execution: bool,
    /// Synthesise the rows of faults whose verdict the propagation
    /// analysis proved predictable (the corruption activates but washes
    /// out of the architectural state, so the outcome equals the
    /// reference) instead of executing them. Requires
    /// [`Pruning::Static`] on a target with a static analyzer (silently
    /// falls back to executing otherwise) and only applies to
    /// scan-chain/runtime-SWIFI campaigns in normal log mode — the same
    /// envelope as class execution. Logged rows are byte-identical with
    /// the knob on or off. Defaults to `false`.
    pub prediction: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            checkpoint: true,
            telemetry: TelemetryMode::Off,
            pruning: Pruning::Trace,
            class_execution: false,
            prediction: false,
        }
    }
}

impl RunOptions {
    /// The default options: checkpointing on, telemetry off, trace-based
    /// pruning.
    pub fn new() -> RunOptions {
        RunOptions::default()
    }

    /// Sets whether the injection-time checkpoint cache is built.
    pub fn checkpoint(mut self, on: bool) -> RunOptions {
        self.checkpoint = on;
        self
    }

    /// Sets the telemetry recording mode.
    pub fn telemetry(mut self, mode: TelemetryMode) -> RunOptions {
        self.telemetry = mode;
        self
    }

    /// Sets the pre-injection pruning mode.
    pub fn pruning(mut self, pruning: Pruning) -> RunOptions {
        self.pruning = pruning;
        self
    }

    /// Sets whether equivalence-class execution is enabled.
    pub fn class_execution(mut self, on: bool) -> RunOptions {
        self.class_execution = on;
        self
    }

    /// Sets whether statically-predicted verdicts are synthesised.
    pub fn prediction(mut self, on: bool) -> RunOptions {
        self.prediction = on;
        self
    }
}

/// Everything a finished campaign produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// The campaign that ran.
    pub campaign: Campaign,
    /// The fault-free reference run.
    pub reference: ExperimentRun,
    /// One run per experiment, in fault-list order (pruned experiments are
    /// synthesised from the reference and flagged).
    pub runs: Vec<ExperimentRun>,
    /// Classification statistics.
    pub stats: CampaignStats,
    /// The telemetry rollup, when [`RunOptions::telemetry`] was enabled
    /// (also persisted to the `CampaignTelemetry` table when a store was
    /// attached).
    pub telemetry: Option<CampaignTelemetry>,
    /// The static workload analysis, when the campaign ran with
    /// [`Pruning::Static`] on a target that supports it (also persisted
    /// to the `StaticAnalysisData` table when a store was attached).
    pub static_analysis: Option<StaticAnalysis>,
}

impl CampaignResult {
    /// Number of experiments pre-injection analysis skipped.
    pub fn pruned(&self) -> usize {
        self.runs.iter().filter(|r| r.pruned).count()
    }

    /// Number of experiments whose verdict the propagation analysis
    /// predicted statically (synthesised without execution).
    pub fn predicted(&self) -> usize {
        self.runs.iter().filter(|r| r.predicted).count()
    }
}

/// The recorder half of an enabled telemetry session: the runner installs
/// `dispatch` on every campaign thread and merges worker gauges into
/// `recorder` directly.
struct Telemetry {
    recorder: Arc<Recorder>,
    dispatch: tracing::Dispatch,
}

impl Telemetry {
    fn new(mode: TelemetryMode) -> Option<Telemetry> {
        if !mode.enabled() {
            return None;
        }
        let recorder = Arc::new(Recorder::new(mode));
        let dispatch = tracing::Dispatch::new(recorder.clone());
        Some(Telemetry { recorder, dispatch })
    }
}

/// A target factory shared by the worker pool.
type Factory<'a> = dyn Fn() -> Box<dyn TargetSystemInterface> + Sync + 'a;

/// Where experiment targets come from.
enum TargetSource<'a> {
    /// One caller-owned target: sequential execution only.
    Single(&'a mut dyn TargetSystemInterface),
    /// A factory producing one target per worker (plus the scratch target
    /// the plan is built on); required for `workers > 1`.
    Factory(Box<Factory<'a>>),
}

/// The out-of-process worker kind of the pool (`goofi-server` implements
/// it): each worker drives a child process that derives the plan itself
/// and executes the chunks of indices it is shipped. Claims, re-issue of
/// a lost chunk, the gate and the writer stay in the runner.
pub trait WorkerProcesses: Send + Sync {
    /// Worker processes per job.
    fn workers(&self) -> usize;
    /// Experiment indices shipped per chunk.
    fn chunk(&self) -> usize;
    /// Replacement processes a job may start; the next loss fails it.
    fn max_respawns(&self) -> usize;
    /// Starts one worker process for `campaign` under `options` and
    /// completes its handshake; `Ok(None)` when it died before it was
    /// ready.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Service`] when the process cannot be started,
    /// reports a failure, or derived a plan that disagrees with `plan`.
    fn spawn(
        &self,
        campaign: &Campaign,
        options: &RunOptions,
        plan: &CampaignPlan,
    ) -> Result<Option<Box<dyn WorkerProcess>>>;
}

/// One live worker process of a [`WorkerProcesses`] pool.
pub trait WorkerProcess: Send {
    /// The operating-system process id.
    fn pid(&self) -> u32;
    /// Executes experiments `indices` in the process and returns their
    /// records in the same order. `Ok(None)` when the process died
    /// meanwhile; the pool then re-issues the chunk.
    ///
    /// # Errors
    ///
    /// A failure the process reported, or rows that do not answer
    /// `indices`.
    fn run_chunk(&mut self, indices: &[usize]) -> Result<Option<Vec<ExperimentRecord>>>;
}

/// The single campaign entry point: a builder selecting target source,
/// worker count, options, observer, store and resume, then [`run`].
///
/// ```ignore
/// // Sequential, no store:
/// let result = CampaignRunner::new(&mut target, &campaign).run()?;
/// // Four workers, streamed persistence, progress events:
/// let result = CampaignRunner::from_factory(make_target, &campaign)
///     .workers(4)
///     .store(&mut store)
///     .observer(&controller)
///     .run()?;
/// // Finish an interrupted campaign:
/// let result = CampaignRunner::from_factory(make_target, &campaign)
///     .workers(4)
///     .resume_from(&mut store)
///     .run()?;
/// ```
///
/// [`run`]: CampaignRunner::run
pub struct CampaignRunner<'a> {
    source: TargetSource<'a>,
    campaign: &'a Campaign,
    workers: usize,
    options: RunOptions,
    controller: Option<&'a Controller>,
    store: Option<&'a mut GoofiStore>,
    resume: bool,
    processes: Option<&'a dyn WorkerProcesses>,
}

impl<'a> CampaignRunner<'a> {
    /// A runner over one caller-owned target. Sequential only: asking for
    /// more than one worker is an error (workers each need their own
    /// target; use [`CampaignRunner::from_factory`]).
    pub fn new(
        target: &'a mut dyn TargetSystemInterface,
        campaign: &'a Campaign,
    ) -> CampaignRunner<'a> {
        CampaignRunner {
            source: TargetSource::Single(target),
            campaign,
            workers: 1,
            options: RunOptions::default(),
            controller: None,
            store: None,
            resume: false,
            processes: None,
        }
    }

    /// A runner over a target factory: each worker (and the scratch
    /// target used for preparation and the checkpoint pilot) is created
    /// by `factory`. Works at any worker count.
    pub fn from_factory<F>(factory: F, campaign: &'a Campaign) -> CampaignRunner<'a>
    where
        F: Fn() -> Box<dyn TargetSystemInterface> + Sync + 'a,
    {
        CampaignRunner {
            source: TargetSource::Factory(Box::new(factory)),
            campaign,
            workers: 1,
            options: RunOptions::default(),
            controller: None,
            store: None,
            resume: false,
            processes: None,
        }
    }

    /// Sets the worker count (default 1 = sequential). Zero is rejected
    /// by [`run`](CampaignRunner::run).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Sets the execution options (checkpointing, telemetry, pruning,
    /// class execution, prediction).
    pub fn options(mut self, options: RunOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a Fig. 7 progress controller: progress events are emitted
    /// and pause/stop commands honoured at experiment boundaries. A
    /// stopped campaign returns the completed prefix, not an error.
    pub fn observer(mut self, controller: &'a Controller) -> Self {
        self.controller = Some(controller);
        self
    }

    /// Attaches a store: the reference run and every experiment are
    /// logged to `LoggedSystemState` (the campaign row must exist), and
    /// an enabled telemetry rollup is persisted to `CampaignTelemetry`.
    pub fn store(mut self, store: &'a mut GoofiStore) -> Self {
        self.store = Some(store);
        self
    }

    /// Attaches a store *and* resumes from it: experiments whose
    /// `LoggedSystemState` row already exists are reused (no progress
    /// events, no re-logging) and only the missing ones run. The result
    /// is the complete campaign, in fault-list order.
    pub fn resume_from(mut self, store: &'a mut GoofiStore) -> Self {
        self.store = Some(store);
        self.resume = true;
        self
    }

    /// Runs the executed experiments on worker processes instead of
    /// threads: the pool's size, chunk size and respawn budget come from
    /// `processes`, and [`workers`](CampaignRunner::workers) is ignored.
    /// This process only plans, settles the synthesised rows and writes,
    /// so its plan skips the checkpoint cache and class execution.
    pub fn processes(mut self, processes: &'a dyn WorkerProcesses) -> Self {
        self.processes = Some(processes);
        self
    }

    /// Runs the campaign: builds the plan, hands it to the in-thread
    /// executor (one worker) or the pool (more, or worker processes),
    /// then classifies the runs.
    ///
    /// # Errors
    ///
    /// Campaign validation errors, target errors, and database errors;
    /// [`GoofiError::Campaign`] for invalid configurations (zero workers,
    /// multiple workers without a factory). The first worker error aborts
    /// a parallel campaign.
    pub fn run(self) -> Result<CampaignResult> {
        let CampaignRunner {
            source,
            campaign,
            workers,
            options,
            controller,
            mut store,
            resume,
            processes,
        } = self;
        let workers = processes.map_or(workers, |p| p.workers());
        if workers == 0 {
            return Err(GoofiError::Campaign(
                "worker count must be at least 1".into(),
            ));
        }

        let telemetry = Telemetry::new(options.telemetry);
        // Thread-locally scoped: concurrent campaigns (e.g. under
        // `cargo test`) never observe each other's telemetry. Pool and
        // writer threads install their own guards.
        let _guard = telemetry
            .as_ref()
            .map(|t| tracing::set_default(&t.dispatch));
        let wall = Instant::now();

        // The plan is built on the campaign's own target; for a factory
        // that is a scratch target, which doubles as the checkpoint pilot.
        let factory;
        let mut scratch = None;
        let target: &mut dyn TargetSystemInterface = match source {
            TargetSource::Single(_) if workers > 1 && processes.is_none() => {
                return Err(needs_factory(workers))
            }
            TargetSource::Single(target) => {
                factory = None;
                target
            }
            TargetSource::Factory(f) => {
                let target = scratch.insert(f()).as_mut();
                factory = Some(f);
                target
            }
        };
        // Worker processes build their own plans, and only they execute.
        let plan_options = match processes {
            Some(_) => options.checkpoint(false).class_execution(false),
            None => options,
        };
        let (plan, slots) = build_plan(
            target,
            campaign,
            &plan_options,
            store.as_deref().filter(|_| resume),
        )?;
        let writer = Writer::start(store.as_deref_mut(), controller, campaign, &plan)?;
        let telemetry_ref = telemetry.as_ref();
        let kind = match (processes, factory.as_deref()) {
            (Some(processes), _) => Some(WorkerKind::Processes(processes, &options)),
            (None, Some(factory)) if workers > 1 => Some(WorkerKind::Threads(factory)),
            _ => None,
        };
        let (slots, stopped) = match kind {
            None => run_in_thread(target, campaign, &plan, slots, writer, telemetry_ref)?,
            Some(kind) => {
                // Every pool worker brings its own target.
                drop(scratch);
                run_pool(kind, campaign, workers, &plan, slots, writer, telemetry_ref)?
            }
        };
        let runs: Vec<ExperimentRun> = if stopped {
            // Completed subset, in fault-list order (gaps where the stop hit).
            slots.into_iter().flatten().collect()
        } else {
            slots
                .into_iter()
                .map(|s| s.ok_or_else(|| GoofiError::Protocol("missing experiment result".into())))
                .collect::<Result<_>>()?
        };

        let stats = {
            let _s = tracing::span(names::PHASE_CLASSIFICATION);
            CampaignStats::from_runs(&plan.reference, &runs)
        };
        let CampaignPlan {
            reference,
            static_analysis,
            ..
        } = plan;
        if let (Some(analysis), Some(store)) = (&static_analysis, store.as_deref_mut()) {
            store.put_static_analysis(&campaign.name, analysis)?;
        }
        let telemetry = match telemetry {
            Some(t) => {
                let rollup =
                    t.recorder
                        .finish(&campaign.name, workers, wall.elapsed().as_nanos() as u64);
                if let Some(store) = store {
                    store.put_telemetry(&rollup)?;
                }
                Some(rollup)
            }
            None => None,
        };
        Ok(CampaignResult {
            campaign: campaign.clone(),
            reference,
            runs,
            stats,
            telemetry,
            static_analysis,
        })
    }
}

fn needs_factory(workers: usize) -> GoofiError {
    GoofiError::Campaign(format!(
        "{workers} workers each need their own target; construct the runner with CampaignRunner::from_factory"
    ))
}

fn experiment_name(campaign: &str, index: usize) -> String {
    format!("{campaign}/{index:05}")
}

fn record_of(campaign: &Campaign, name: String, run: &ExperimentRun) -> ExperimentRecord {
    ExperimentRecord {
        name,
        parent: None,
        campaign: campaign.name.clone(),
        data: ExperimentData {
            fault: run.fault.clone(),
            termination: run.termination.clone(),
            outputs: run.outputs.clone(),
            iterations: run.iterations,
            instructions: run.instructions,
            detail_trace: run
                .detail_trace
                .as_ref()
                .map(|t| t.iter().map(|s| s.as_bytes().to_vec()).collect()),
        },
        state_vector: run.state.as_bytes().to_vec(),
    }
}

/// Builds the synthetic result of a pruned experiment: by the soundness of
/// the liveness analysis its outcome is exactly the reference outcome.
///
/// Built field by field rather than by cloning the reference so the
/// reference's `detail_trace` — potentially thousands of state vectors in
/// detail mode — is never copied into (and then dropped from) every pruned
/// row. Pruned rows carry no detail trace: the reference row already holds
/// the identical trace once.
fn pruned_run(reference: &ExperimentRun, fault: &PlannedFault) -> ExperimentRun {
    ExperimentRun {
        fault: Some(fault.clone()),
        termination: reference.termination.clone(),
        outputs: reference.outputs.clone(),
        state: reference.state.clone(),
        instructions: reference.instructions,
        iterations: reference.iterations,
        activations_done: 0,
        detail_trace: None,
        pruned: true,
        predicted: false,
    }
}

/// Builds the synthetic result of a statically *predicted* experiment:
/// the propagation analysis proved the fault activates but washes out of
/// the architectural state without touching control, addresses or
/// trap-prone operands, so the faulty execution re-converges with the
/// reference — same termination, outputs, state and instruction count.
/// Field-by-field for the same detail-trace reason as [`pruned_run`].
///
/// `activations_done` counts the activations at times within the
/// reference run (all of them — [`StaticAnalysis::can_predict`] proves
/// every activation window washes out, which requires each activation to
/// fire inside the covered execution).
fn predicted_run(reference: &ExperimentRun, fault: &PlannedFault) -> ExperimentRun {
    ExperimentRun {
        fault: Some(fault.clone()),
        termination: reference.termination.clone(),
        outputs: reference.outputs.clone(),
        state: reference.state.clone(),
        instructions: reference.instructions,
        iterations: reference.iterations,
        activations_done: fault.times.len(),
        detail_trace: None,
        pruned: false,
        predicted: true,
    }
}

/// Builds the synthetic result of an equivalence-class member from its
/// representative's executed run. Soundness: both faults mutate the same
/// bits with the same model, and every target location is untouched by
/// the fault-free execution between the two injection times (they share
/// the location's first-touch window), so the post-injection trajectories
/// — and therefore every logged observable — coincide exactly.
///
/// `activations_done` is copied from the representative so the member row
/// round-trips through the store identically to a directly-executed one.
fn fanned_run(representative: &ExperimentRun, fault: &PlannedFault) -> ExperimentRun {
    tracing::value(names::COUNTER_FANNED, 1);
    ExperimentRun {
        fault: Some(fault.clone()),
        termination: representative.termination.clone(),
        outputs: representative.outputs.clone(),
        state: representative.state.clone(),
        instructions: representative.instructions,
        iterations: representative.iterations,
        activations_done: representative.activations_done,
        detail_trace: None,
        pruned: false,
        predicted: false,
    }
}

/// How the campaign's prunability decisions are made, resolved once in
/// [`prepare`] from [`RunOptions::pruning`] and the campaign flags.
enum PruneInfo {
    /// No pruning (mode off, campaign opted out, or static analysis
    /// unsupported by the target).
    None,
    /// Trace-based liveness over the reference detail trace.
    Trace(LivenessAnalysis),
    /// Static analysis of the workload binary — no reference trace.
    Static(StaticAnalysis),
}

impl PruneInfo {
    fn can_prune(&self, config: &TargetSystemConfig, fault: &PlannedFault) -> bool {
        match self {
            PruneInfo::None => false,
            PruneInfo::Trace(liveness) => liveness.can_prune(config, fault),
            PruneInfo::Static(analysis) => analysis.can_prune(config, fault),
        }
    }

    /// Consumes the info, surfacing the static analysis for the campaign
    /// result (and persistence).
    fn into_static(self) -> Option<StaticAnalysis> {
        match self {
            PruneInfo::Static(analysis) => Some(analysis),
            _ => None,
        }
    }
}

/// Whether the campaign's technique and log mode lie inside the envelope
/// that prediction and class execution are proved for: faults corrupt
/// targets at their activation times and the outcome is observed through
/// terminal state only.
fn synthesis_envelope(campaign: &Campaign) -> bool {
    matches!(
        campaign.technique,
        Technique::Scifi | Technique::SwifiRuntime
    ) && campaign.log_mode == LogMode::Normal
}

/// Which experiments are synthesised from the reference because the
/// propagation analysis proved their fault washes out. Requires the knob,
/// static pruning info and [`synthesis_envelope`]. Prunable faults stay
/// prunable — prediction covers strictly live-but-washed faults.
fn compute_predicted(
    faults: &[PlannedFault],
    prunable: &[bool],
    prune: &PruneInfo,
    campaign: &Campaign,
    config: &TargetSystemConfig,
    options: &RunOptions,
) -> Vec<bool> {
    let PruneInfo::Static(analysis) = prune else {
        return vec![false; faults.len()];
    };
    if !options.prediction || !synthesis_envelope(campaign) {
        return vec![false; faults.len()];
    }
    faults
        .iter()
        .enumerate()
        .map(|(i, f)| !prunable[i] && analysis.can_predict(config, f))
        .collect()
}

/// Groups the fault list into live execution classes (recorded on
/// `analysis` for persistence) and returns, for every fault, the
/// representative whose run it is synthesised from (`None` for faults
/// that execute or are synthesised otherwise). The representative is
/// always the lowest member index, so `proxy[i] < i`.
///
/// Eligibility is conservative: the identical-trajectory proof covers
/// faults inside [`synthesis_envelope`] whose pre-final activations (if
/// any) provably wash out ([`StaticAnalysis::prefix_washed`], checked
/// inside [`StaticAnalysis::compute_execution_classes`]). Pruned and
/// predicted faults (`skip`) synthesise the reference, so neither
/// executes nor anchors a class.
fn execution_classes(
    analysis: &mut StaticAnalysis,
    campaign: &Campaign,
    config: &TargetSystemConfig,
    faults: &[PlannedFault],
    skip: &[bool],
) -> Vec<Option<usize>> {
    let envelope = synthesis_envelope(campaign);
    let eligible: Vec<bool> = skip.iter().map(|&s| envelope && !s).collect();
    analysis.compute_execution_classes(config, faults, &eligible);
    let mut proxy = vec![None; faults.len()];
    for class in analysis
        .classes
        .iter()
        .filter(|c| c.kind == ClassKind::Live)
    {
        for &m in class.members.iter().filter(|&&m| m != class.representative) {
            proxy[m] = Some(class.representative);
        }
    }
    proxy
}

/// Prepares the shared campaign inputs: reference trace (when needed),
/// fault list, the pruning decision source, and — when
/// [`RunOptions::class_execution`] is on and the target has a static
/// analyzer — the analysis that will carry the execution classes.
fn prepare(
    target: &mut dyn TargetSystemInterface,
    campaign: &Campaign,
    options: &RunOptions,
) -> Result<(Vec<PlannedFault>, PruneInfo, Option<StaticAnalysis>)> {
    let _s = tracing::span(names::PHASE_PREPARE);
    campaign.validate()?;
    let config = target.describe();
    let trace_pruning = campaign.pre_injection_analysis && options.pruning == Pruning::Trace;
    // The reference trace is only collected when something needs it:
    // trace-based pruning, or trigger placement. Static pruning
    // deliberately does without it.
    let needs_trace = trace_pruning || matches!(campaign.trigger, TriggerPolicy::Triggers(_));
    let trace = if needs_trace {
        target.init_test_card()?;
        target.load_workload()?;
        Some(target.collect_trace()?)
    } else {
        None
    };
    let faults = generate_fault_list(
        &config,
        &campaign.selectors,
        campaign.fault_model,
        &campaign.trigger,
        campaign.experiments,
        campaign.seed,
        trace.as_deref(),
    )?;
    let horizon = faults
        .iter()
        .flat_map(|f| f.times.iter().copied())
        .max()
        .unwrap_or(0);
    // Same fallback idiom as the checkpoint cache: a target without a
    // static analyzer runs the campaign unpruned and unclassed.
    let static_analysis =
        |target: &mut dyn TargetSystemInterface| match target.static_analysis(horizon) {
            Ok(analysis) => Ok(Some(analysis)),
            Err(GoofiError::Unsupported { .. }) => Ok(None),
            Err(e) => Err(e),
        };
    let prune = match options.pruning {
        Pruning::Off => PruneInfo::None,
        Pruning::Trace if trace_pruning => PruneInfo::Trace(LivenessAnalysis::from_trace(
            trace.as_deref().expect("trace collected above"),
        )),
        Pruning::Trace => PruneInfo::None,
        Pruning::Static => match static_analysis(target)? {
            Some(mut analysis) => {
                analysis.compute_classes(&config, &faults);
                PruneInfo::Static(analysis)
            }
            None => PruneInfo::None,
        },
    };
    let class_analysis = match &prune {
        _ if !options.class_execution => None,
        // Static pruning already computed the analysis; classes are
        // grouped on a copy so the persisted row carries both the dead
        // classes and the live execution classes.
        PruneInfo::Static(analysis) => Some(analysis.clone()),
        _ => static_analysis(target)?,
    };
    Ok((faults, prune, class_analysis))
}

/// What a campaign does with one fault index, decided once by
/// [`build_plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The store already holds the row (resume): reused, not re-logged.
    Stored,
    /// Pre-injection analysis proved the fault dead: the reference
    /// outcome, flagged as pruned.
    Pruned,
    /// The propagation analysis proved the fault washes out: the
    /// reference outcome, flagged as predicted.
    Predicted,
    /// An equivalence-class member: synthesised from the run of its
    /// representative, which always has a lower index.
    Fanned(usize),
    /// Executed on a target.
    Execute,
}

/// A deterministic execution plan for one campaign on one target: the
/// generated fault list, what happens to each index, the fault-free
/// reference run and (when enabled) the injection-time checkpoint cache.
///
/// Every campaign runs from a plan. `goofi-server` worker processes call
/// [`plan_campaign`] against the same campaign and derive the *same* plan
/// (fault-list generation is seeded), then execute whatever chunk of
/// experiment indices the server hands them. Rows produced through a plan
/// are byte-identical to the sequential runner's — pruned and predicted
/// experiments synthesise the reference outcome, live ones execute
/// (checkpointed when the plan carries a cache).
///
/// A plan from [`plan_campaign`] never fans out: fanned rows are
/// byte-identical to directly-executed ones, so distributed workers
/// always execute directly and class execution stays a single-process
/// optimisation.
pub struct CampaignPlan {
    /// The generated fault list, in campaign order.
    pub faults: Vec<PlannedFault>,
    /// `prunable[i]` — pre-injection analysis proved experiment `i`
    /// cannot differ from the reference.
    pub prunable: Vec<bool>,
    /// `predicted[i]` — the propagation analysis proved experiment `i`'s
    /// fault washes out, so its row is synthesised from the reference
    /// (only under [`RunOptions::prediction`] with static pruning).
    pub predicted: Vec<bool>,
    /// The fault-free reference run.
    pub reference: ExperimentRun,
    /// The static analysis to persist, when the plan pruned statically or
    /// grouped execution classes.
    pub static_analysis: Option<StaticAnalysis>,
    steps: Vec<Step>,
    /// The reference row came from the store (resume) and is not logged
    /// again.
    reference_stored: bool,
    checkpoints: Option<CheckpointPlan>,
}

/// Builds the shared campaign plan on `target`. Identical inputs
/// (campaign, options) produce identical plans on every call — the
/// foundation of multi-process execution and its byte-identical-DB
/// guarantee. `options.class_execution` is ignored (see
/// [`CampaignPlan`]).
///
/// # Errors
///
/// Campaign validation and target errors, exactly as
/// [`CampaignRunner::run`].
pub fn plan_campaign(
    target: &mut dyn TargetSystemInterface,
    campaign: &Campaign,
    options: &RunOptions,
) -> Result<CampaignPlan> {
    build_plan(target, campaign, &options.class_execution(false), None).map(|(plan, _)| plan)
}

/// The one plan builder behind every run, resume and [`plan_campaign`]
/// call: prepares the fault list, decides each index's [`Step`], takes
/// the reference from `resume_from` when it holds one (runs it
/// otherwise) and builds the checkpoint cache over the executed indices
/// only. Also returns the rows `resume_from` already holds, by index.
fn build_plan(
    target: &mut dyn TargetSystemInterface,
    campaign: &Campaign,
    options: &RunOptions,
    resume_from: Option<&GoofiStore>,
) -> Result<(CampaignPlan, Vec<Option<ExperimentRun>>)> {
    let (faults, prune, class_analysis) = prepare(target, campaign, options)?;
    let config = target.describe();
    let prunable: Vec<bool> = faults.iter().map(|f| prune.can_prune(&config, f)).collect();
    let predicted = compute_predicted(&faults, &prunable, &prune, campaign, &config, options);
    let (proxy, static_analysis) = match class_analysis {
        Some(mut analysis) => {
            let skip: Vec<bool> = prunable
                .iter()
                .zip(&predicted)
                .map(|(&a, &b)| a || b)
                .collect();
            let proxy = execution_classes(&mut analysis, campaign, &config, &faults, &skip);
            (proxy, Some(analysis))
        }
        None => (vec![None; faults.len()], prune.into_static()),
    };

    // Names are only built when there is a store to look them up in.
    let stored =
        |name: &dyn Fn() -> String| resume_from.and_then(|s| s.get_experiment(&name()).ok());
    let stored_reference = stored(&|| reference_experiment_name(&campaign.name));
    let reference_stored = stored_reference.is_some();
    let reference = match stored_reference {
        Some(record) => record.to_run(),
        None => {
            let _s = tracing::span(names::PHASE_REFERENCE);
            reference_run(target, campaign)?
        }
    };
    let slots: Vec<Option<ExperimentRun>> = (0..faults.len())
        .map(|i| stored(&|| experiment_name(&campaign.name, i)).map(|record| record.to_run()))
        .collect();
    let steps: Vec<Step> = (0..faults.len())
        .map(|i| match proxy[i] {
            _ if slots[i].is_some() => Step::Stored,
            _ if prunable[i] => Step::Pruned,
            _ if predicted[i] => Step::Predicted,
            Some(rep) => Step::Fanned(rep),
            None => Step::Execute,
        })
        .collect();

    let checkpoints = if options.checkpoint {
        let unexecuted: Vec<bool> = steps.iter().map(|&s| s != Step::Execute).collect();
        CheckpointPlan::build(target, campaign, &faults, &unexecuted)
    } else {
        None
    };
    let plan = CampaignPlan {
        faults,
        prunable,
        predicted,
        reference,
        static_analysis,
        steps,
        reference_stored,
        checkpoints,
    };
    Ok((plan, slots))
}

impl CampaignPlan {
    /// Number of experiments in the campaign.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the fault list is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Executes experiment `index` (or synthesises it when prunable or
    /// predicted) and returns its run. Byte-identical to what the
    /// sequential runner would log for the same index.
    ///
    /// # Errors
    ///
    /// Target errors from the experiment; out-of-range indices are a
    /// [`GoofiError::Campaign`] error.
    pub fn execute(
        &self,
        target: &mut dyn TargetSystemInterface,
        campaign: &Campaign,
        index: usize,
    ) -> Result<ExperimentRun> {
        let fault = self.faults.get(index).ok_or_else(|| {
            GoofiError::Campaign(format!(
                "experiment index {index} out of range (fault list has {})",
                self.faults.len()
            ))
        })?;
        // A plan from `plan_campaign` never fans out: no slots needed.
        if let Some(run) = self.synthesise(index, &[]) {
            return Ok(run);
        }
        let _s = tracing::span(names::PHASE_EXPERIMENT);
        if let Some(plan) = &self.checkpoints {
            run_experiment_checkpointed(target, campaign, fault, plan)
        } else {
            run_experiment(target, campaign, fault)
        }
    }

    /// The loggable record of experiment `index` from its `run`, named
    /// exactly as the runner names it (`{campaign}/{index:05}`).
    pub fn record(
        &self,
        campaign: &Campaign,
        index: usize,
        run: &ExperimentRun,
    ) -> ExperimentRecord {
        record_of(campaign, experiment_name(&campaign.name, index), run)
    }

    /// The loggable record of the fault-free reference run.
    pub fn reference_record(&self, campaign: &Campaign) -> ExperimentRecord {
        record_of(
            campaign,
            reference_experiment_name(&campaign.name),
            &self.reference,
        )
    }

    /// The row of unsettled index `index` when it needs no target: a
    /// pruned or predicted row copies the reference, a fanned member its
    /// representative's run in `slots`. `None` for an executed index.
    fn synthesise(&self, index: usize, slots: &[Option<ExperimentRun>]) -> Option<ExperimentRun> {
        let fault = &self.faults[index];
        match self.steps[index] {
            Step::Fanned(rep) => {
                let rep_run = slots[rep]
                    .as_ref()
                    .expect("a representative settles before its members");
                Some(fanned_run(rep_run, fault))
            }
            _ if self.prunable[index] => {
                tracing::value(names::COUNTER_PRUNED, 1);
                Some(pruned_run(&self.reference, fault))
            }
            _ if self.predicted[index] => {
                tracing::value(names::COUNTER_PREDICTED, 1);
                Some(predicted_run(&self.reference, fault))
            }
            _ => None,
        }
    }

    /// An executor's row for unsettled index `index`: synthesised when it
    /// can be, executed otherwise. Executed experiments count into
    /// `gauges` (busy time only when `timed`).
    fn produce(
        &self,
        target: &mut dyn TargetSystemInterface,
        campaign: &Campaign,
        index: usize,
        slots: &[Option<ExperimentRun>],
        gauges: &mut WorkerTelemetry,
        timed: bool,
    ) -> Result<ExperimentRun> {
        if let Some(run) = self.synthesise(index, slots) {
            return Ok(run);
        }
        let busy_t0 = timed.then(Instant::now);
        let run = self.execute(target, campaign, index)?;
        if let Some(t0) = busy_t0 {
            gauges.busy_nanos += t0.elapsed().as_nanos() as u64;
        }
        gauges.claimed += 1;
        Ok(run)
    }
}

/// The experiment-row name the runner logs for index `index` of
/// `campaign` — public so services can test row existence when resuming.
pub fn logged_experiment_name(campaign: &str, index: usize) -> String {
    experiment_name(campaign, index)
}

// ----------------------------------------------------------------------
// The writer
// ----------------------------------------------------------------------

/// The first index at or after `from` whose row will arrive (stored rows
/// never do).
fn next_awaited(steps: &[Step], from: usize) -> usize {
    (from..steps.len())
        .find(|&i| steps[i] != Step::Stored)
        .unwrap_or(steps.len())
}

/// The single consumer of settled rows, shared by both executors: logs
/// them to the store in fault-list order, emits progress events and
/// applies operator commands. Stop is terminal.
struct Writer<'a> {
    store: Option<&'a mut GoofiStore>,
    controller: Option<&'a Controller>,
    steps: &'a [Step],
    /// Reorder buffer: rows that settled ahead of `next`.
    pending: BTreeMap<usize, ExperimentRecord>,
    /// The next index to log.
    next: usize,
    /// Rows settled so far, stored ones included.
    completed: usize,
    paused: bool,
    stopped: bool,
}

impl<'a> Writer<'a> {
    /// Announces the campaign and logs the reference row, unless the
    /// store already holds it.
    fn start(
        mut store: Option<&'a mut GoofiStore>,
        controller: Option<&'a Controller>,
        campaign: &Campaign,
        plan: &'a CampaignPlan,
    ) -> Result<Writer<'a>> {
        if let Some(ctl) = controller {
            ctl.emit(ProgressEvent::Started {
                campaign: campaign.name.clone(),
                total: plan.len(),
            });
        }
        if let (Some(store), false) = (store.as_deref_mut(), plan.reference_stored) {
            store.log_experiment(&plan.reference_record(campaign))?;
        }
        Ok(Writer {
            store,
            controller,
            steps: &plan.steps,
            pending: BTreeMap::new(),
            next: next_awaited(&plan.steps, 0),
            completed: plan.steps.iter().filter(|&&s| s == Step::Stored).count(),
            paused: false,
            stopped: false,
        })
    }

    /// Whether settled rows are logged, so executors know to build their
    /// records.
    fn logging(&self) -> bool {
        self.store.is_some()
    }

    fn emit(&self, event: ProgressEvent) {
        if let Some(ctl) = self.controller {
            ctl.emit(event);
        }
    }

    /// Applies one operator command, acknowledging pause and resume.
    fn apply(&mut self, cmd: Command) {
        match cmd {
            Command::Pause if !self.paused => {
                self.paused = true;
                self.emit(ProgressEvent::Paused);
            }
            Command::Resume if self.paused => {
                self.paused = false;
                self.emit(ProgressEvent::Resumed);
            }
            Command::Stop => self.stopped = true,
            _ => {}
        }
    }

    /// Applies every command already queued, without blocking.
    fn drain_commands(&mut self) {
        if let Some(ctl) = self.controller {
            while let Ok(cmd) = ctl.command_receiver().try_recv() {
                self.apply(cmd);
            }
        }
    }

    /// The experiment-boundary check of the in-thread executor: the
    /// controller's checkpoint, which blocks while paused. `false` once
    /// stopped.
    fn admit(&mut self) -> bool {
        match self.controller.map(Controller::checkpoint) {
            Some(Err(_)) => {
                self.stopped = true;
                false
            }
            _ => true,
        }
    }

    fn gate_state(&self) -> GateState {
        if self.stopped {
            GateState::Stopped
        } else if self.paused {
            GateState::Paused
        } else {
            GateState::Running
        }
    }

    /// Settles row `index`: logs its record (present when a store is
    /// attached) in fault-list order and emits its progress event.
    fn accept(
        &mut self,
        index: usize,
        pruned: bool,
        record: Option<ExperimentRecord>,
    ) -> Result<()> {
        if let (Some(store), Some(record)) = (self.store.as_deref_mut(), record) {
            if index == self.next {
                store.log_experiment(&record)?;
                self.next = next_awaited(self.steps, index + 1);
            } else {
                self.pending.insert(index, record);
            }
            while let Some(record) = self.pending.remove(&self.next) {
                store.log_experiment(&record)?;
                self.next = next_awaited(self.steps, self.next + 1);
            }
        }
        self.completed += 1;
        self.emit(ProgressEvent::ExperimentDone {
            completed: self.completed,
            total: self.steps.len(),
            pruned,
        });
        Ok(())
    }

    /// The pool's writer thread: settles rows as workers send them and
    /// turns operator commands into gate states, until every worker has
    /// hung up.
    fn serve(&mut self, rows: crossbeam::channel::Receiver<SettledRow>, gate: &Gate) -> Result<()> {
        let never = crossbeam::channel::never::<Command>();
        let mut commands = self
            .controller
            .map_or_else(|| never.clone(), |c| c.command_receiver().clone());
        loop {
            crossbeam::channel::select! {
                recv(rows) -> row => match row {
                    Ok(row) => self.accept(row.index, row.pruned, row.record)?,
                    Err(_) => return Ok(()),
                },
                recv(commands) -> cmd => {
                    match cmd {
                        Ok(cmd) => self.apply(cmd),
                        // The operator's handle vanished: stop polling it
                        // and never stay paused for it.
                        Err(_) => {
                            self.paused = false;
                            commands = never.clone();
                        }
                    }
                    gate.set(self.gate_state());
                }
            }
        }
    }

    /// Logs the rows that settled beyond a stop's gap (resume skips
    /// exactly the missing rows), announces the end and reports whether
    /// the campaign was stopped.
    fn finish(self) -> Result<bool> {
        if let Some(store) = self.store {
            for record in self.pending.into_values() {
                store.log_experiment(&record)?;
            }
        }
        if let Some(ctl) = self.controller {
            ctl.emit(ProgressEvent::Finished {
                completed: self.completed,
                stopped: self.stopped,
            });
        }
        Ok(self.stopped)
    }
}

// ----------------------------------------------------------------------
// The executors
// ----------------------------------------------------------------------

/// Settled rows by index, stored ones pre-filled; returned with whether
/// the campaign was stopped.
type Settled = (Vec<Option<ExperimentRun>>, bool);

/// The `workers == 1` executor: produces every unsettled row in index
/// order on the calling thread and hands it straight to the writer.
fn run_in_thread(
    target: &mut dyn TargetSystemInterface,
    campaign: &Campaign,
    plan: &CampaignPlan,
    mut slots: Vec<Option<ExperimentRun>>,
    mut writer: Writer<'_>,
    telemetry: Option<&Telemetry>,
) -> Result<Settled> {
    let mut gauges = WorkerTelemetry::default();
    let logging = writer.logging();
    for (i, &step) in plan.steps.iter().enumerate() {
        if step == Step::Stored {
            continue;
        }
        if !writer.admit() {
            break;
        }
        let run = plan.produce(
            target,
            campaign,
            i,
            &slots,
            &mut gauges,
            telemetry.is_some(),
        )?;
        let record = logging.then(|| plan.record(campaign, i, &run));
        writer.accept(i, step == Step::Pruned, record)?;
        slots[i] = Some(run);
    }
    if let Some(t) = telemetry {
        t.recorder.record_worker(gauges);
    }
    Ok((slots, writer.finish()?))
}

/// Worker pause-stop gate of the pool: workers ask for admission before
/// every experiment; the writer thread sets the state from operator
/// commands, and any error stops it. Stop is terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GateState {
    Running,
    Paused,
    Stopped,
}

#[derive(Debug)]
struct Gate {
    state: parking_lot::Mutex<GateState>,
    cv: parking_lot::Condvar,
}

impl Gate {
    fn new(state: GateState) -> Gate {
        Gate {
            state: parking_lot::Mutex::new(state),
            cv: parking_lot::Condvar::new(),
        }
    }

    /// Blocks while paused; `false` once the campaign is stopped.
    fn admit(&self) -> bool {
        let mut state = self.state.lock();
        loop {
            match *state {
                GateState::Running => return true,
                GateState::Stopped => return false,
                GateState::Paused => {
                    self.cv.wait(&mut state);
                }
            }
        }
    }

    fn stopped(&self) -> bool {
        *self.state.lock() == GateState::Stopped
    }

    fn set(&self, new: GateState) {
        let mut state = self.state.lock();
        if *state != GateState::Stopped {
            *state = new;
        }
        self.cv.notify_all();
    }
}

/// One settled row travelling from a pool worker to the writer thread.
struct SettledRow {
    index: usize,
    pruned: bool,
    /// Present only when a store is attached (built by the worker, so
    /// record serialisation cost is spread across threads too).
    record: Option<ExperimentRecord>,
}

impl SettledRow {
    fn new(
        plan: &CampaignPlan,
        campaign: &Campaign,
        logging: bool,
        index: usize,
        run: &ExperimentRun,
    ) -> SettledRow {
        SettledRow {
            index,
            pruned: plan.steps[index] == Step::Pruned,
            record: logging.then(|| plan.record(campaign, index, run)),
        }
    }
}

/// The kind of worker a pool runs.
#[derive(Clone, Copy)]
enum WorkerKind<'a> {
    /// A thread driving its own target from the factory.
    Threads(&'a Factory<'a>),
    /// A thread driving a worker process, which plans under the options.
    Processes(&'a dyn WorkerProcesses, &'a RunOptions),
}

/// The pool executor: workers of one [`WorkerKind`] execute, the calling
/// thread synthesises and a writer thread logs.
///
/// * Workers claim chunks of the executed indices off a shared atomic
///   cursor (chunked claims amortise contention), so a slow experiment
///   never stalls work a fixed partition would have pinned behind it. A
///   chunk whose worker process died is claimed again before any new
///   one. Each worker buffers its runs locally; buffers merge after the
///   join.
/// * The calling thread settles the synthesised rows (pruned, predicted,
///   fanned from a stored representative) meanwhile, until a stop.
/// * A class member whose representative executes here is fanned out by
///   the worker that executes the representative, right after the
///   representative's own row: FIFO channel order then guarantees a
///   member row reaches the store only after its representative's, which
///   keeps stop/resume sound. (Plans run on processes have no classes.)
/// * The writer runs on its own thread. The first worker or writer
///   error stops the gate, which ends the pool.
/// * With telemetry enabled, every worker (and the writer) installs the
///   recorder dispatch and reports scheduler gauges: experiments
///   executed, chunk claims beyond the first ("steals" relative to a
///   one-shot partition), busy and idle time.
fn run_pool(
    kind: WorkerKind<'_>,
    campaign: &Campaign,
    workers: usize,
    plan: &CampaignPlan,
    mut slots: Vec<Option<ExperimentRun>>,
    mut writer: Writer<'_>,
    telemetry: Option<&Telemetry>,
) -> Result<Settled> {
    let mut fanout: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    let (mut worklist, mut synthesised) = (Vec::new(), Vec::new());
    for (i, &step) in plan.steps.iter().enumerate() {
        match step {
            Step::Stored => {}
            Step::Execute => worklist.push(i),
            Step::Fanned(rep) if plan.steps[rep] == Step::Execute => {
                fanout.entry(rep).or_default().push(i)
            }
            _ => synthesised.push(i),
        }
    }
    let chunk = match kind {
        // Large enough to amortise cursor contention, small enough that a
        // slow experiment cannot strand a long tail behind one worker.
        WorkerKind::Threads(_) => (worklist.len() / (workers * 4)).clamp(1, 32),
        WorkerKind::Processes(processes, _) => processes.chunk().max(1),
    };

    // Commands queued before the start take effect before the first
    // claim, so a pre-sent Stop or Pause is deterministic.
    writer.drain_commands();
    let pool = Pool {
        campaign,
        plan,
        worklist: &worklist,
        fanout: &fanout,
        chunk,
        cursor: AtomicUsize::new(0),
        returned: parking_lot::Mutex::new(Vec::new()),
        gate: Gate::new(writer.gate_state()),
        controller: writer.controller,
        logging: writer.logging(),
        timed: telemetry.is_some(),
        respawns: AtomicUsize::new(0),
    };
    let (tx, rx) = crossbeam::channel::unbounded::<SettledRow>();

    let (produced, writer, written) = std::thread::scope(|scope| {
        let pool = &pool;
        let writer_thread = scope.spawn(move || {
            // Store logging happens here, so journal/store spans are only
            // visible if this thread carries the dispatch too.
            let _tguard = telemetry.map(|t| tracing::set_default(&t.dispatch));
            let written = writer.serve(rx, &pool.gate);
            if written.is_err() {
                pool.gate.set(GateState::Stopped);
            }
            (writer, written)
        });

        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let tx = tx.clone();
            handles.push(scope.spawn(move || -> Result<Vec<(usize, ExperimentRun)>> {
                let _tguard = telemetry.map(|t| tracing::set_default(&t.dispatch));
                let mut worker = PoolWorker {
                    gauges: WorkerTelemetry {
                        worker: w,
                        ..WorkerTelemetry::default()
                    },
                    chunks: 0,
                    local: Vec::new(),
                    tx,
                };
                let done = match kind {
                    WorkerKind::Threads(factory) => pool.run_thread(factory, &mut worker),
                    WorkerKind::Processes(processes, options) => {
                        pool.run_process(processes, options, w, &mut worker)
                    }
                };
                if let Some(t) = telemetry {
                    worker.gauges.steals = worker.chunks.saturating_sub(1);
                    t.recorder.record_worker(worker.gauges);
                }
                done.inspect_err(|_| pool.gate.set(GateState::Stopped))?;
                Ok(worker.local)
            }));
        }
        // Synthesised rows copy the reference or a stored representative
        // instead of executing, so this thread settles them while the
        // workers execute.
        for &i in &synthesised {
            if pool.gate.stopped() {
                break;
            }
            let run = plan
                .synthesise(i, &slots)
                .expect("only synthesised steps are listed");
            let _ = tx.send(SettledRow::new(plan, campaign, pool.logging, i, &run));
            slots[i] = Some(run);
        }
        drop(tx); // the writer returns once every producer has hung up

        let mut produced: Result<Vec<(usize, ExperimentRun)>> = Ok(Vec::new());
        for handle in handles {
            match handle.join() {
                Ok(Ok(local)) => {
                    if let Ok(all) = &mut produced {
                        all.extend(local);
                    }
                }
                Ok(Err(e)) => {
                    if produced.is_ok() {
                        produced = Err(e);
                    }
                }
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        match writer_thread.join() {
            Ok((writer, written)) => (produced, writer, written),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    });

    let produced = produced?;
    written?;
    for (i, run) in produced {
        slots[i] = Some(run);
    }
    Ok((slots, writer.finish()?))
}

/// What the workers of one pool share.
struct Pool<'a> {
    campaign: &'a Campaign,
    plan: &'a CampaignPlan,
    worklist: &'a [usize],
    fanout: &'a BTreeMap<usize, Vec<usize>>,
    chunk: usize,
    cursor: AtomicUsize,
    /// Chunks (worklist ranges) given back by lost worker processes.
    returned: parking_lot::Mutex<Vec<Range<usize>>>,
    gate: Gate,
    controller: Option<&'a Controller>,
    logging: bool,
    timed: bool,
    respawns: AtomicUsize,
}

/// One pool worker's own state; `local` merges into the slots after the
/// join.
struct PoolWorker {
    gauges: WorkerTelemetry,
    chunks: u64,
    local: Vec<(usize, ExperimentRun)>,
    tx: crossbeam::channel::Sender<SettledRow>,
}

impl PoolWorker {
    fn settle(&mut self, row: SettledRow, run: ExperimentRun) {
        self.local.push((row.index, run));
        let _ = self.tx.send(row);
    }
}

impl Pool<'_> {
    /// Blocks while paused, counting the wait as idle time; `false` once
    /// the campaign is stopped.
    fn admit(&self, worker: &mut PoolWorker) -> bool {
        let idle_t0 = self.timed.then(Instant::now);
        let admitted = self.gate.admit();
        if let Some(t0) = idle_t0 {
            worker.gauges.idle_nanos += t0.elapsed().as_nanos() as u64;
        }
        admitted
    }

    /// The next chunk of worklist positions: a returned one first.
    fn claim(&self, worker: &mut PoolWorker) -> Option<Range<usize>> {
        let chunk = self.returned.lock().pop().or_else(|| {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            let end = (start + self.chunk).min(self.worklist.len());
            (start < end).then_some(start..end)
        })?;
        worker.chunks += 1;
        Some(chunk)
    }

    /// A thread worker: executes its claims on its own target, admitted
    /// one experiment at a time.
    fn run_thread(&self, factory: &Factory<'_>, worker: &mut PoolWorker) -> Result<()> {
        let (plan, campaign, logging) = (self.plan, self.campaign, self.logging);
        let mut target = factory();
        'claims: while self.admit(worker) {
            let Some(chunk) = self.claim(worker) else {
                break;
            };
            for &i in &self.worklist[chunk] {
                if !self.admit(worker) {
                    break 'claims;
                }
                let run = plan.produce(
                    target.as_mut(),
                    campaign,
                    i,
                    &[],
                    &mut worker.gauges,
                    self.timed,
                )?;
                let members = self.fanout.get(&i).map_or(&[][..], Vec::as_slice);
                let fans: Vec<ExperimentRun> = members
                    .iter()
                    .map(|&m| fanned_run(&run, &plan.faults[m]))
                    .collect();
                worker.settle(SettledRow::new(plan, campaign, logging, i, &run), run);
                for (&m, fan) in members.iter().zip(fans) {
                    worker.settle(SettledRow::new(plan, campaign, logging, m, &fan), fan);
                }
            }
        }
        Ok(())
    }

    /// A process worker: ships its claims to its process, admitted one
    /// chunk at a time. A chunk whose process died goes back to the pool.
    fn run_process(
        &self,
        processes: &dyn WorkerProcesses,
        options: &RunOptions,
        mut slot: usize,
        worker: &mut PoolWorker,
    ) -> Result<()> {
        // A pool with nothing to execute, or stopped before it began,
        // starts no process.
        if self.worklist.is_empty() || self.gate.stopped() {
            return Ok(());
        }
        let mut process = self.start(processes, options, &mut slot, None)?;
        while self.admit(worker) {
            let Some(chunk) = self.claim(worker) else {
                break;
            };
            let indices = &self.worklist[chunk.clone()];
            let busy_t0 = self.timed.then(Instant::now);
            let Some(records) = process.run_chunk(indices)? else {
                self.returned.lock().push(chunk);
                process = self.start(processes, options, &mut slot, Some(indices.len()))?;
                continue;
            };
            if let Some(t0) = busy_t0 {
                worker.gauges.busy_nanos += t0.elapsed().as_nanos() as u64;
            }
            worker.gauges.claimed += indices.len() as u64;
            for (&index, record) in indices.iter().zip(records) {
                let run = record.to_run();
                let row = SettledRow {
                    index,
                    pruned: false,
                    record: self.logging.then_some(record),
                };
                worker.settle(row, run);
            }
        }
        Ok(())
    }

    /// Starts a worker process in `slot`. After a loss (of `lost`
    /// experiments), a replacement takes a new slot while the respawn
    /// budget lasts; so does one for a process that dies unready.
    fn start(
        &self,
        processes: &dyn WorkerProcesses,
        options: &RunOptions,
        slot: &mut usize,
        mut lost: Option<usize>,
    ) -> Result<Box<dyn WorkerProcess>> {
        let emit = |event| {
            if let Some(ctl) = self.controller {
                ctl.emit(event);
            }
        };
        loop {
            if let Some(reissued) = lost {
                emit(ProgressEvent::WorkerLost {
                    worker: *slot,
                    reissued,
                });
                let budget = processes.max_respawns();
                let used = self.respawns.fetch_add(1, Ordering::Relaxed);
                if used >= budget {
                    return Err(GoofiError::Service(format!(
                        "worker pool exhausted after {budget} respawns"
                    )));
                }
                *slot = processes.workers() + used;
            }
            if let Some(process) = processes.spawn(self.campaign, options, self.plan)? {
                emit(ProgressEvent::WorkerSpawned {
                    worker: *slot,
                    pid: process.pid(),
                });
                return Ok(process);
            }
            lost = Some(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Technique;
    use crate::fault::{FaultModel, LocationSelector};
    use crate::progress::{control_channel, Command};
    use crate::testutil::MiniTarget;

    fn campaign(n: usize, window: (u64, u64)) -> Campaign {
        Campaign::builder("mini-c", "mini", "w")
            .technique(Technique::Scifi)
            .select(LocationSelector::Chain {
                chain: "cpu".into(),
                field: Some("R0".into()),
            })
            .fault_model(FaultModel::BitFlip)
            .window(window.0, window.1)
            .experiments(n)
            .seed(42)
            .build()
            .unwrap()
    }

    fn mini_factory() -> Box<dyn TargetSystemInterface> {
        Box::new(MiniTarget::new())
    }

    #[test]
    fn campaign_produces_all_four_outcomes_where_expected() {
        // Window [0,4]: injected before the read at 5 -> wrong output
        // (escaped) unless the flip leaves out unchanged (impossible: any
        // bit flip changes r0 and out = r0+1 observes all 8 bits).
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &campaign(10, (0, 4)))
            .run()
            .unwrap();
        assert_eq!(result.stats.escaped_total(), 10);
        // Window [6,9]: after the read, before the overwrite at 10:
        // r0 is rewritten at 10, so flips vanish -> all overwritten.
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &campaign(10, (6, 9)))
            .run()
            .unwrap();
        assert_eq!(result.stats.overwritten, 10);
        // Window [11,19]: flips in r0 persist to final state but output
        // already produced -> latent.
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &campaign(10, (11, 19)))
            .run()
            .unwrap();
        assert_eq!(result.stats.latent, 10);
    }

    #[test]
    fn preinjection_prunes_exactly_the_dead_window() {
        let mut c = campaign(20, (6, 9));
        c.pre_injection_analysis = true;
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &c).run().unwrap();
        assert_eq!(result.pruned(), 20, "entire dead window pruned");
        assert_eq!(result.stats.overwritten, 20);
        // Live window: nothing pruned.
        let mut c = campaign(20, (0, 4));
        c.pre_injection_analysis = true;
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &c).run().unwrap();
        assert_eq!(result.pruned(), 0);
    }

    #[test]
    fn pruning_is_sound_versus_real_execution() {
        // Run the same campaign with and without pruning; classification
        // counts must be identical.
        let c_plain = campaign(30, (0, 19));
        let mut c_pruned = c_plain.clone();
        c_pruned.pre_injection_analysis = true;
        let mut t = MiniTarget::new();
        let plain = CampaignRunner::new(&mut t, &c_plain).run().unwrap();
        let mut t = MiniTarget::new();
        let pruned = CampaignRunner::new(&mut t, &c_pruned).run().unwrap();
        assert_eq!(plain.stats.escaped_total(), pruned.stats.escaped_total());
        assert_eq!(plain.stats.latent, pruned.stats.latent);
        assert_eq!(plain.stats.overwritten, pruned.stats.overwritten);
        assert!(pruned.pruned() > 0, "some experiments must be pruned");
    }

    #[test]
    fn store_logging_writes_reference_and_experiments() {
        let mut store = GoofiStore::new();
        let mut t = MiniTarget::new();
        store.put_target(&t.describe()).unwrap();
        let c = campaign(5, (0, 19));
        store.put_campaign(&c).unwrap();
        let result = CampaignRunner::new(&mut t, &c)
            .store(&mut store)
            .run()
            .unwrap();
        assert_eq!(result.runs.len(), 5);
        let rows = store.experiments_of("mini-c").unwrap();
        assert_eq!(rows.len(), 6, "reference + 5 experiments");
        assert!(rows.iter().any(|r| r.name == "mini-c/ref"));
        // Automatic analysis from the database agrees with in-memory stats.
        let stats = crate::analysis::analyze_campaign(&store, "mini-c").unwrap();
        assert_eq!(stats.total(), 5);
        assert_eq!(stats.escaped_total(), result.stats.escaped_total());
        assert_eq!(stats.latent, result.stats.latent);
        assert_eq!(stats.overwritten, result.stats.overwritten);
    }

    #[test]
    fn stop_command_ends_campaign_early() {
        let (ctl, handle) = control_channel();
        handle.send(Command::Stop);
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &campaign(50, (0, 19)))
            .observer(&ctl)
            .run()
            .unwrap();
        assert!(result.runs.is_empty());
        let events = handle.drain();
        assert!(events
            .iter()
            .any(|e| matches!(e, ProgressEvent::Finished { stopped: true, .. })));
    }

    #[test]
    fn progress_events_count_experiments() {
        let (ctl, handle) = control_channel();
        let mut t = MiniTarget::new();
        CampaignRunner::new(&mut t, &campaign(3, (0, 19)))
            .observer(&ctl)
            .run()
            .unwrap();
        let events = handle.drain();
        let done: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, ProgressEvent::ExperimentDone { .. }))
            .collect();
        assert_eq!(done.len(), 3);
        assert!(matches!(
            events.last(),
            Some(ProgressEvent::Finished {
                completed: 3,
                stopped: false
            })
        ));
    }

    #[test]
    fn parallel_runner_matches_sequential() {
        let c = campaign(24, (0, 19));
        let mut t = MiniTarget::new();
        let seq = CampaignRunner::new(&mut t, &c).run().unwrap();
        let par = CampaignRunner::from_factory(mini_factory, &c)
            .workers(4)
            .run()
            .unwrap();
        assert_eq!(seq.stats, par.stats);
        assert_eq!(seq.runs.len(), par.runs.len());
        for (a, b) in seq.runs.iter().zip(&par.runs) {
            assert_eq!(a.outputs, b.outputs);
            assert_eq!(a.termination, b.termination);
        }
    }

    fn store_for(c: &Campaign) -> GoofiStore {
        let mut store = GoofiStore::new();
        store.put_target(&MiniTarget::new().describe()).unwrap();
        store.put_campaign(c).unwrap();
        store
    }

    #[test]
    fn parallel_runner_logs_identical_rows() {
        let c = campaign(8, (0, 19));
        // Sequential with store.
        let mut seq_store = store_for(&c);
        let mut t = MiniTarget::new();
        CampaignRunner::new(&mut t, &c)
            .store(&mut seq_store)
            .run()
            .unwrap();
        // Parallel with store (streamed by the writer thread).
        let mut par_store = store_for(&c);
        CampaignRunner::from_factory(mini_factory, &c)
            .workers(3)
            .store(&mut par_store)
            .run()
            .unwrap();
        let a = seq_store.experiments_of(&c.name).unwrap();
        let b = par_store.experiments_of(&c.name).unwrap();
        assert_eq!(a, b, "row-identical logging");
        // The writer's reorder buffer streams rows in fault-list order, so
        // even the raw database files are byte-identical.
        assert_eq!(
            seq_store.database().to_json().unwrap(),
            par_store.database().to_json().unwrap(),
            "byte-identical database"
        );
    }

    #[test]
    fn parallel_runner_with_pruning_matches_sequential() {
        // Window [6,9] is entirely dead: the pre-pass must synthesise all
        // runs without any worker claiming them.
        let mut c = campaign(20, (6, 9));
        c.pre_injection_analysis = true;
        let mut t = MiniTarget::new();
        let seq = CampaignRunner::new(&mut t, &c).run().unwrap();
        let par = CampaignRunner::from_factory(mini_factory, &c)
            .workers(4)
            .run()
            .unwrap();
        assert_eq!(par.pruned(), 20);
        assert_eq!(seq.stats, par.stats);
    }

    #[test]
    fn parallel_runner_emits_live_progress() {
        let c = campaign(9, (0, 19));
        let (ctl, handle) = control_channel();
        CampaignRunner::from_factory(mini_factory, &c)
            .workers(3)
            .observer(&ctl)
            .run()
            .unwrap();
        let events = handle.drain();
        assert!(matches!(
            events.first(),
            Some(ProgressEvent::Started { total: 9, .. })
        ));
        let done: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                ProgressEvent::ExperimentDone { completed, .. } => Some(*completed),
                _ => None,
            })
            .collect();
        assert_eq!(
            done,
            (1..=9).collect::<Vec<_>>(),
            "monotone completion counter"
        );
        assert!(matches!(
            events.last(),
            Some(ProgressEvent::Finished {
                completed: 9,
                stopped: false
            })
        ));
    }

    #[test]
    fn parallel_stop_before_start_then_parallel_resume_completes() {
        let c = campaign(40, (0, 19));
        let mut t = MiniTarget::new();
        let full = CampaignRunner::new(&mut t, &c).run().unwrap();

        // Stop queued before the start: like the sequential runner, the
        // campaign runs zero experiments (the reference is still logged).
        let mut store = store_for(&c);
        let (ctl, handle) = control_channel();
        handle.send(Command::Stop);
        let stopped = CampaignRunner::from_factory(mini_factory, &c)
            .workers(4)
            .store(&mut store)
            .observer(&ctl)
            .run()
            .unwrap();
        assert!(stopped.runs.is_empty());
        assert_eq!(store.experiments_of(&c.name).unwrap().len(), 1);
        let events = handle.drain();
        assert!(events
            .iter()
            .any(|e| matches!(e, ProgressEvent::Finished { stopped: true, .. })));

        // Parallel resume finishes the campaign; totals match a full run.
        let resumed = CampaignRunner::from_factory(mini_factory, &c)
            .workers(4)
            .resume_from(&mut store)
            .run()
            .unwrap();
        assert_eq!(resumed.runs.len(), 40);
        assert_eq!(resumed.stats, full.stats);
        assert_eq!(store.experiments_of(&c.name).unwrap().len(), 41);

        // Resuming again is a pure replay.
        let again = CampaignRunner::from_factory(mini_factory, &c)
            .workers(4)
            .resume_from(&mut store)
            .run()
            .unwrap();
        assert_eq!(again.stats, full.stats);
    }

    #[test]
    fn parallel_mid_campaign_stop_keeps_finished_work() {
        // Stop from a live operator thread once a few experiments are
        // done. Timing decides how many complete, but never the outcome:
        // everything logged before the stop survives, and resume fills in
        // exactly the gaps.
        let c = campaign(60, (0, 19));
        let mut t = MiniTarget::new();
        let full = CampaignRunner::new(&mut t, &c).run().unwrap();

        let mut store = store_for(&c);
        let (ctl, handle) = control_channel();
        let operator = std::thread::spawn(move || {
            let mut seen = 0;
            while let Some(ev) = handle.next() {
                if matches!(ev, ProgressEvent::ExperimentDone { .. }) {
                    seen += 1;
                    if seen == 5 {
                        handle.send(Command::Stop);
                    }
                }
                if matches!(ev, ProgressEvent::Finished { .. }) {
                    break;
                }
            }
        });
        let stopped = CampaignRunner::from_factory(mini_factory, &c)
            .workers(4)
            .store(&mut store)
            .observer(&ctl)
            .run()
            .unwrap();
        drop(ctl);
        operator.join().unwrap();
        // Logged rows = completed runs + reference, whatever the timing.
        assert_eq!(
            store.experiments_of(&c.name).unwrap().len(),
            stopped.runs.len() + 1
        );

        let resumed = CampaignRunner::from_factory(mini_factory, &c)
            .workers(4)
            .resume_from(&mut store)
            .run()
            .unwrap();
        assert_eq!(resumed.runs.len(), 60);
        assert_eq!(resumed.stats, full.stats);
        assert_eq!(store.experiments_of(&c.name).unwrap().len(), 61);
    }

    #[test]
    fn parallel_pause_blocks_and_resume_releases() {
        let c = campaign(30, (0, 19));
        let (ctl, handle) = control_channel();
        handle.send(Command::Pause);
        let worker = std::thread::spawn(move || {
            CampaignRunner::from_factory(mini_factory, &c)
                .workers(2)
                .observer(&ctl)
                .run()
                .unwrap()
        });
        // Wait for the pause acknowledgement, let the pool sit, resume.
        loop {
            match handle.next() {
                Some(ProgressEvent::Paused) => break,
                Some(_) => continue,
                None => panic!("campaign ended without acknowledging pause"),
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        handle.send(Command::Resume);
        let result = worker.join().unwrap();
        assert_eq!(result.runs.len(), 30);
        let events = handle.drain();
        assert!(events.contains(&ProgressEvent::Resumed));
    }

    #[test]
    fn resume_completes_a_stopped_campaign() {
        let c = campaign(30, (0, 19));
        // Simulate an interrupted campaign deterministically: log the
        // reference and the first 10 experiment rows of a full run.
        let mut t = MiniTarget::new();
        let full = CampaignRunner::new(&mut t, &c).run().unwrap();
        let mut store = GoofiStore::new();
        store.put_target(&MiniTarget::new().describe()).unwrap();
        store.put_campaign(&c).unwrap();
        store
            .log_experiment(&record_of(
                &c,
                reference_experiment_name(&c.name),
                &full.reference,
            ))
            .unwrap();
        for (i, run) in full.runs.iter().take(10).enumerate() {
            store
                .log_experiment(&record_of(&c, experiment_name(&c.name, i), run))
                .unwrap();
        }

        // Resume: only the missing 20 run; totals complete and identical.
        let mut t = MiniTarget::new();
        let resumed = CampaignRunner::new(&mut t, &c)
            .resume_from(&mut store)
            .run()
            .unwrap();
        assert_eq!(resumed.runs.len(), 30);
        assert_eq!(store.experiments_of(&c.name).unwrap().len(), 31);
        assert_eq!(resumed.stats, full.stats);

        // Resuming again is a pure replay of stored rows.
        let mut t = MiniTarget::new();
        let again = CampaignRunner::new(&mut t, &c)
            .resume_from(&mut store)
            .run()
            .unwrap();
        assert_eq!(again.stats, full.stats);
    }

    #[test]
    fn parallel_with_one_worker_falls_back() {
        let c = campaign(4, (0, 19));
        let par = CampaignRunner::from_factory(mini_factory, &c)
            .workers(1)
            .run()
            .unwrap();
        assert_eq!(par.runs.len(), 4);
    }

    // ------------------------------------------------------------------
    // Builder validation
    // ------------------------------------------------------------------

    #[test]
    fn builder_rejects_zero_workers() {
        let c = campaign(4, (0, 19));
        let err = CampaignRunner::from_factory(mini_factory, &c)
            .workers(0)
            .run()
            .unwrap_err();
        assert!(matches!(err, GoofiError::Campaign(_)), "got {err:?}");
    }

    #[test]
    fn parallel_run_requires_factory() {
        let c = campaign(4, (0, 19));
        let mut t = MiniTarget::new();
        let err = CampaignRunner::new(&mut t, &c)
            .workers(2)
            .run()
            .unwrap_err();
        match err {
            GoofiError::Campaign(msg) => {
                assert!(msg.contains("from_factory"), "got {msg}");
            }
            other => panic!("expected Campaign error, got {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Telemetry
    // ------------------------------------------------------------------

    #[test]
    fn telemetry_off_records_nothing() {
        let c = campaign(6, (0, 19));
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &c).run().unwrap();
        assert!(result.telemetry.is_none());
        assert!(
            !tracing::enabled(),
            "no dispatcher must leak past the campaign"
        );
    }

    #[test]
    fn telemetry_metrics_rollup_counts_experiments() {
        let c = campaign(10, (0, 19));
        let mut t = MiniTarget::new();
        let plain = CampaignRunner::new(&mut t, &c).run().unwrap();
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &c)
            .options(RunOptions::new().telemetry(TelemetryMode::Metrics))
            .run()
            .unwrap();
        // Identical campaign outcome, telemetry riding alongside.
        assert_eq!(plain.stats, result.stats);
        let tel = result.telemetry.expect("metrics mode produces a rollup");
        assert_eq!(tel.mode, "metrics");
        assert_eq!(tel.workers, 1);
        let experiments = tel.phase(names::PHASE_EXPERIMENT).unwrap();
        assert_eq!(experiments.count, 10);
        let reference = tel.phase(names::PHASE_REFERENCE).unwrap();
        assert_eq!(reference.count, 1);
        assert!(tel.phase(names::PHASE_PREPARE).is_some());
        assert_eq!(tel.worker_stats.len(), 1);
        assert_eq!(tel.worker_stats[0].claimed, 10);
        assert!(tel.spans.is_empty(), "metrics mode logs no spans");
        assert!(!tracing::enabled(), "guard dropped after the campaign");
    }

    #[test]
    fn telemetry_counts_pruned_experiments() {
        let mut c = campaign(20, (6, 9));
        c.pre_injection_analysis = true;
        let mut t = MiniTarget::new();
        let result = CampaignRunner::new(&mut t, &c)
            .options(RunOptions::new().telemetry(TelemetryMode::Metrics))
            .run()
            .unwrap();
        let tel = result.telemetry.unwrap();
        let pruned = tel
            .counters
            .iter()
            .find(|ctr| ctr.name == names::COUNTER_PRUNED)
            .expect("pruned counter recorded");
        assert_eq!(pruned.value, 20);
        assert!(
            tel.phase(names::PHASE_EXPERIMENT).is_none(),
            "nothing actually executed"
        );
    }

    #[test]
    fn telemetry_parallel_records_worker_gauges_and_persists() {
        let c = campaign(16, (0, 19));
        let mut store = store_for(&c);
        let result = CampaignRunner::from_factory(mini_factory, &c)
            .workers(3)
            .store(&mut store)
            .options(RunOptions::new().telemetry(TelemetryMode::Trace))
            .run()
            .unwrap();
        let tel = result.telemetry.expect("trace mode produces a rollup");
        assert_eq!(tel.mode, "trace");
        assert_eq!(tel.workers, 3);
        let claimed: u64 = tel.worker_stats.iter().map(|w| w.claimed).sum();
        assert_eq!(claimed, 16, "every experiment claimed exactly once");
        assert_eq!(tel.phase(names::PHASE_EXPERIMENT).unwrap().count, 16);
        assert!(!tel.spans.is_empty(), "trace mode logs spans");
        // The rollup round-trips through the store.
        let stored = store.get_telemetry(&c.name).unwrap().unwrap();
        assert_eq!(stored, tel);
    }

    #[test]
    fn telemetry_does_not_change_logged_rows() {
        let c = campaign(12, (0, 19));
        let mut plain_store = store_for(&c);
        let mut t = MiniTarget::new();
        CampaignRunner::new(&mut t, &c)
            .store(&mut plain_store)
            .run()
            .unwrap();
        let mut tel_store = store_for(&c);
        let mut t = MiniTarget::new();
        CampaignRunner::new(&mut t, &c)
            .store(&mut tel_store)
            .options(RunOptions::new().telemetry(TelemetryMode::Metrics))
            .run()
            .unwrap();
        assert_eq!(
            plain_store.experiments_of(&c.name).unwrap(),
            tel_store.experiments_of(&c.name).unwrap(),
            "telemetry must not perturb experiment rows"
        );
        // Dropping the rollup row restores byte identity.
        tel_store.clear_telemetry(&c.name).unwrap();
        assert_eq!(
            plain_store.database().to_json().unwrap(),
            tel_store.database().to_json().unwrap()
        );
    }
}
