//! Traced jobs: the same campaign on the same fresh database, driven
//! step by step through the program's public calls, each timed from the
//! outside. Nothing inside the program is instrumented.
//!
//! * In-process workloads replay what a `LocalService` job does:
//!   `GoofiStore::load` at submit, `load` + `enable_journal` in the job,
//!   `plan_campaign`, then per experiment `CampaignPlan::execute`,
//!   `CampaignPlan::record` and `GoofiStore::log_experiment`, then
//!   `classify` over every run and the final `GoofiStore::save`. The
//!   target is wrapped in a [`TimedTarget`].
//! * The served workload plays the daemon's role of a `ProcessService`
//!   job against real worker processes (this binary with `worker`),
//!   speaking `WorkerRequest`/`WorkerResponse` frames over their pipes,
//!   reordering rows into fault-list order and logging them.

use crate::stats::percentile;
use crate::timed::{TargetLedger, TimedTarget};
use crate::untraced::worker_argv;
use crate::workloads::{Workload, SERVED_CHUNK, SERVED_WORKERS};
use goofi_core::{
    analyze_campaign, plan_campaign, Campaign, CampaignStats, ExecOptions, ExperimentRecord,
    GoofiError, GoofiStore, Result, TargetEvent,
};
use goofi_net::{read_frame, write_frame, Frame, IndexedRecord, WorkerRequest, WorkerResponse};
use goofi_targets::standard_factory;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Bytes of a frame header on the wire: magic, version, kind, length,
/// CRC-32.
const FRAME_HEADER_BYTES: u64 = 4 + 2 + 1 + 4 + 4;

/// What one traced job measured. Times are seconds unless named
/// otherwise.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Job start (submit's open) to the database closed after the save.
    pub wall_s: f64,
    /// The submit-side `GoofiStore::load`.
    pub submit_s: f64,
    /// The job's `GoofiStore::load` + `enable_journal`.
    pub open_s: f64,
    /// `plan_campaign` (in-process), or Init→Ready per worker (served).
    pub plan_s: f64,
    /// Target time inside `plan_campaign`.
    pub plan_target_s: f64,
    /// `CampaignPlan::execute`, all experiments.
    pub execute_s: f64,
    /// Target time inside `execute`.
    pub execute_target_s: f64,
    /// `CampaignPlan::record`.
    pub record_s: f64,
    /// `GoofiStore::log_experiment` (+ the static-analysis row).
    pub log_s: f64,
    /// Each `log_experiment` call, microseconds.
    pub log_us: Vec<f64>,
    /// `GoofiStore::save` and closing the store.
    pub save_s: f64,
    /// WAL bytes on disk just before the final save.
    pub wal_bytes: u64,
    /// `classify` over every run (in-process) or `analyze_campaign`
    /// (served, as the daemon does).
    pub classify_s: f64,
    /// Experiments in the plan.
    pub experiments: usize,
    /// Experiments pruned by the plan.
    pub pruned: usize,
    /// Experiments predicted by the plan.
    pub predicted: usize,
    /// The wrapped target's ledger (in-process workloads).
    pub target: TargetLedger,
    /// Instructions at termination summed over the returned rows, and
    /// the part of it in timed-out rows (served workload).
    pub row_instructions: (u64, u64),
    /// Rows that timed out (served workload).
    pub row_timeouts: u64,
    /// Spawn→Ready per worker.
    pub init_s: Vec<f64>,
    /// Chunk round trips, milliseconds.
    pub chunk_rtt_ms: Vec<f64>,
    /// Frames written and read by the daemon side.
    pub frames: u64,
    /// Bytes of those frames.
    pub bytes: u64,
    /// Frame encoding (`to_frame`).
    pub encode_s: f64,
    /// Frame decoding (`from_frame`).
    pub decode_s: f64,
    /// Job-thread time blocked on the worker pool.
    pub wait_s: f64,
}

impl Layers {
    /// The timed self times on the job's thread, which tile its wall
    /// time up to loop bookkeeping and the tracer's own cost. A served
    /// job plans in its workers, inside `wait_s`.
    pub fn self_s(&self) -> f64 {
        let plan_self = if self.init_s.is_empty() {
            (self.plan_s - self.plan_target_s).max(0.0)
        } else {
            0.0
        };
        self.submit_s
            + self.open_s
            + plan_self
            + (self.execute_s - self.execute_target_s).max(0.0)
            + self.target.total_ns() as f64 / 1e9
            + self.record_s
            + self.log_s
            + self.classify_s
            + self.save_s
            + self.wait_s
    }

    /// This job's per-layer figures under their metric names (the
    /// run-level ones are derived in [`crate::report`]).
    pub fn scalars(&self) -> Vec<(&'static str, f64)> {
        let (stepped, timed_out) = if self.target.instructions > 0 {
            (self.target.instructions, self.target.timeout_instructions)
        } else {
            self.row_instructions
        };
        let run_s = self.target.run_ns as f64 / 1e9;
        let ns = |v: u64| v as f64 / 1e9;
        vec![
            ("wall_s", self.wall_s),
            ("db.open_s", self.open_s),
            ("db.wal_bytes", self.wal_bytes as f64),
            ("core.store.log_s", self.log_s),
            ("core.store.log_us_p50", percentile(&self.log_us, 50.0)),
            ("core.store.log_us_p99", percentile(&self.log_us, 99.0)),
            ("core.store.record_s", self.record_s),
            ("core.store.rows", self.log_us.len() as f64),
            ("core.store.save_s", self.save_s),
            ("core.runner.plan_s", self.plan_s),
            (
                "core.runner.execute_self_s",
                (self.execute_s - self.execute_target_s).max(0.0),
            ),
            ("core.service.submit_s", self.submit_s),
            ("analysis.static_s", ns(self.target.static_ns)),
            ("core.staticanalysis.pruned", self.pruned as f64),
            ("core.staticanalysis.predicted", self.predicted as f64),
            (
                "core.staticanalysis.decided_ratio",
                ratio(
                    (self.pruned + self.predicted) as f64,
                    self.experiments as f64,
                ),
            ),
            ("core.checkpoint.snapshots", self.target.snapshots as f64),
            ("core.checkpoint.snapshot_s", ns(self.target.snapshot_ns)),
            ("core.checkpoint.restores", self.target.restores as f64),
            ("core.checkpoint.restore_s", ns(self.target.restore_ns)),
            ("thor.run_s", run_s),
            ("thor.instructions", stepped as f64),
            ("thor.ns_per_instr", ratio(run_s * 1e9, stepped as f64)),
            (
                "thor.timeouts",
                self.target.timeouts.max(self.row_timeouts) as f64,
            ),
            (
                "thor.timeout_instr_ratio",
                ratio(timed_out as f64, stepped as f64),
            ),
            ("targets.inject_s", ns(self.target.inject_ns)),
            ("targets.observe_s", ns(self.target.observe_ns)),
            ("targets.control_s", ns(self.target.control_ns)),
            ("core.analysis.classify_s", self.classify_s),
            ("server.init_s", crate::stats::median(&self.init_s)),
            ("server.chunks", self.chunk_rtt_ms.len() as f64),
            (
                "server.chunk_rtt_ms_p50",
                percentile(&self.chunk_rtt_ms, 50.0),
            ),
            (
                "server.chunk_rtt_ms_p90",
                percentile(&self.chunk_rtt_ms, 90.0),
            ),
            ("server.wait_s", self.wait_s),
            ("net.frames", self.frames as f64),
            ("net.bytes", self.bytes as f64),
            ("net.encode_s", self.encode_s),
            ("net.decode_s", self.decode_s),
            ("trace.coverage", ratio(self.self_s(), self.wall_s)),
        ]
    }

    fn log(&mut self, store: &mut GoofiStore, record: &ExperimentRecord) -> Result<()> {
        let t = Instant::now();
        store.log_experiment(record)?;
        let s = t.elapsed().as_secs_f64();
        self.log_s += s;
        self.log_us.push(s * 1e6);
        Ok(())
    }

    /// The job's two opens, as `LocalService` and `ProcessService` both
    /// do them: once at submit to resolve the campaign, once in the job.
    fn open(&mut self, db: &Path, campaign: &str) -> Result<(Campaign, GoofiStore)> {
        let t = Instant::now();
        let campaign = GoofiStore::load(db)?.get_campaign(campaign)?;
        self.submit_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let mut store = GoofiStore::load(db)?;
        store.enable_journal(db)?;
        self.open_s = t.elapsed().as_secs_f64();
        Ok((campaign, store))
    }

    /// WAL size, final save, close.
    fn close(&mut self, db: &Path, mut store: GoofiStore) -> Result<()> {
        self.wal_bytes = std::fs::metadata(goofi_db::storage::wal_path(db))
            .map(|m| m.len())
            .unwrap_or(0);
        let t = Instant::now();
        store.save(db)?;
        drop(store);
        self.save_s = t.elapsed().as_secs_f64();
        Ok(())
    }
}

/// `part / whole`, 0 when there is no whole.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// One traced in-process job of `campaign` on the fresh database at
/// `db`.
///
/// # Errors
///
/// Campaign, target and database errors.
pub fn trace_local(workload: Workload, db: &Path, campaign: &str) -> Result<Layers> {
    let mut l = Layers::default();
    let t0 = Instant::now();
    let (campaign, mut store) = l.open(db, campaign)?;
    let factory = standard_factory(&campaign)?;
    let mut target = TimedTarget::new(factory());

    let t = Instant::now();
    let plan = plan_campaign(&mut target, &campaign, &workload.options().run_options())?;
    l.plan_s = secs(t);
    l.plan_target_s = target.ledger.total_ns() as f64 / 1e9;

    let t = Instant::now();
    let reference = plan.reference_record(&campaign);
    l.record_s += secs(t);
    l.log(&mut store, &reference)?;
    let mut runs = Vec::with_capacity(plan.len());
    for i in 0..plan.len() {
        let before = target.ledger.total_ns();
        let t = Instant::now();
        let run = plan.execute(&mut target, &campaign, i)?;
        l.execute_s += secs(t);
        l.execute_target_s += (target.ledger.total_ns() - before) as f64 / 1e9;
        let t = Instant::now();
        let record = plan.record(&campaign, i, &run);
        l.record_s += secs(t);
        l.log(&mut store, &record)?;
        runs.push(run);
    }
    // The runner's classification step: `classify` over every run.
    let t = Instant::now();
    std::hint::black_box(CampaignStats::from_runs(&plan.reference, &runs));
    l.classify_s = secs(t);
    if let Some(analysis) = &plan.static_analysis {
        let t = Instant::now();
        store.put_static_analysis(&campaign.name, analysis)?;
        l.log_s += secs(t);
    }
    l.close(db, store)?;
    drop(runs);
    l.wall_s = secs(t0);

    l.experiments = plan.len();
    l.pruned = plan.prunable.iter().filter(|&&p| p).count();
    l.predicted = plan.predicted.iter().filter(|&&p| p).count();
    l.target = target.ledger.clone();
    Ok(l)
}

/// Wire accounting of one worker's pipe pair, as the daemon sees it.
#[derive(Debug, Default)]
struct Wire {
    frames: u64,
    bytes: u64,
    encode_s: f64,
    decode_s: f64,
    init_s: f64,
    plan_s: f64,
    chunk_rtt_ms: Vec<f64>,
}

impl Wire {
    fn send(&mut self, stdin: &mut ChildStdin, request: &WorkerRequest) -> Result<()> {
        let t = Instant::now();
        let frame = request.to_frame().map_err(net)?;
        self.encode_s += secs(t);
        self.count(&frame);
        write_frame(stdin, &frame).map_err(net)
    }

    fn receive(&mut self, stdout: &mut ChildStdout) -> Result<WorkerResponse> {
        let frame = read_frame(stdout).map_err(net)?;
        self.count(&frame);
        let t = Instant::now();
        let response = WorkerResponse::from_frame(&frame).map_err(net)?;
        self.decode_s += secs(t);
        Ok(response)
    }

    fn count(&mut self, frame: &Frame) {
        self.frames += 1;
        self.bytes += FRAME_HEADER_BYTES + frame.payload.len() as u64;
    }
}

fn net(e: goofi_net::NetError) -> GoofiError {
    GoofiError::Protocol(e.to_string())
}

enum PoolMsg {
    Ready(Box<ExperimentRecord>),
    Rows(Vec<IndexedRecord>),
}

type Queue = Arc<Mutex<VecDeque<(u64, Vec<usize>)>>>;

/// Reaps a worker however its feeding thread exits.
struct Reaped(Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// One worker's feeding thread: spawn, Init→Ready, then chunks until the queue
/// drains, then a clean shutdown.
fn drive_worker(
    campaign: Campaign,
    options: ExecOptions,
    queue: Queue,
    tx: mpsc::Sender<PoolMsg>,
) -> Result<Wire> {
    let argv = worker_argv()?;
    let mut wire = Wire::default();
    let spawned = Instant::now();
    let mut child = Reaped(
        Command::new(&argv[0])
            .args(&argv[1..])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| GoofiError::Service(format!("cannot spawn worker: {e}")))?,
    );
    let mut stdin = child.0.stdin.take().expect("piped stdin");
    let mut stdout = child.0.stdout.take().expect("piped stdout");

    let t = Instant::now();
    wire.send(&mut stdin, &WorkerRequest::Init { campaign, options })?;
    match wire.receive(&mut stdout)? {
        WorkerResponse::Ready { reference, .. } => {
            wire.plan_s = secs(t);
            wire.init_s = secs(spawned);
            let _ = tx.send(PoolMsg::Ready(reference));
        }
        WorkerResponse::Failed { error } => return Err(GoofiError::Service(error)),
        other => return Err(GoofiError::Protocol(format!("unexpected {other:?}"))),
    }

    loop {
        let Some((id, indices)) = queue.lock().unwrap().pop_front() else {
            break;
        };
        let t = Instant::now();
        wire.send(&mut stdin, &WorkerRequest::RunChunk { id, indices })?;
        let response = wire.receive(&mut stdout)?;
        wire.chunk_rtt_ms.push(secs(t) * 1e3);
        match response {
            WorkerResponse::ChunkDone { rows, .. } => {
                if tx.send(PoolMsg::Rows(rows)).is_err() {
                    break;
                }
            }
            WorkerResponse::Failed { error } => return Err(GoofiError::Service(error)),
            other => return Err(GoofiError::Protocol(format!("unexpected {other:?}"))),
        }
    }
    wire.send(&mut stdin, &WorkerRequest::Shutdown)?;
    drop(stdin);
    let _ = child.0.wait();
    Ok(wire)
}

/// One traced served job of `campaign` on the fresh database at `db`.
///
/// # Errors
///
/// Campaign, database, transport and worker errors.
pub fn trace_served(workload: Workload, db: &Path, campaign: &str) -> Result<Layers> {
    let mut l = Layers::default();
    let t0 = Instant::now();
    let (campaign, mut store) = l.open(db, campaign)?;
    let total = campaign.experiments;
    let queue: Queue = Arc::new(Mutex::new(
        (0..total)
            .collect::<Vec<_>>()
            .chunks(SERVED_CHUNK)
            .enumerate()
            .map(|(id, c)| (id as u64, c.to_vec()))
            .collect(),
    ));
    let (tx, rx) = mpsc::channel();
    let feeders: Vec<_> = (0..SERVED_WORKERS)
        .map(|_| {
            let (campaign, options, queue, tx) = (
                campaign.clone(),
                workload.options(),
                queue.clone(),
                tx.clone(),
            );
            std::thread::spawn(move || drive_worker(campaign, options, queue, tx))
        })
        .collect();
    drop(tx);

    let mut buffer: HashMap<usize, ExperimentRecord> = HashMap::new();
    let mut next = 0usize;
    let mut have_reference = false;
    while next < total {
        let t = Instant::now();
        let Ok(msg) = rx.recv() else { break };
        l.wait_s += secs(t);
        match msg {
            PoolMsg::Ready(reference) => {
                if !have_reference {
                    have_reference = true;
                    l.log(&mut store, &reference)?;
                }
            }
            PoolMsg::Rows(rows) => {
                for row in rows {
                    buffer.insert(row.index, row.record);
                }
                while let Some(record) = buffer.remove(&next) {
                    let instructions = record.data.instructions;
                    l.row_instructions.0 += instructions;
                    if record.data.termination == TargetEvent::TimedOut {
                        l.row_timeouts += 1;
                        l.row_instructions.1 += instructions;
                    }
                    l.log(&mut store, &record)?;
                    next += 1;
                }
            }
        }
    }
    let t = Instant::now();
    for feeder in feeders {
        let wire = feeder
            .join()
            .map_err(|_| GoofiError::Service("worker feeding thread panicked".into()))??;
        l.frames += wire.frames;
        l.bytes += wire.bytes;
        l.encode_s += wire.encode_s;
        l.decode_s += wire.decode_s;
        l.init_s.push(wire.init_s);
        l.plan_s = l.plan_s.max(wire.plan_s);
        l.chunk_rtt_ms.extend(wire.chunk_rtt_ms);
    }
    l.wait_s += secs(t);
    if next < total {
        return Err(GoofiError::Service(format!(
            "worker pool settled {next} of {total} experiments"
        )));
    }
    let t = Instant::now();
    std::hint::black_box(analyze_campaign(&store, &campaign.name)?);
    l.classify_s = secs(t);
    l.close(db, store)?;
    l.wall_s = secs(t0);
    l.experiments = total;
    Ok(l)
}
