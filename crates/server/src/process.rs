//! [`ProcessService`] — the daemon's campaign service.
//!
//! A served job is a [`LocalService`] job: the daemon plans the campaign,
//! settles the synthesised rows and writes every row through the
//! runner's one writer, so resume, progress, stop and the summary are the
//! local code. Only the runner pool's worker kind differs: each worker
//! drives a `goofi worker` child over [`WorkerRequest`] /
//! [`WorkerResponse`] pipes. This module keeps what is specific to
//! processes: spawning a child, the Init/Ready handshake (checked against
//! the daemon's own plan), shipping a chunk and reading back its rows,
//! and spotting a dead pipe. The runner re-issues a lost worker's chunk
//! and starts a replacement within the respawn budget.

use goofi_core::service::{CampaignService, EventStream, JobId, JobSpec, JobStatus, LocalService};
use goofi_core::{
    Campaign, CampaignPlan, ExecOptions, ExperimentRecord, GoofiError, Result, RunOptions,
    WorkerProcess, WorkerProcesses,
};
use goofi_net::{read_frame, write_frame, NetError, NetResult, WorkerRequest, WorkerResponse};
use goofi_targets::standard_provider;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

/// Daemon configuration: where the database lives and how the worker
/// pool is built.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The database file all jobs share.
    pub db: PathBuf,
    /// Worker processes per job.
    pub workers: usize,
    /// Command line that starts one worker (`["goofi", "worker"]`; tests
    /// use their own binary with a sentinel argument).
    pub worker_cmd: Vec<String>,
    /// Experiment indices per chunk. Small chunks lose little work to a
    /// crash; large chunks amortise the pipe round trip.
    pub chunk: usize,
    /// Replacement workers a single job may spawn after crashes before
    /// the job fails.
    pub max_respawns: usize,
}

impl ServerConfig {
    /// A configuration with default pool sizing (2 workers, 16-index
    /// chunks, 8 respawns).
    pub fn new(db: impl Into<PathBuf>, worker_cmd: Vec<String>) -> ServerConfig {
        ServerConfig {
            db: db.into(),
            workers: 2,
            worker_cmd,
            chunk: 16,
            max_respawns: 8,
        }
    }

    /// Sets the worker-pool size.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> ServerConfig {
        self.workers = workers.max(1);
        self
    }

    /// Sets the chunk size.
    #[must_use]
    pub fn chunk(mut self, chunk: usize) -> ServerConfig {
        self.chunk = chunk.max(1);
        self
    }

    /// Sets the crash-respawn budget.
    #[must_use]
    pub fn max_respawns(mut self, max_respawns: usize) -> ServerConfig {
        self.max_respawns = max_respawns;
        self
    }
}

/// [`CampaignService`] over worker processes: a [`LocalService`] on the
/// configured database whose runner pool drives `goofi worker` children.
/// Jobs, events, cancellation and summaries are `LocalService`'s own.
/// Telemetry is recorded on the daemon side only; workers keep none.
pub struct ProcessService(LocalService);

impl ProcessService {
    /// A service executing jobs per `config`.
    pub fn new(config: ServerConfig) -> ProcessService {
        let service = LocalService::new(config.db.clone(), standard_provider());
        ProcessService(service.processes(Arc::new(config)))
    }

    /// Waits for every submitted job to finish.
    pub fn join(&mut self) {
        self.0.join();
    }
}

impl CampaignService for ProcessService {
    fn submit(&mut self, spec: JobSpec) -> Result<JobId> {
        self.0.submit(spec)
    }

    fn status(&mut self, job: &str) -> Result<JobStatus> {
        self.0.status(job)
    }

    fn watch(&mut self, job: &str, from_start: bool) -> Result<EventStream> {
        self.0.watch(job, from_start)
    }

    fn cancel(&mut self, job: &str) -> Result<bool> {
        self.0.cancel(job)
    }

    fn jobs(&mut self) -> Result<Vec<(JobId, JobStatus)>> {
        self.0.jobs()
    }
}

impl WorkerProcesses for ServerConfig {
    fn workers(&self) -> usize {
        self.workers
    }

    fn chunk(&self) -> usize {
        self.chunk
    }

    fn max_respawns(&self) -> usize {
        self.max_respawns
    }

    fn spawn(
        &self,
        campaign: &Campaign,
        options: &RunOptions,
        plan: &CampaignPlan,
    ) -> Result<Option<Box<dyn WorkerProcess>>> {
        let mut worker = Worker::spawn(&self.worker_cmd)?;
        let init = WorkerRequest::Init {
            campaign: campaign.clone(),
            options: ExecOptions::new()
                .checkpoint(options.checkpoint)
                .telemetry(options.telemetry)
                .pruning(options.pruning)
                .prediction(options.prediction),
        };
        match worker.request(&init) {
            Ok(WorkerResponse::Ready {
                pid,
                experiments,
                reference,
            }) => {
                if experiments != plan.len() || *reference != plan.reference_record(campaign) {
                    return Err(GoofiError::Service(format!(
                        "worker {pid} planned {experiments} experiments and a reference run \
                         that do not match the daemon's plan of {}",
                        plan.len()
                    )));
                }
                worker.pid = pid;
                Ok(Some(Box::new(worker)))
            }
            Ok(WorkerResponse::Failed { error }) => Err(GoofiError::Service(error)),
            // The process died (or garbled its pipe) before it was ready.
            Ok(_) | Err(_) => {
                let _ = worker.child.kill();
                Ok(None)
            }
        }
    }
}

/// One `goofi worker` child, talking frames over its stdin/stdout.
struct Worker {
    child: Child,
    pid: u32,
    /// Chunks shipped so far, which numbers the next one.
    chunks: u64,
}

impl Worker {
    fn spawn(cmd: &[String]) -> Result<Worker> {
        let (program, args) = cmd
            .split_first()
            .ok_or_else(|| GoofiError::Service("empty worker command".into()))?;
        let child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| GoofiError::Service(format!("cannot spawn worker `{program}`: {e}")))?;
        Ok(Worker {
            pid: child.id(),
            child,
            chunks: 0,
        })
    }

    /// One request and its reply. A transport error means the pipe, and
    /// so the process, is gone.
    fn request(&mut self, request: &WorkerRequest) -> NetResult<WorkerResponse> {
        let (Some(stdin), Some(stdout)) = (self.child.stdin.as_mut(), self.child.stdout.as_mut())
        else {
            return Err(NetError::ClosedStream);
        };
        write_frame(stdin, &request.to_frame()?)?;
        WorkerResponse::from_frame(&read_frame(stdout)?)
    }
}

impl WorkerProcess for Worker {
    fn pid(&self) -> u32 {
        self.pid
    }

    fn run_chunk(&mut self, indices: &[usize]) -> Result<Option<Vec<ExperimentRecord>>> {
        self.chunks += 1;
        let id = self.chunks;
        let request = WorkerRequest::RunChunk {
            id,
            indices: indices.to_vec(),
        };
        match self.request(&request) {
            Ok(WorkerResponse::ChunkDone { rows, .. }) => {
                let answered = rows.len() == indices.len()
                    && rows.iter().zip(indices).all(|(row, &i)| row.index == i);
                if !answered {
                    return Err(GoofiError::Protocol(format!(
                        "worker {} answered chunk {id} with rows of other experiments",
                        self.pid
                    )));
                }
                Ok(Some(rows.into_iter().map(|row| row.record).collect()))
            }
            Ok(WorkerResponse::Failed { error }) => Err(GoofiError::Service(error)),
            // The pipe broke mid-chunk: the process is gone (kill -9,
            // OOM, crash).
            Ok(_) | Err(_) => {
                let _ = self.child.kill();
                Ok(None)
            }
        }
    }
}

impl Drop for Worker {
    /// Says goodbye on the pipe and reaps the child (`wait` closes its
    /// stdin first).
    fn drop(&mut self) {
        if let (Some(stdin), Ok(frame)) = (
            self.child.stdin.as_mut(),
            WorkerRequest::Shutdown.to_frame(),
        ) {
            let _ = write_frame(stdin, &frame);
        }
        let _ = self.child.wait();
    }
}
