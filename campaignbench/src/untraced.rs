//! End-to-end jobs, untraced: one client submits one job through the
//! `CampaignService` trait exactly as the CLI does (`goofi run` over
//! `LocalService`, `goofi submit` over `RemoteService` to a daemon
//! serving a `ProcessService`) and waits for it to finish.

use crate::stats::RssSampler;
use crate::workloads::{Workload, SERVED_CHUNK, SERVED_WORKERS};
use goofi_core::{
    CampaignRef, CampaignService, GoofiError, JobSpec, LocalService, Result, ServiceEvent,
};
use goofi_net::RemoteService;
use goofi_server::{Daemon, ProcessService, ServerConfig};
use goofi_targets::standard_provider;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// What the user of one job sees.
#[derive(Debug, Clone, Copy)]
pub struct JobTimes {
    /// Submit to the first `Progress` event, seconds.
    pub setup_s: f64,
    /// Experiments settled per second between the first and the last
    /// `Progress` event.
    pub exp_per_s: f64,
    /// Seconds from the first to the last `Progress` event.
    pub run_s: f64,
    /// `Progress` events after the first.
    pub settled: usize,
    /// Submit to `Completed`, seconds.
    pub wall_s: f64,
    /// Peak resident memory of the database owner plus the largest
    /// worker, MB.
    pub rss_peak_mb: f64,
    /// Database file size after the job (WAL included), MB.
    pub db_mb: f64,
    /// Events the client received.
    pub events: usize,
}

impl JobTimes {
    /// This job's figures under their metric names.
    pub fn scalars(&self, served: bool) -> Vec<(&'static str, f64)> {
        vec![
            ("setup_s", self.setup_s),
            ("exp_per_s", self.exp_per_s),
            ("run_s", self.run_s),
            ("settled", self.settled as f64),
            ("wall_s", self.wall_s),
            ("rss_peak_mb", self.rss_peak_mb),
            ("db_mb", self.db_mb),
            ("net.events", if served { self.events as f64 } else { 0.0 }),
        ]
    }
}

/// A running daemon on loopback serving a [`ProcessService`] over the
/// job database, with the worker argv re-executing this binary.
pub struct ServedHost {
    addr: String,
    thread: Option<JoinHandle<Result<()>>>,
}

impl ServedHost {
    /// Binds the daemon to an ephemeral loopback port and serves on a
    /// background thread.
    ///
    /// # Errors
    ///
    /// Bind failures.
    pub fn start(db: &Path) -> Result<ServedHost> {
        let config = ServerConfig::new(db, worker_argv()?)
            .workers(SERVED_WORKERS)
            .chunk(SERVED_CHUNK);
        let daemon = Daemon::bind("127.0.0.1:0", ProcessService::new(config))?;
        let addr = daemon.local_addr()?.to_string();
        let thread = std::thread::spawn(move || daemon.serve());
        Ok(ServedHost {
            addr,
            thread: Some(thread),
        })
    }

    /// Stops the daemon and waits for it (and so for every worker it
    /// spawned) to end.
    ///
    /// # Errors
    ///
    /// Transport errors and daemon failures.
    pub fn stop(mut self) -> Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        RemoteService::connect(self.addr.clone())?.shutdown()?;
        thread
            .join()
            .map_err(|_| GoofiError::Service("daemon thread panicked".into()))?
    }
}

impl Drop for ServedHost {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// The command a worker slot runs: this binary with `worker`.
pub fn worker_argv() -> Result<Vec<String>> {
    let exe = std::env::current_exe()
        .map_err(|e| GoofiError::Service(format!("cannot locate own binary: {e}")))?;
    Ok(vec![exe.to_string_lossy().into_owned(), "worker".into()])
}

/// Replaces `db` (and its WAL) with a fresh copy of the prepared
/// database.
///
/// # Errors
///
/// I/O errors.
pub fn fresh_copy(prepared: &Path, db: &Path) -> Result<()> {
    let io = |e: std::io::Error| GoofiError::Service(format!("copy fixture: {e}"));
    let wal = goofi_db::storage::wal_path(db);
    for stale in [db.to_path_buf(), wal] {
        if stale.exists() {
            std::fs::remove_file(&stale).map_err(io)?;
        }
    }
    std::fs::copy(prepared, db).map_err(io)?;
    Ok(())
}

/// File size of `db` plus its WAL, MB.
pub fn db_mb(db: &Path) -> f64 {
    let size = |p: PathBuf| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
    (size(db.to_path_buf()) + size(goofi_db::storage::wal_path(db))) as f64 / 1e6
}

/// Runs one untraced job of `workload`'s `campaign` against the
/// database at `db` (already a fresh copy): through `LocalService`
/// in-process, or, for the served workload, through a `RemoteService`
/// client of a daemon started for this job before the clock starts.
///
/// # Errors
///
/// Submission errors, a failed job, or a stream that ended early.
pub fn run_job(workload: Workload, db: &Path, campaign: &str) -> Result<JobTimes> {
    let sampler = RssSampler::start();
    let times = if workload.served() {
        let host = ServedHost::start(db)?;
        let times = drive(
            &mut RemoteService::connect(host.addr.clone())?,
            workload,
            campaign,
            &sampler,
        );
        host.stop()?;
        times
    } else {
        let mut local = LocalService::new(db, standard_provider());
        let times = drive(&mut local, workload, campaign, &sampler);
        // `Completed` is the job thread's last act; wait for it.
        local.join();
        times
    };
    let rss_peak_mb = sampler.finish();
    times.map(|t| JobTimes {
        rss_peak_mb,
        db_mb: db_mb(db),
        ..t
    })
}

/// Submits the workload's job to `svc` and follows its event stream to
/// the end, timing it from the client's side.
fn drive(
    svc: &mut impl CampaignService,
    workload: Workload,
    campaign: &str,
    sampler: &RssSampler,
) -> Result<JobTimes> {
    let spec = JobSpec::new(CampaignRef::Name(campaign.to_owned())).options(workload.options());
    let pids = sampler.pids();
    let t0 = Instant::now();
    let job = svc.submit(spec)?;
    let mut first = None;
    let mut last = None;
    let mut progress = 0usize;
    let mut events = 0usize;
    let mut done = None;
    for ev in svc.watch(&job, true)? {
        let now = Instant::now();
        events += 1;
        match ev {
            ServiceEvent::Progress { .. } => {
                first.get_or_insert(now);
                last = Some(now);
                progress += 1;
            }
            ServiceEvent::WorkerSpawned { pid, .. } => pids.lock().unwrap().push(pid),
            ServiceEvent::Completed { summary } => {
                if summary.experiments != workload.experiments() {
                    return Err(GoofiError::Service(format!(
                        "job settled {} of {} experiments",
                        summary.experiments,
                        workload.experiments()
                    )));
                }
                done = Some(now);
            }
            ServiceEvent::Failed { error } => return Err(GoofiError::Service(error)),
            _ => {}
        }
    }
    let (Some(first), Some(last), Some(done)) = (first, last, done) else {
        return Err(GoofiError::Service("job ended without completing".into()));
    };
    let settled = progress.saturating_sub(1);
    let run_s = (last - first).as_secs_f64();
    Ok(JobTimes {
        setup_s: (first - t0).as_secs_f64(),
        exp_per_s: settled as f64 / run_s,
        run_s,
        settled,
        wall_s: (done - t0).as_secs_f64(),
        rss_peak_mb: 0.0,
        db_mb: 0.0,
        events,
    })
}
