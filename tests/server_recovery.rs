//! Multi-process campaign engine recovery, through the real stack: the
//! [`ProcessService`] farms experiments out to worker processes (this
//! test binary re-execs itself as `worker`), and the resulting database
//! must be byte-identical to a single-process sequential run — for any
//! worker count, and even when a worker is `kill -9`ed mid-campaign and
//! its in-flight chunk re-issued.
//!
//! `harness = false`: the suite manages its own process tree, so it runs
//! as a plain `main` with one `eprintln` line per scenario.

use goofi_core::{
    Campaign, CampaignRef, CampaignRunner, CampaignService, ExecOptions, FaultModel, GoofiStore,
    JobSpec, JobSummary, LocationSelector, Pruning, ServiceEvent, Technique, TelemetryMode,
};
use goofi_server::{ProcessService, ServerConfig};
use goofi_targets::standard_factory;
use std::os::unix::fs::MetadataExt;
use std::path::PathBuf;

fn campaign(name: &str, experiments: usize) -> Campaign {
    campaign_on(name, experiments, "sort8", None)
}

/// The campaign on `workload`, its faults restricted to one `cpu` chain
/// field when `field` names one.
fn campaign_on(name: &str, experiments: usize, workload: &str, field: Option<&str>) -> Campaign {
    Campaign::builder(name, "thor-card", workload)
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: field.map(str::to_owned),
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 900)
        .experiments(experiments)
        .seed(2001)
        .build()
        .expect("valid campaign")
}

fn seeded_db(path: &PathBuf, c: &Campaign) {
    let _ = std::fs::remove_file(path);
    let factory = standard_factory(c).expect("known workload");
    let mut store = GoofiStore::new();
    store.put_target(&factory().describe()).unwrap();
    store.put_campaign(c).unwrap();
    store.save(path).unwrap();
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("goofi_srv_rec_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// The sequential in-process reference run: what every server
/// configuration must reproduce byte for byte.
fn sequential_bytes(c: &Campaign) -> Vec<u8> {
    sequential_run(c, &ExecOptions::new()).0
}

/// The sequential in-process run under `options`: its database bytes and
/// its job summary.
fn sequential_run(c: &Campaign, options: &ExecOptions) -> (Vec<u8>, JobSummary) {
    let path = tmp("sequential.db");
    seeded_db(&path, c);
    let mut store = GoofiStore::load(&path).unwrap();
    // Journal exactly like the service paths do — rows stream through
    // the WAL before the final snapshot either way.
    store.enable_journal(&path).unwrap();
    let factory = standard_factory(c).unwrap();
    let result = CampaignRunner::from_factory(|| factory(), c)
        .options(options.run_options())
        .store(&mut store)
        .run()
        .unwrap();
    store.save(&path).unwrap();
    (
        std::fs::read(&path).unwrap(),
        JobSummary::from_result(&result, 1),
    )
}

/// The database in `bytes` without its telemetry rollup, rewritten
/// compactly: the rollup's timings are the one intended difference
/// between two runs that record telemetry.
fn without_telemetry(bytes: &[u8], campaign: &str) -> Vec<u8> {
    let (path, out) = (tmp("with-telemetry.db"), tmp("without-telemetry.db"));
    let _ = std::fs::remove_file(path.with_extension("db.wal"));
    std::fs::write(&path, bytes).unwrap();
    let mut store = GoofiStore::load(&path).unwrap();
    store.clear_telemetry(campaign).unwrap();
    let _ = std::fs::remove_file(&out);
    store.save(&out).unwrap();
    std::fs::read(&out).unwrap()
}

fn server_config(db: &PathBuf, workers: usize) -> ServerConfig {
    let exe = std::env::current_exe().unwrap();
    ServerConfig::new(
        db,
        vec![exe.to_string_lossy().into_owned(), "worker".into()],
    )
    .workers(workers)
    .chunk(5)
}

/// Any worker-process count produces the sequential run's database and
/// summary, under each options axis: (a) the defaults, (b) static
/// pruning plus prediction on R6 faults, so rows really are pruned and
/// predicted, and (c) metrics telemetry, compared without its rollup.
fn multi_process_runs_are_byte_identical() {
    let axes = [
        ("defaults", campaign("det-mp", 40), ExecOptions::new()),
        (
            "decided",
            campaign_on("det-mp-r6", 40, "sort16", Some("R6")),
            ExecOptions::new().pruning(Pruning::Static).prediction(true),
        ),
        (
            "metrics",
            campaign("det-mp-tel", 40),
            ExecOptions::new().telemetry(TelemetryMode::Metrics),
        ),
    ];
    for (axis, c, options) in axes {
        let telemetry = options.telemetry != TelemetryMode::Off;
        let comparable = |bytes: Vec<u8>| {
            if telemetry {
                without_telemetry(&bytes, &c.name)
            } else {
                bytes
            }
        };
        let (reference, local) = sequential_run(&c, &options);
        let reference = comparable(reference);
        if axis == "decided" {
            assert!(
                local.pruned > 0 && local.predicted > 0,
                "the decided axis neither prunes nor predicts: {local:?}"
            );
        }
        for workers in [1usize, 4] {
            let db = tmp(&format!("mp{workers}-{axis}.db"));
            seeded_db(&db, &c);
            let seeded_inode = std::fs::metadata(&db).unwrap().ino();
            let mut svc = ProcessService::new(server_config(&db, workers));
            let job = svc
                .submit(JobSpec::new(CampaignRef::Name(c.name.clone())).options(options.clone()))
                .expect("submit");
            let stream = svc.watch(&job, true).expect("watch");
            let events: Vec<ServiceEvent> = stream.collect();
            assert!(
                matches!(events.last(), Some(ServiceEvent::Completed { summary }) if summary.experiments == 40),
                "{axis}, {workers} workers: unexpected terminal event {:?}",
                events.last()
            );
            let spawned = events
                .iter()
                .filter(|e| matches!(e, ServiceEvent::WorkerSpawned { .. }))
                .count();
            assert_eq!(spawned, workers, "one Ready worker per slot");
            svc.join();
            assert_eq!(
                std::fs::metadata(&db).unwrap().ino(),
                seeded_inode,
                "{workers}-worker job replaced the database file instead of opening it once"
            );
            let bytes = comparable(std::fs::read(&db).unwrap());
            assert_eq!(
                bytes, reference,
                "{axis}: {workers}-worker server DB differs from the sequential run"
            );
            let Some(ServiceEvent::Completed { summary }) = events.last() else {
                unreachable!("checked above")
            };
            assert_eq!(
                (summary.experiments, summary.pruned, summary.predicted),
                (local.experiments, local.pruned, local.predicted),
                "{axis}, {workers} workers: summary counts differ from the in-process run"
            );
            assert_eq!(summary.stats, local.stats, "{axis}, {workers} workers");
            assert_eq!(
                summary.telemetry.is_some(),
                telemetry,
                "{axis}, {workers} workers: telemetry rollup"
            );
        }
    }
    eprintln!("server_recovery: multi_process_runs_are_byte_identical ... ok");
}

/// `kill -9` of a worker mid-campaign: its chunk is re-issued, a
/// replacement spawned, the campaign completes, and the database still
/// matches the sequential run byte for byte.
fn killed_worker_recovers_byte_identical() {
    let c = campaign("det-kill", 60);
    let reference = sequential_bytes(&c);
    let db = tmp("killed.db");
    seeded_db(&db, &c);
    let mut svc = ProcessService::new(server_config(&db, 2));
    let job = svc
        .submit(JobSpec::new(CampaignRef::Name(c.name.clone())))
        .expect("submit");
    let stream = svc.watch(&job, true).expect("watch");

    let mut pids: Vec<u32> = Vec::new();
    let mut killed = false;
    let mut lost = 0usize;
    let mut terminal = None;
    for ev in stream {
        match &ev {
            ServiceEvent::WorkerSpawned { pid, .. } => pids.push(*pid),
            ServiceEvent::WorkerLost { .. } => lost += 1,
            // Kill a live worker once the campaign is demonstrably in
            // flight; the driver must spot the dead pipe, re-queue the
            // chunk it held, and spawn a replacement.
            ServiceEvent::Progress { completed, .. } if *completed >= 5 && !killed => {
                killed = true;
                let victim = *pids.last().expect("a worker spawned before progress");
                let status = std::process::Command::new("kill")
                    .args(["-9", &victim.to_string()])
                    .status()
                    .expect("kill runs");
                assert!(status.success(), "kill -9 {victim} failed");
            }
            ev if ev.is_terminal() => terminal = Some(ev.clone()),
            _ => {}
        }
    }
    assert!(killed, "campaign finished before the kill was delivered");
    assert!(
        matches!(&terminal, Some(ServiceEvent::Completed { summary }) if summary.experiments == 60),
        "campaign did not complete after the kill: {terminal:?}"
    );
    assert!(lost >= 1, "no WorkerLost event after kill -9");
    assert!(
        pids.len() >= 3,
        "no replacement worker spawned after the loss (pids: {pids:?})"
    );
    svc.join();
    let bytes = std::fs::read(&db).unwrap();
    assert_eq!(
        bytes, reference,
        "post-recovery DB differs from the sequential run"
    );
    eprintln!("server_recovery: killed_worker_recovers_byte_identical ... ok");
}

/// A cancelled multi-process campaign keeps its completed prefix and is
/// completable by a resume submission — to the same rows and statistics
/// (not bytes: the intermediate snapshot leaves its own page layout).
fn cancel_then_resume_completes() {
    let c = campaign("det-resume", 40);
    let reference = sequential_bytes(&c);
    let db = tmp("resume.db");
    seeded_db(&db, &c);
    {
        let mut svc = ProcessService::new(server_config(&db, 2));
        let job = svc
            .submit(JobSpec::new(CampaignRef::Name(c.name.clone())))
            .expect("submit");
        let stream = svc.watch(&job, true).expect("watch");
        for ev in stream {
            if matches!(&ev, ServiceEvent::Progress { completed, .. } if *completed >= 5) {
                let _ = svc.cancel(&job);
            }
        }
        svc.join();
    }
    let store = GoofiStore::load(&db).unwrap();
    let partial = store.experiments_of(&c.name).unwrap().len();
    assert!(partial >= 1, "cancel discarded the completed prefix");

    let mut svc = ProcessService::new(server_config(&db, 2));
    let job = svc
        .submit(JobSpec::new(CampaignRef::Name(c.name.clone())).resume(true))
        .expect("resume submit");
    let stream = svc.watch(&job, true).expect("watch");
    let last = stream.last();
    assert!(
        matches!(&last, Some(ServiceEvent::Completed { .. })),
        "resume did not complete: {last:?}"
    );
    svc.join();
    let resumed = GoofiStore::load(&db).unwrap();
    let ref_path = tmp("resume_ref.db");
    std::fs::write(&ref_path, &reference).unwrap();
    let ref_store = GoofiStore::load(&ref_path).unwrap();
    assert_eq!(
        resumed.experiments_of(&c.name).unwrap().len(),
        ref_store.experiments_of(&c.name).unwrap().len(),
        "resumed DB is missing rows"
    );
    assert_eq!(
        goofi_core::analyze_campaign(&resumed, &c.name).unwrap(),
        goofi_core::analyze_campaign(&ref_store, &c.name).unwrap(),
        "resumed DB classifies differently from the sequential run"
    );
    eprintln!("server_recovery: cancel_then_resume_completes ... ok");
}

fn main() {
    // The server spawns `<this binary> worker` children; route them to
    // the protocol loop before any test machinery runs.
    if std::env::args().nth(1).as_deref() == Some("worker") {
        std::process::exit(goofi_server::worker_main());
    }
    multi_process_runs_are_byte_identical();
    killed_worker_recovers_byte_identical();
    cancel_then_resume_completes();
    let dir = std::env::temp_dir().join(format!("goofi_srv_rec_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(dir);
    eprintln!("server_recovery: all scenarios ok");
}
