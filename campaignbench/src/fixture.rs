//! Inputs of a run, all derived from the benchmark seed and built once
//! per seed (in a `prepare` child process, so their memory never shows
//! in the measured process):
//!
//! * the *prepared database*: a history of earlier campaigns (a lab
//!   database accumulates them, paper Fig. 4) plus the workload's
//!   campaign definition, as `goofi setup` would leave it. Every job
//!   starts from a fresh copy of it.
//! * the *reference database*: the workload's campaign run in-process
//!   with every decision off, the oracle each job's rows are checked
//!   against.

use crate::workloads::{mix, reference_options, Workload, TARGET};
use goofi_core::{
    plan_campaign, Campaign, ExperimentRecord, FaultModel, GoofiStore, LocationSelector, Result,
    Technique,
};
use goofi_targets::standard_factory;
use std::path::{Path, PathBuf};

/// Bumped whenever the fixture's content changes, so cached files from
/// an older layout are never reused.
const FIXTURE_VERSION: u32 = 1;

/// Earlier campaigns in the history.
pub const HISTORY_CAMPAIGNS: usize = 24;

/// Rows per earlier campaign (reference row included).
pub const HISTORY_ROWS_PER_CAMPAIGN: usize = 500;

/// Real experiment rows the history is sampled from.
const HISTORY_POOL: usize = 96;

/// Where one workload's inputs for one seed live.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// The prepared database each job copies.
    pub prepared: PathBuf,
    /// The reference database.
    pub reference: PathBuf,
    /// `<rows> <bytes>` of the prepared database.
    pub meta: PathBuf,
}

impl Inputs {
    /// The input paths of `workload` at `seed` under `work`.
    pub fn locate(work: &Path, workload: Workload, seed: u64) -> Inputs {
        let stem = format!(
            "v{FIXTURE_VERSION}-{}-{}x{}-{seed}",
            workload.name(),
            workload.experiments(),
            workload.variants()
        );
        Inputs {
            prepared: work.join(format!("prepared-{stem}.db")),
            reference: work.join(format!("reference-{stem}.db")),
            meta: work.join(format!("prepared-{stem}.meta")),
        }
    }

    /// Whether every file exists (the metadata is written last).
    pub fn ready(&self) -> bool {
        self.prepared.exists() && self.reference.exists() && self.meta.exists()
    }

    /// History rows and bytes of the prepared database: reported with
    /// every run, so a change to the fixture is visible.
    pub fn fixture_size(&self) -> Option<(u64, u64)> {
        let text = std::fs::read_to_string(&self.meta).ok()?;
        let mut it = text.split_whitespace().map(|v| v.parse::<u64>().ok());
        Some((it.next()??, it.next()??))
    }
}

/// A small deterministic generator (SplitMix64 stream).
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(1);
        mix(self.0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Real experiment rows of a small sort16 campaign: the material the
/// history rows are drawn from, so their sizes and shapes match what
/// campaigns actually log.
fn history_pool(seed: u64) -> Result<(Campaign, Vec<ExperimentRecord>)> {
    let campaign = Campaign::builder("history-pool", TARGET, "sort16")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: None,
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 1342)
        .experiments(HISTORY_POOL)
        .seed(mix(seed ^ 0x4849_5354))
        .build()?;
    let factory = standard_factory(&campaign)?;
    let mut target = factory();
    let plan = plan_campaign(target.as_mut(), &campaign, &reference_options())?;
    let mut rows = vec![plan.reference_record(&campaign)];
    for i in 0..plan.len() {
        let run = plan.execute(target.as_mut(), &campaign, i)?;
        rows.push(plan.record(&campaign, i, &run));
    }
    Ok((campaign, rows))
}

/// Adds the seeded history to `store`: [`HISTORY_CAMPAIGNS`] campaigns
/// of [`HISTORY_ROWS_PER_CAMPAIGN`] rows each. Rows are pool rows under
/// new names with a perturbed state vector and instruction count.
/// Returns the number of rows added.
fn add_history(store: &mut GoofiStore, seed: u64) -> Result<u64> {
    let (pool_campaign, pool) = history_pool(seed)?;
    let mut rng = Stream(mix(seed ^ 0x6869_7374));
    for c in 0..HISTORY_CAMPAIGNS {
        let name = format!("history-{c:03}");
        let mut campaign = pool_campaign.clone();
        campaign.name = name.clone();
        campaign.experiments = HISTORY_ROWS_PER_CAMPAIGN - 1;
        campaign.seed = rng.next();
        store.put_campaign(&campaign)?;
        for i in 0..HISTORY_ROWS_PER_CAMPAIGN {
            let mut row = if i == 0 {
                pool[0].clone()
            } else {
                pool[1 + rng.below(pool.len() - 1)].clone()
            };
            row.name = if i == 0 {
                goofi_core::reference_experiment_name(&name)
            } else {
                goofi_core::logged_experiment_name(&name, i - 1)
            };
            row.campaign = name.clone();
            if !row.state_vector.is_empty() {
                let at = rng.below(row.state_vector.len());
                row.state_vector[at] ^= 1 << rng.below(8);
            }
            row.data.instructions += rng.below(64) as u64;
            store.log_experiment(&row)?;
        }
    }
    Ok((HISTORY_CAMPAIGNS * HISTORY_ROWS_PER_CAMPAIGN) as u64)
}

/// Writes `store` to `path` through a temporary file, so a killed
/// prepare never leaves a half-written fixture behind.
fn save_atomically(store: &mut GoofiStore, path: &Path) -> Result<()> {
    let tmp = path.with_extension("tmp");
    store.save(&tmp)?;
    std::fs::rename(&tmp, path).map_err(io_error)
}

/// Removes the inputs of every other workload and seed, so a series of
/// runs over many seeds keeps one set of inputs on disk.
fn remove_stale(work: &Path, keep: &Inputs) -> Result<()> {
    let Ok(entries) = std::fs::read_dir(work) else {
        return Ok(());
    };
    let file_name = |p: &Path| p.file_name().and_then(|n| n.to_str()).map(str::to_owned);
    let kept: Vec<String> = [&keep.prepared, &keep.reference, &keep.meta]
        .into_iter()
        .filter_map(|p| file_name(p))
        .collect();
    for entry in entries {
        let path = entry.map_err(io_error)?.path();
        let name = file_name(&path).unwrap_or_default();
        let input = name.starts_with("prepared-") || name.starts_with("reference-");
        // `<db>.wal` sidecars belong to their database.
        if input && !kept.iter().any(|k| name.starts_with(k.as_str())) {
            std::fs::remove_file(&path).map_err(io_error)?;
        }
    }
    Ok(())
}

/// Builds the prepared and reference databases of `workload` at `seed`
/// unless they already exist.
///
/// # Errors
///
/// Campaign, target and database errors.
pub fn prepare(work: &Path, workload: Workload, seed: u64) -> Result<Inputs> {
    let inputs = Inputs::locate(work, workload, seed);
    if inputs.ready() {
        return Ok(inputs);
    }
    std::fs::create_dir_all(work).map_err(io_error)?;
    remove_stale(work, &inputs)?;
    let campaigns = (0..workload.variants())
        .map(|v| workload.campaign(seed, v))
        .collect::<Result<Vec<_>>>()?;
    let factory = standard_factory(&campaigns[0])?;
    let config = factory().describe();

    let mut prepared = GoofiStore::new();
    prepared.put_target(&config)?;
    let rows = add_history(&mut prepared, seed)?;
    for campaign in &campaigns {
        prepared.put_campaign(campaign)?;
    }
    save_atomically(&mut prepared, &inputs.prepared)?;
    drop(prepared);

    let mut reference = GoofiStore::new();
    reference.put_target(&config)?;
    let mut target = factory();
    for campaign in &campaigns {
        reference.put_campaign(campaign)?;
        let plan = plan_campaign(target.as_mut(), campaign, &reference_options())?;
        reference.log_experiment(&plan.reference_record(campaign))?;
        for i in 0..plan.len() {
            let run = plan.execute(target.as_mut(), campaign, i)?;
            reference.log_experiment(&plan.record(campaign, i, &run))?;
        }
    }
    save_atomically(&mut reference, &inputs.reference)?;

    let bytes = std::fs::metadata(&inputs.prepared).map_err(io_error)?.len();
    let tmp = inputs.meta.with_extension("tmp");
    std::fs::write(&tmp, format!("{rows} {bytes}\n")).map_err(io_error)?;
    std::fs::rename(&tmp, &inputs.meta).map_err(io_error)?;
    Ok(inputs)
}

fn io_error(e: std::io::Error) -> goofi_core::GoofiError {
    goofi_core::GoofiError::Service(format!("fixture: {e}"))
}
