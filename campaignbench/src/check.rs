//! Correctness check of a finished job, run outside every timed region:
//! every experiment row must exist and carry the verdict the reference
//! (the same campaign in-process, every decision off) gives it.

use goofi_core::{
    classify_records, logged_experiment_name, reference_experiment_name, ExperimentRecord,
    GoofiStore, Outcome, Result,
};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::Hasher;
use std::path::Path;

/// The oracle for one workload at one seed.
pub struct Reference {
    campaign: String,
    rows: Vec<ExperimentRecord>,
    verdicts: Vec<Outcome>,
}

/// Outcome of checking one job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Checked {
    /// Experiments the job was asked to run.
    pub attempted: usize,
    /// Experiments whose row is missing or wrong.
    pub failed: usize,
}

impl Reference {
    /// Loads the reference rows of `campaign` from the reference
    /// database at `path`.
    ///
    /// # Errors
    ///
    /// Database errors, or a reference without its reference row.
    pub fn load(path: &Path, campaign: &str, experiments: usize) -> Result<Reference> {
        let store = GoofiStore::load(path)?;
        let reference = store.get_experiment(&reference_experiment_name(campaign))?;
        let rows = (0..experiments)
            .map(|i| store.get_experiment(&logged_experiment_name(campaign, i)))
            .collect::<Result<Vec<_>>>()?;
        let verdicts = rows
            .iter()
            .map(|r| classify_records(&reference, r))
            .collect();
        Ok(Reference {
            campaign: campaign.to_owned(),
            rows,
            verdicts,
        })
    }

    /// Checks the campaign rows in the database at `db`. With
    /// `whole_rows`, each row must also equal the reference row field
    /// for field (the served workload's contract: a multi-process run
    /// logs exactly the in-process rows).
    pub fn check(&self, db: &Path, whole_rows: bool) -> Checked {
        let attempted = self.rows.len();
        let Ok(store) = GoofiStore::load(db) else {
            return Checked {
                attempted,
                failed: attempted,
            };
        };
        let Ok(logged) = store.experiments_of(&self.campaign) else {
            return Checked {
                attempted,
                failed: attempted,
            };
        };
        let by_name: HashMap<&str, &ExperimentRecord> =
            logged.iter().map(|r| (r.name.as_str(), r)).collect();
        let Some(job_reference) = by_name.get(reference_experiment_name(&self.campaign).as_str())
        else {
            return Checked {
                attempted,
                failed: attempted,
            };
        };
        let failed = self
            .rows
            .iter()
            .zip(&self.verdicts)
            .filter(|(want, verdict)| match by_name.get(want.name.as_str()) {
                None => true,
                Some(got) => {
                    classify_records(job_reference, got) != **verdict
                        || (whole_rows && *got != *want)
                }
            })
            .count();
        Checked { attempted, failed }
    }
}

/// A digest of the database file at `db` and its WAL. A campaign logs
/// byte-identical files every time it runs on the same fault list, so
/// once one job's rows passed [`Reference::check`], a later job with the
/// same digest logged the same rows.
pub fn digest(db: &Path) -> Option<u64> {
    let mut h = DefaultHasher::new();
    h.write(&std::fs::read(db).ok()?);
    h.write(&std::fs::read(goofi_db::storage::wal_path(db)).unwrap_or_default());
    Some(h.finish())
}
