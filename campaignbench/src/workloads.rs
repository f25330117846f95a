//! The three benchmark workloads: which campaign each one runs, with
//! which execution options, and how big a job is.

use goofi_core::{
    reference_run, Campaign, ExecOptions, FaultModel, LocationSelector, Pruning, RunOptions,
    Technique,
};
use goofi_targets::standard_target;

/// Target every workload runs on.
pub const TARGET: &str = "thor-card";

/// Experiment indices per chunk on the served workload (`goofi serve`'s
/// default `--chunk`).
pub const SERVED_CHUNK: usize = 16;

/// Worker processes on the served workload.
pub const SERVED_WORKERS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Whole-chain SCIFI bit-flips over sort64's whole run, decisions
    /// off, checkpointing on: the interpreter and harness workload.
    ExecSort64,
    /// R6 bit-flips on sort16 with static pruning and prediction: the
    /// storage and decision workload.
    DecidedSort16,
    /// The E3 sort16 whole-chain campaign through the TCP daemon and
    /// two worker processes: the transport workload.
    ServedSort16,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ExecSort64,
        Workload::DecidedSort16,
        Workload::ServedSort16,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ExecSort64 => "exec-sort64",
            Workload::DecidedSort16 => "decided-sort16",
            Workload::ServedSort16 => "served-sort16",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether jobs go through the daemon and worker processes.
    pub fn served(self) -> bool {
        self == Workload::ServedSort16
    }

    /// The Thor program the campaign injects into.
    pub fn program(self) -> &'static str {
        match self {
            Workload::ExecSort64 => "sort64",
            Workload::DecidedSort16 | Workload::ServedSort16 => "sort16",
        }
    }

    /// Experiments per job.
    pub fn experiments(self) -> usize {
        match self {
            Workload::ExecSort64 => 3000,
            Workload::DecidedSort16 => 12_000,
            Workload::ServedSort16 => 2000,
        }
    }

    /// Fault lists per seed. A run's jobs cycle through them, and
    /// `exp_per_s` and `wall_s` pool them, so a run averages over several
    /// draws instead of resting on one. `exec-sort64` draws the most: one
    /// sort64 time-out costs as much as about 180 ordinary experiments,
    /// and time-outs take about 40% of its run time.
    pub fn variants(self) -> usize {
        match self {
            Workload::ExecSort64 => 6,
            Workload::DecidedSort16 | Workload::ServedSort16 => 3,
        }
    }

    /// The name of the workload's campaign `variant`.
    pub fn campaign_name(self, variant: usize) -> String {
        format!("bench-{}-v{variant}", self.name())
    }

    /// The workload's campaign `variant` (of [`Workload::variants`]) for
    /// benchmark seed `seed`. The fault-list seed derives from both, so
    /// every seed and variant injects different faults.
    pub fn campaign(self, seed: u64, variant: usize) -> goofi_core::Result<Campaign> {
        let (field, window_end) = match self {
            Workload::ExecSort64 => (None, run_length(self.program())?),
            Workload::DecidedSort16 => (Some("R6"), run_length(self.program())?),
            Workload::ServedSort16 => (None, 3000),
        };
        let salt = Workload::ALL.iter().position(|&w| w == self).unwrap_or(0) as u64;
        Campaign::builder(self.campaign_name(variant), TARGET, self.program())
            .technique(Technique::Scifi)
            .select(LocationSelector::Chain {
                chain: "cpu".into(),
                field: field.map(str::to_owned),
            })
            .fault_model(FaultModel::BitFlip)
            .window(0, window_end)
            .experiments(self.experiments())
            .seed(mix(seed ^ (salt << 56) ^ ((variant as u64) << 48)))
            .build()
    }

    /// The execution options a job is submitted with.
    pub fn options(self) -> ExecOptions {
        let base = ExecOptions::new().checkpoint(true).class_execution(false);
        match self {
            Workload::ExecSort64 => base.workers(1).pruning(Pruning::Off).prediction(false),
            Workload::DecidedSort16 => base.workers(1).pruning(Pruning::Static).prediction(true),
            Workload::ServedSort16 => base
                .workers(SERVED_WORKERS)
                .pruning(Pruning::Off)
                .prediction(false),
        }
    }
}

/// Options of the correctness reference: the same campaign in-process
/// with every decision off, so every row is executed.
pub fn reference_options() -> RunOptions {
    RunOptions::new()
        .pruning(Pruning::Off)
        .prediction(false)
        .class_execution(false)
        .checkpoint(true)
}

/// Instructions the fault-free run of `program` retires: the injection
/// window that covers the whole run.
pub fn run_length(program: &str) -> goofi_core::Result<u64> {
    let probe = Campaign::builder("probe", TARGET, program)
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: None,
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, 1)
        .experiments(1)
        .build()?;
    let mut target = standard_target(TARGET, program)?;
    Ok(reference_run(&mut target, &probe)?.instructions)
}

/// SplitMix64 finaliser: spreads a benchmark seed into an unrelated
/// 64-bit value.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
