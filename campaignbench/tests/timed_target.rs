//! `TimedTarget` must be invisible to a campaign: the same rows, the
//! same checkpoint traffic and the same static decisions as the bare
//! target. A method it failed to forward would fall back to the trait's
//! `Unsupported` default and silently turn checkpointing or static
//! analysis off.

use goofi_campaignbench::timed::TimedTarget;
use goofi_core::{
    Campaign, CampaignResult, CampaignRunner, CampaignTelemetry, ExperimentRecord, FaultModel,
    GoofiStore, LocationSelector, Pruning, RunOptions, TargetSystemInterface, Technique,
    TelemetryMode,
};
use goofi_targets::standard_target;

fn campaign(name: &str, field: Option<&str>, window_end: u64, seed: u64) -> Campaign {
    Campaign::builder(name, "thor-card", "sort16")
        .technique(Technique::Scifi)
        .select(LocationSelector::Chain {
            chain: "cpu".into(),
            field: field.map(str::to_owned),
        })
        .fault_model(FaultModel::BitFlip)
        .window(0, window_end)
        .experiments(240)
        .seed(seed)
        .build()
        .expect("valid campaign")
}

/// Runs `campaign` on `target` into a fresh store with metrics
/// telemetry on; returns the logged rows, the result and the rollup.
fn run(
    target: &mut dyn TargetSystemInterface,
    campaign: &Campaign,
    options: RunOptions,
) -> (Vec<ExperimentRecord>, CampaignResult, CampaignTelemetry) {
    let mut store = GoofiStore::new();
    store.put_target(&target.describe()).unwrap();
    store.put_campaign(campaign).unwrap();
    let result = CampaignRunner::new(target, campaign)
        .options(options.telemetry(TelemetryMode::Metrics))
        .store(&mut store)
        .run()
        .expect("campaign runs");
    let rows = store.experiments_of(&campaign.name).unwrap();
    let telemetry = result.telemetry.clone().expect("metrics recorded");
    (rows, result, telemetry)
}

fn span_count(t: &CampaignTelemetry, name: &str) -> u64 {
    t.phases
        .iter()
        .find(|p| p.name == name)
        .map_or(0, |p| p.count)
}

fn bare() -> Box<dyn TargetSystemInterface> {
    Box::new(standard_target("thor-card", "sort16").unwrap())
}

#[test]
fn checkpointed_campaign_logs_the_same_rows_and_checkpoint_traffic() {
    let c = campaign("timed-checkpoint", None, 1342, 11);
    let options = RunOptions::new().pruning(Pruning::Off).checkpoint(true);

    let (bare_rows, _, bare_tel) = run(bare().as_mut(), &c, options);
    let mut timed = TimedTarget::new(bare());
    let (timed_rows, _, _) = run(&mut timed, &c, options);

    assert_eq!(timed_rows.len(), c.experiments + 1);
    assert_eq!(timed_rows, bare_rows);
    let snapshots = span_count(&bare_tel, "block.snapshot");
    let restores = span_count(&bare_tel, "block.restore");
    assert!(snapshots > 0 && restores > 0, "the campaign checkpoints");
    assert_eq!(timed.ledger.snapshots, snapshots);
    assert_eq!(timed.ledger.restores, restores);
    assert!(timed.ledger.instructions > 0);
    assert!(timed.ledger.run_ns > 0 && timed.ledger.inject_ns > 0 && timed.ledger.observe_ns > 0);
}

#[test]
fn decided_campaign_keeps_its_static_decisions() {
    let c = campaign("timed-decided", Some("R6"), 1342, 7);
    let options = RunOptions::new()
        .pruning(Pruning::Static)
        .prediction(true)
        .checkpoint(true);

    let (bare_rows, bare_result, bare_tel) = run(bare().as_mut(), &c, options);
    let mut timed = TimedTarget::new(bare());
    let (timed_rows, timed_result, _) = run(&mut timed, &c, options);

    assert_eq!(timed_rows, bare_rows);
    assert!(bare_result.pruned() > 0 && bare_result.predicted() > 0);
    assert_eq!(timed_result.pruned(), bare_result.pruned());
    assert_eq!(timed_result.predicted(), bare_result.predicted());
    assert_eq!(
        timed.ledger.snapshots,
        span_count(&bare_tel, "block.snapshot")
    );
    assert_eq!(
        timed.ledger.restores,
        span_count(&bare_tel, "block.restore")
    );
}
