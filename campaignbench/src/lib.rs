//! GOOFI-rs campaign benchmark: end-to-end metrics of campaign jobs
//! submitted through the `CampaignService` trait, and a per-layer
//! ledger of the same jobs timed from the outside. See `METRICS.md`.

pub mod check;
pub mod fixture;
pub mod report;
pub mod stats;
pub mod timed;
pub mod traced;
pub mod untraced;
pub mod workloads;
