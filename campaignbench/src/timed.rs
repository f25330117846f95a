//! [`TimedTarget`]: a [`TargetSystemInterface`] wrapper that forwards
//! every call to the wrapped target and books its duration into a
//! [`TargetLedger`] by layer.
//!
//! Every trait method is forwarded, including the ones with
//! `Unsupported` defaults (`snapshot`, `restore`, `static_analysis`,
//! `collect_trace`, …): a missed forward would silently turn
//! checkpointing or static analysis off for the wrapped campaign.

use goofi_core::{
    GoofiError, Result, StateVector, StaticAnalysis, TargetEvent, TargetSnapshot,
    TargetSystemConfig, TargetSystemInterface, TraceStep,
};
use std::time::Instant;

/// Per-layer totals of the calls a [`TimedTarget`] delegated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TargetLedger {
    /// Interpreter time: `run_workload`, `wait_for_*`,
    /// `step_instruction`, `collect_trace`.
    pub run_ns: u64,
    /// Instructions retired inside those calls.
    pub instructions: u64,
    /// Run calls that ended in [`TargetEvent::TimedOut`].
    pub timeouts: u64,
    /// Instructions retired by the run calls that timed out.
    pub timeout_instructions: u64,
    /// Injection: scan-chain reads and writes, memory writes.
    pub inject_ns: u64,
    /// Observation: `observe_state` and `read_outputs`.
    pub observe_ns: u64,
    /// Checkpoint captures.
    pub snapshots: u64,
    /// Time in `snapshot`.
    pub snapshot_ns: u64,
    /// Checkpoint restores.
    pub restores: u64,
    /// Time in `restore`.
    pub restore_ns: u64,
    /// Time in `static_analysis`.
    pub static_ns: u64,
    /// Everything else: reset, workload load, breakpoints, memory reads,
    /// counters.
    pub control_ns: u64,
}

impl TargetLedger {
    /// Total time spent inside the wrapped target.
    pub fn total_ns(&self) -> u64 {
        self.run_ns
            + self.inject_ns
            + self.observe_ns
            + self.snapshot_ns
            + self.restore_ns
            + self.static_ns
            + self.control_ns
    }
}

/// Wraps a target and times every call it delegates.
pub struct TimedTarget {
    inner: Box<dyn TargetSystemInterface>,
    /// What the delegated calls cost so far.
    pub ledger: TargetLedger,
}

fn elapsed_ns(t0: Instant) -> u64 {
    t0.elapsed().as_nanos() as u64
}

impl TimedTarget {
    /// Wraps `inner` with an empty ledger.
    pub fn new(inner: Box<dyn TargetSystemInterface>) -> TimedTarget {
        TimedTarget {
            inner,
            ledger: TargetLedger::default(),
        }
    }

    /// Times one delegated call into the ledger field `slot`.
    fn timed<R>(
        &mut self,
        slot: fn(&mut TargetLedger) -> &mut u64,
        f: impl FnOnce(&mut dyn TargetSystemInterface) -> R,
    ) -> R {
        let t0 = Instant::now();
        let out = f(self.inner.as_mut());
        *slot(&mut self.ledger) += elapsed_ns(t0);
        out
    }

    /// Times an interpreter call and counts the instructions it retired
    /// (read before and after, outside the timed interval).
    fn run<R>(
        &mut self,
        f: impl FnOnce(&mut dyn TargetSystemInterface) -> Result<R>,
        timed_out: impl Fn(&R) -> bool,
    ) -> Result<R> {
        let before = self.inner.instructions_retired().ok();
        let out = self.timed(|l| &mut l.run_ns, f);
        let after = self.inner.instructions_retired().ok();
        let stepped = match (before, after) {
            (Some(b), Some(a)) => a.saturating_sub(b),
            _ => 0,
        };
        self.ledger.instructions += stepped;
        if out.as_ref().is_ok_and(&timed_out) {
            self.ledger.timeouts += 1;
            self.ledger.timeout_instructions += stepped;
        }
        out
    }
}

fn is_timeout(ev: &TargetEvent) -> bool {
    *ev == TargetEvent::TimedOut
}

impl TargetSystemInterface for TimedTarget {
    fn target_name(&self) -> &str {
        self.inner.target_name()
    }

    fn describe(&self) -> TargetSystemConfig {
        // Takes `&self`, so it cannot book; rare and cheap.
        self.inner.describe()
    }

    fn init_test_card(&mut self) -> Result<()> {
        self.timed(|l| &mut l.control_ns, |t| t.init_test_card())
    }

    fn load_workload(&mut self) -> Result<()> {
        self.timed(|l| &mut l.control_ns, |t| t.load_workload())
    }

    fn write_memory(&mut self, addr: u32, data: &[u32]) -> Result<()> {
        self.timed(|l| &mut l.inject_ns, |t| t.write_memory(addr, data))
    }

    fn read_memory(&mut self, addr: u32, len: usize) -> Result<Vec<u32>> {
        self.timed(|l| &mut l.control_ns, |t| t.read_memory(addr, len))
    }

    fn set_breakpoint(&mut self, time: u64) -> Result<()> {
        self.timed(|l| &mut l.control_ns, |t| t.set_breakpoint(time))
    }

    fn run_workload(&mut self) -> Result<()> {
        self.run(|t| t.run_workload(), |_| false)
    }

    fn wait_for_breakpoint(&mut self) -> Result<TargetEvent> {
        self.run(|t| t.wait_for_breakpoint(), is_timeout)
    }

    fn wait_for_termination(&mut self) -> Result<TargetEvent> {
        self.run(|t| t.wait_for_termination(), is_timeout)
    }

    fn read_scan_chain(&mut self, chain: &str) -> Result<StateVector> {
        self.timed(|l| &mut l.inject_ns, |t| t.read_scan_chain(chain))
    }

    fn write_scan_chain(&mut self, chain: &str, bits: &StateVector) -> Result<()> {
        self.timed(|l| &mut l.inject_ns, |t| t.write_scan_chain(chain, bits))
    }

    fn observe_state(&mut self) -> Result<StateVector> {
        self.timed(|l| &mut l.observe_ns, |t| t.observe_state())
    }

    fn read_outputs(&mut self) -> Result<Vec<u32>> {
        self.timed(|l| &mut l.observe_ns, |t| t.read_outputs())
    }

    fn step_instruction(&mut self) -> Result<Option<TargetEvent>> {
        self.run(
            |t| t.step_instruction(),
            |ev| ev.as_ref().is_some_and(is_timeout),
        )
    }

    fn collect_trace(&mut self) -> Result<Vec<TraceStep>> {
        self.run(|t| t.collect_trace(), |_| false)
    }

    fn static_analysis(&mut self, horizon: u64) -> Result<StaticAnalysis> {
        self.timed(|l| &mut l.static_ns, |t| t.static_analysis(horizon))
    }

    fn instructions_retired(&mut self) -> Result<u64> {
        self.timed(|l| &mut l.control_ns, |t| t.instructions_retired())
    }

    fn iterations_completed(&mut self) -> Result<u32> {
        self.timed(|l| &mut l.control_ns, |t| t.iterations_completed())
    }

    fn snapshot(&mut self) -> Result<TargetSnapshot> {
        let out = self.timed(|l| &mut l.snapshot_ns, |t| t.snapshot());
        if out.is_ok() {
            self.ledger.snapshots += 1;
        }
        out
    }

    fn restore(&mut self, snapshot: &TargetSnapshot) -> Result<()> {
        let out = self.timed(|l| &mut l.restore_ns, |t| t.restore(snapshot));
        if out.is_ok() {
            self.ledger.restores += 1;
        }
        out
    }

    fn unsupported(&self, method: &'static str) -> GoofiError {
        self.inner.unsupported(method)
    }
}
