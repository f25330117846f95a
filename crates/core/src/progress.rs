//! Campaign progress monitoring and control.
//!
//! The paper's Fig. 7 progress window shows the number of experiments
//! conducted and lets the user "pause, restart or end the campaign". This
//! module is that surface without the window: the runner holds a
//! [`Controller`] that emits [`ProgressEvent`]s and obeys [`Command`]s
//! sent through the paired [`ControlHandle`].

use crate::error::{GoofiError, Result};
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};

/// Progress notifications emitted by a running campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgressEvent {
    /// The campaign started; `total` experiments planned.
    Started {
        /// Campaign name.
        campaign: String,
        /// Planned number of experiments.
        total: usize,
    },
    /// One experiment finished.
    ExperimentDone {
        /// 1-based experiment number.
        completed: usize,
        /// Planned total.
        total: usize,
        /// Whether pre-injection analysis skipped the physical run.
        pruned: bool,
    },
    /// The campaign acknowledged a pause.
    Paused,
    /// The campaign resumed.
    Resumed,
    /// A worker process completed its handshake (process pools only).
    WorkerSpawned {
        /// Worker slot index.
        worker: usize,
        /// Operating-system process id.
        pid: u32,
    },
    /// A worker process died; its outstanding chunk went back to the
    /// pool.
    WorkerLost {
        /// Worker slot index.
        worker: usize,
        /// Experiments re-issued to the pool.
        reissued: usize,
    },
    /// The campaign finished (all experiments, or stopped early).
    Finished {
        /// Experiments completed.
        completed: usize,
        /// `true` if the operator stopped the campaign early.
        stopped: bool,
    },
}

/// Operator commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Pause at the next experiment boundary.
    Pause,
    /// Resume a paused campaign.
    Resume,
    /// End the campaign at the next experiment boundary.
    Stop,
}

/// The runner-side endpoint.
#[derive(Debug)]
pub struct Controller {
    commands: Receiver<Command>,
    progress: Sender<ProgressEvent>,
}

/// The operator-side endpoint (what a GUI or CLI holds).
#[derive(Debug)]
pub struct ControlHandle {
    commands: Sender<Command>,
    progress: Receiver<ProgressEvent>,
}

/// Creates a connected controller/handle pair.
pub fn control_channel() -> (Controller, ControlHandle) {
    let (cmd_tx, cmd_rx) = unbounded();
    let (prog_tx, prog_rx) = unbounded();
    (
        Controller {
            commands: cmd_rx,
            progress: prog_tx,
        },
        ControlHandle {
            commands: cmd_tx,
            progress: prog_rx,
        },
    )
}

impl Controller {
    /// Emits a progress event (dropped if the handle is gone — a campaign
    /// must not die because its progress window closed).
    pub fn emit(&self, event: ProgressEvent) {
        let _ = self.progress.send(event);
    }

    /// The raw command receiver, for runners that multiplex commands with
    /// other channels (the parallel runner's writer thread `select!`s over
    /// commands and finished experiments).
    pub(crate) fn command_receiver(&self) -> &Receiver<Command> {
        &self.commands
    }

    /// Experiment-boundary checkpoint: applies pending commands. Blocks
    /// while paused.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Stopped`] if the operator ended the campaign.
    pub fn checkpoint(&self) -> Result<()> {
        let mut paused = false;
        loop {
            let cmd = if paused {
                // Blocking: nothing to do until the operator acts.
                // Handle dropped while paused: resume.
                self.commands.recv().ok()
            } else {
                match self.commands.try_recv() {
                    Ok(cmd) => Some(cmd),
                    Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
                }
            };
            match cmd {
                Some(Command::Stop) => return Err(GoofiError::Stopped),
                Some(Command::Pause) => {
                    if !paused {
                        paused = true;
                        self.emit(ProgressEvent::Paused);
                    }
                }
                Some(Command::Resume) => {
                    if paused {
                        paused = false;
                        self.emit(ProgressEvent::Resumed);
                    }
                }
                // No pending command while running, or the operator handle
                // vanished while paused: carry on with the campaign.
                None => return Ok(()),
            }
        }
    }
}

impl ControlHandle {
    /// Sends a command; `false` if the campaign already finished.
    pub fn send(&self, cmd: Command) -> bool {
        self.commands.send(cmd).is_ok()
    }

    /// Non-blocking poll for the next progress event.
    pub fn try_next(&self) -> Option<ProgressEvent> {
        self.progress.try_recv().ok()
    }

    /// Blocking wait for the next progress event; `None` once the campaign
    /// is gone.
    pub fn next(&self) -> Option<ProgressEvent> {
        self.progress.recv().ok()
    }

    /// Drains all pending events.
    pub fn drain(&self) -> Vec<ProgressEvent> {
        let mut out = Vec::new();
        while let Some(ev) = self.try_next() {
            out.push(ev);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn checkpoint_passes_when_idle() {
        let (ctl, _handle) = control_channel();
        assert!(ctl.checkpoint().is_ok());
    }

    #[test]
    fn stop_ends_campaign() {
        let (ctl, handle) = control_channel();
        handle.send(Command::Stop);
        assert!(matches!(ctl.checkpoint(), Err(GoofiError::Stopped)));
    }

    #[test]
    fn pause_blocks_until_resume() {
        let (ctl, handle) = control_channel();
        handle.send(Command::Pause);
        let worker = thread::spawn(move || {
            ctl.checkpoint().unwrap();
            ctl.emit(ProgressEvent::Finished {
                completed: 1,
                stopped: false,
            });
        });
        // Paused event appears; the worker must be blocked now.
        assert_eq!(handle.next(), Some(ProgressEvent::Paused));
        thread::sleep(Duration::from_millis(20));
        assert!(handle.try_next().is_none(), "worker is paused");
        handle.send(Command::Resume);
        assert_eq!(handle.next(), Some(ProgressEvent::Resumed));
        assert_eq!(
            handle.next(),
            Some(ProgressEvent::Finished {
                completed: 1,
                stopped: false
            })
        );
        worker.join().unwrap();
    }

    #[test]
    fn stop_while_paused_ends_campaign() {
        let (ctl, handle) = control_channel();
        handle.send(Command::Pause);
        handle.send(Command::Stop);
        assert!(matches!(ctl.checkpoint(), Err(GoofiError::Stopped)));
    }

    #[test]
    fn handle_dropped_while_paused_resumes() {
        let (ctl, handle) = control_channel();
        handle.send(Command::Pause);
        drop(handle);
        // Must not spin or deadlock: a vanished operator implies resume.
        assert!(ctl.checkpoint().is_ok());
    }

    #[test]
    fn emit_survives_dropped_handle() {
        let (ctl, handle) = control_channel();
        drop(handle);
        ctl.emit(ProgressEvent::Paused); // no panic
        assert!(ctl.checkpoint().is_ok());
    }

    #[test]
    fn drain_collects_everything() {
        let (ctl, handle) = control_channel();
        ctl.emit(ProgressEvent::Started {
            campaign: "c".into(),
            total: 2,
        });
        ctl.emit(ProgressEvent::ExperimentDone {
            completed: 1,
            total: 2,
            pruned: false,
        });
        assert_eq!(handle.drain().len(), 2);
        assert!(handle.drain().is_empty());
    }
}
