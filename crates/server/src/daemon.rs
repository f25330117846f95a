//! The TCP daemon: accepts connections on a loopback port and serves
//! any [`CampaignService`] over the wire protocol — one request per
//! connection, with `watch` holding its connection open to stream
//! events. A frame from a different protocol version is answered with a
//! typed [`WireError::VersionMismatch`], never a decode failure.

use goofi_core::service::CampaignService;
use goofi_core::{GoofiError, Result};
use goofi_net::{
    read_frame, write_frame, Event, JobListEntry, NetError, NetResult, Request, Response,
    WireError, PROTOCOL_VERSION,
};
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A campaign daemon bound to a TCP address.
pub struct Daemon<S: CampaignService + Send + 'static> {
    service: Arc<Mutex<S>>,
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
}

impl<S: CampaignService + Send + 'static> Daemon<S> {
    /// Binds to `addr` (e.g. `127.0.0.1:7077`, or `127.0.0.1:0` for an
    /// ephemeral port).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Service`] when the address cannot be bound.
    pub fn bind(addr: &str, service: S) -> Result<Daemon<S>> {
        let listener = TcpListener::bind(addr)
            .map_err(|e| GoofiError::Service(format!("cannot bind {addr}: {e}")))?;
        Ok(Daemon {
            service: Arc::new(Mutex::new(service)),
            listener,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves ephemeral ports).
    ///
    /// # Errors
    ///
    /// [`GoofiError::Service`] when the socket has no local address.
    pub fn local_addr(&self) -> Result<SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| GoofiError::Service(format!("no local address: {e}")))
    }

    /// A flag that stops [`Daemon::serve`] when set (besides the
    /// in-protocol [`Request::Shutdown`]).
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        self.shutdown.clone()
    }

    /// Serves connections until a [`Request::Shutdown`] arrives (or the
    /// shutdown flag is set). Each connection is handled on its own
    /// thread; `watch` connections stream until their job ends.
    ///
    /// # Errors
    ///
    /// [`GoofiError::Service`] on listener failures.
    pub fn serve(self) -> Result<()> {
        self.listener
            .set_nonblocking(true)
            .map_err(|e| GoofiError::Service(format!("listener setup: {e}")))?;
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !self.shutdown.load(Ordering::Relaxed) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nonblocking(false);
                    let service = self.service.clone();
                    let shutdown = self.shutdown.clone();
                    conns.push(std::thread::spawn(move || {
                        if let Err(e) = serve_connection(stream, &service, &shutdown) {
                            // Transport hiccups on one connection don't
                            // concern the daemon; note them and move on.
                            eprintln!("goofi-server: connection error: {e}");
                        }
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => {
                    return Err(GoofiError::Service(format!("accept failed: {e}")));
                }
            }
            conns.retain(|t| !t.is_finished());
        }
        for t in conns {
            let _ = t.join();
        }
        Ok(())
    }
}

fn respond(stream: &mut TcpStream, response: &Response) -> NetResult<()> {
    write_frame(stream, &response.to_frame()?)
}

/// Handles one connection: exactly one request, one response — plus the
/// event stream for `watch`.
fn serve_connection<S: CampaignService>(
    mut stream: TcpStream,
    service: &Arc<Mutex<S>>,
    shutdown: &Arc<AtomicBool>,
) -> NetResult<()> {
    let frame = match read_frame(&mut stream) {
        // Connecting and hanging up without a request is fine.
        Err(NetError::ClosedStream) => return Ok(()),
        other => other?,
    };
    // The envelope is version-independent, so a mismatched peer gets a
    // typed answer: a same-version peer decodes the error, an older one
    // reads this build's version off the response header.
    if frame.version != PROTOCOL_VERSION {
        return respond(
            &mut stream,
            &Response::Error {
                error: WireError::VersionMismatch {
                    got: frame.version,
                    want: PROTOCOL_VERSION,
                },
            },
        );
    }
    let request = match Request::from_frame(&frame) {
        Ok(req) => req,
        Err(e) => {
            return respond(
                &mut stream,
                &Response::Error {
                    error: WireError::Rejected {
                        message: format!("undecodable request: {e}"),
                    },
                },
            );
        }
    };
    let response = match request {
        Request::Hello { version } => {
            if version == PROTOCOL_VERSION {
                Response::Hello {
                    version: PROTOCOL_VERSION,
                }
            } else {
                Response::Error {
                    error: WireError::VersionMismatch {
                        got: version,
                        want: PROTOCOL_VERSION,
                    },
                }
            }
        }
        Request::Submit { spec } => match service.lock().unwrap().submit(spec) {
            Ok(job) => Response::Submitted { job },
            Err(e) => Response::Error {
                error: WireError::Rejected {
                    message: e.to_string(),
                },
            },
        },
        Request::Status { job } => match service.lock().unwrap().status(&job) {
            Ok(status) => Response::Status { job, status },
            Err(_) => Response::Error {
                error: WireError::NoSuchJob { job },
            },
        },
        Request::Watch { job, from_start } => {
            let events = service.lock().unwrap().watch(&job, from_start);
            match events {
                Ok(events) => {
                    respond(&mut stream, &Response::Watching { job })?;
                    for event in events {
                        write_frame(&mut stream, &Event::Service { event }.to_frame()?)?;
                    }
                    write_frame(&mut stream, &Event::EndOfStream.to_frame()?)?;
                    stream.flush().map_err(NetError::Io)?;
                    return Ok(());
                }
                Err(_) => Response::Error {
                    error: WireError::NoSuchJob { job },
                },
            }
        }
        Request::Cancel { job } => match service.lock().unwrap().cancel(&job) {
            Ok(delivered) => Response::Cancelled { job, delivered },
            Err(_) => Response::Error {
                error: WireError::NoSuchJob { job },
            },
        },
        Request::Jobs => match service.lock().unwrap().jobs() {
            Ok(jobs) => Response::Jobs {
                jobs: jobs
                    .into_iter()
                    .map(|(job, status)| JobListEntry { job, status })
                    .collect(),
            },
            Err(e) => Response::Error {
                error: WireError::Rejected {
                    message: e.to_string(),
                },
            },
        },
        Request::Shutdown => {
            shutdown.store(true, Ordering::Relaxed);
            Response::ShuttingDown
        }
        other => Response::Error {
            error: WireError::Rejected {
                message: format!("unsupported request {other:?}"),
            },
        },
    };
    respond(&mut stream, &response)
}
