//! Property-based fuzzing of the wire protocol: every message kind
//! round-trips through its frame encoding, and hostile bytes (truncated,
//! corrupted, or random) always produce typed [`NetError`]s — never a
//! panic, never a silent wrong decode.

use goofi_core::service::{
    CampaignRef, ClassSavings, ExecOptions, JobSpec, JobStatus, JobSummary, ServiceEvent,
};
use goofi_core::store::{ExperimentData, ExperimentRecord};
use goofi_core::{Campaign, LocationSelector, TargetEvent};
use goofi_net::{
    read_frame, Event, Frame, FrameKind, IndexedRecord, JobListEntry, NetError, Request, Response,
    WireError, WorkerRequest, WorkerResponse, PROTOCOL_VERSION,
};
use proptest::prelude::*;

fn arb_name() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_-]{0,14}"
}

fn arb_campaign() -> impl Strategy<Value = Campaign> {
    (
        (arb_name(), arb_name(), arb_name()),
        (1usize..500, any::<u64>(), 0u64..50, 1u64..100),
    )
        .prop_map(
            |((name, target, workload), (experiments, seed, start, span))| {
                Campaign::builder(name, target, workload)
                    .select(LocationSelector::Chain {
                        chain: "cpu".into(),
                        field: None,
                    })
                    .window(start, start + span)
                    .experiments(experiments)
                    .seed(seed)
                    .build()
                    .expect("valid campaign")
            },
        )
}

fn arb_options() -> impl Strategy<Value = ExecOptions> {
    (1usize..8, any::<bool>(), any::<bool>()).prop_map(|(workers, checkpoint, class)| {
        ExecOptions::default()
            .workers(workers)
            .checkpoint(checkpoint)
            .class_execution(class)
    })
}

fn arb_spec() -> impl Strategy<Value = JobSpec> {
    (
        prop_oneof![
            arb_name().prop_map(CampaignRef::Name),
            arb_campaign().prop_map(CampaignRef::Inline),
        ],
        arb_options(),
        any::<bool>(),
    )
        .prop_map(|(campaign, options, resume)| {
            JobSpec::new(campaign).options(options).resume(resume)
        })
}

fn arb_record() -> impl Strategy<Value = ExperimentRecord> {
    (
        arb_name(),
        arb_name(),
        prop::collection::vec(any::<u32>(), 0..4),
        prop::collection::vec(any::<u8>(), 0..16),
        any::<u32>(),
        any::<u64>(),
    )
        .prop_map(
            |(name, campaign, outputs, state_vector, iterations, instructions)| ExperimentRecord {
                name,
                parent: None,
                campaign,
                data: ExperimentData {
                    fault: None,
                    termination: TargetEvent::Halted,
                    outputs,
                    iterations,
                    instructions,
                    detail_trace: None,
                },
                state_vector,
            },
        )
}

fn arb_status() -> impl Strategy<Value = JobStatus> {
    prop_oneof![
        Just(JobStatus::Queued),
        (0usize..100, 100usize..200)
            .prop_map(|(completed, total)| JobStatus::Running { completed, total }),
        arb_name().prop_map(|error| JobStatus::Failed { error }),
        (0usize..100).prop_map(|completed| JobStatus::Cancelled { completed }),
        (arb_name(), 1usize..50, 0usize..10).prop_map(|(campaign, experiments, pruned)| {
            let mut summary = JobSummary::new(campaign, 2);
            summary.experiments = experiments;
            summary.pruned = pruned;
            summary.class_savings = Some(ClassSavings {
                representatives: 3,
                fanned: 9,
            });
            JobStatus::Done {
                summary: Box::new(summary),
            }
        }),
    ]
}

fn arb_service_event() -> impl Strategy<Value = ServiceEvent> {
    prop_oneof![
        (arb_name(), arb_name()).prop_map(|(job, campaign)| ServiceEvent::Queued { job, campaign }),
        (arb_name(), 1usize..500)
            .prop_map(|(campaign, total)| ServiceEvent::Started { campaign, total }),
        (0usize..500, 1usize..500, any::<bool>()).prop_map(|(completed, total, pruned)| {
            ServiceEvent::Progress {
                completed,
                total,
                pruned,
            }
        }),
        Just(ServiceEvent::Paused),
        Just(ServiceEvent::Resumed),
        (0usize..8, any::<u32>())
            .prop_map(|(worker, pid)| ServiceEvent::WorkerSpawned { worker, pid }),
        (0usize..8, 0usize..64)
            .prop_map(|(worker, reissued)| ServiceEvent::WorkerLost { worker, reissued }),
        (0usize..500, any::<bool>())
            .prop_map(|(completed, stopped)| ServiceEvent::Finished { completed, stopped }),
        arb_name().prop_map(|error| ServiceEvent::Failed { error }),
    ]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        any::<u16>().prop_map(|version| Request::Hello { version }),
        arb_spec().prop_map(|spec| Request::Submit { spec }),
        arb_name().prop_map(|job| Request::Status { job }),
        (arb_name(), any::<bool>())
            .prop_map(|(job, from_start)| Request::Watch { job, from_start }),
        arb_name().prop_map(|job| Request::Cancel { job }),
        Just(Request::Jobs),
        Just(Request::Shutdown),
    ]
}

fn arb_wire_error() -> impl Strategy<Value = WireError> {
    prop_oneof![
        (any::<u16>(), any::<u16>())
            .prop_map(|(got, want)| WireError::VersionMismatch { got, want }),
        arb_name().prop_map(|job| WireError::NoSuchJob { job }),
        arb_name().prop_map(|message| WireError::Rejected { message }),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        any::<u16>().prop_map(|version| Response::Hello { version }),
        arb_name().prop_map(|job| Response::Submitted { job }),
        (arb_name(), arb_status()).prop_map(|(job, status)| Response::Status { job, status }),
        arb_name().prop_map(|job| Response::Watching { job }),
        (arb_name(), any::<bool>())
            .prop_map(|(job, delivered)| Response::Cancelled { job, delivered }),
        prop::collection::vec((arb_name(), arb_status()), 0..4).prop_map(|rows| Response::Jobs {
            jobs: rows
                .into_iter()
                .map(|(job, status)| JobListEntry { job, status })
                .collect(),
        }),
        Just(Response::ShuttingDown),
        arb_wire_error().prop_map(|error| Response::Error { error }),
    ]
}

fn arb_event() -> impl Strategy<Value = Event> {
    prop_oneof![
        arb_service_event().prop_map(|event| Event::Service { event }),
        Just(Event::EndOfStream),
    ]
}

fn arb_worker_request() -> impl Strategy<Value = WorkerRequest> {
    prop_oneof![
        (arb_campaign(), arb_options())
            .prop_map(|(campaign, options)| WorkerRequest::Init { campaign, options }),
        (any::<u64>(), prop::collection::vec(0usize..1000, 0..32))
            .prop_map(|(id, indices)| WorkerRequest::RunChunk { id, indices }),
        Just(WorkerRequest::Shutdown),
    ]
}

fn arb_worker_response() -> impl Strategy<Value = WorkerResponse> {
    prop_oneof![
        (any::<u32>(), 1usize..500, arb_record(),).prop_map(|(pid, experiments, reference)| {
            WorkerResponse::Ready {
                pid,
                experiments,
                reference: Box::new(reference),
            }
        }),
        (
            any::<u64>(),
            prop::collection::vec((0usize..1000, arb_record()), 0..4)
        )
            .prop_map(|(id, rows)| WorkerResponse::ChunkDone {
                id,
                rows: rows
                    .into_iter()
                    .map(|(index, record)| IndexedRecord { index, record })
                    .collect(),
            }),
        arb_name().prop_map(|error| WorkerResponse::Failed { error }),
    ]
}

/// Round-trips a message through its frame encoding and the full binary
/// wire encoding, checking every layer reproduces the original.
macro_rules! check_roundtrip {
    ($msg:expr, $ty:ty) => {{
        let msg = $msg;
        let frame = msg.to_frame().expect("encodes");
        prop_assert_eq!(frame.version, PROTOCOL_VERSION);
        // Frame -> message.
        let back = <$ty>::from_frame(&frame).expect("frame decodes");
        prop_assert_eq!(&back, &msg);
        // Bytes -> frame -> message.
        let bytes = frame.encode();
        let (decoded, used) = Frame::decode(&bytes).expect("bytes decode");
        prop_assert_eq!(used, bytes.len());
        let back = <$ty>::from_frame(&decoded).expect("decoded frame decodes");
        prop_assert_eq!(&back, &msg);
        // Stream -> frame -> message.
        let mut cursor = &bytes[..];
        let streamed = read_frame(&mut cursor).expect("stream decodes");
        let back = <$ty>::from_frame(&streamed).expect("streamed frame decodes");
        prop_assert_eq!(&back, &msg);
        bytes
    }};
}

/// Wraps `payload` in a current-version frame with a correct CRC and
/// decodes it as each of the five message kinds. Past the envelope checks
/// the only acceptable failure is a typed codec error; returns the first
/// other outcome, described.
fn decode_as_every_kind(payload: &[u8]) -> Result<(), String> {
    fn check<T: std::fmt::Debug>(
        kind: FrameKind,
        payload: &[u8],
        decode: fn(&Frame) -> Result<T, NetError>,
    ) -> Result<(), String> {
        let bytes = Frame::new(kind, payload.to_vec()).encode();
        let (frame, _) = Frame::decode(&bytes).map_err(|e| format!("envelope: {e:?}"))?;
        match decode(&frame) {
            Ok(_) | Err(NetError::Codec(_)) => Ok(()),
            Err(other) => Err(format!("{kind:?} payload {payload:?}: {other:?}")),
        }
    }
    check(FrameKind::Request, payload, Request::from_frame)?;
    check(FrameKind::Response, payload, Response::from_frame)?;
    check(FrameKind::Event, payload, Event::from_frame)?;
    check(FrameKind::WorkerRequest, payload, WorkerRequest::from_frame)?;
    check(
        FrameKind::WorkerResponse,
        payload,
        WorkerResponse::from_frame,
    )
}

proptest! {
    #[test]
    fn request_roundtrip(msg in arb_request()) {
        check_roundtrip!(msg, Request);
    }

    #[test]
    fn response_roundtrip(msg in arb_response()) {
        check_roundtrip!(msg, Response);
    }

    #[test]
    fn event_roundtrip(msg in arb_event()) {
        check_roundtrip!(msg, Event);
    }

    #[test]
    fn worker_request_roundtrip(msg in arb_worker_request()) {
        check_roundtrip!(msg, WorkerRequest);
    }

    #[test]
    fn worker_response_roundtrip(msg in arb_worker_response()) {
        check_roundtrip!(msg, WorkerResponse);
    }

    /// Every prefix of a valid encoding fails with `Truncated` (buffer
    /// decode) or `Truncated`/`ClosedStream` (stream decode) — and never
    /// panics or yields a frame.
    #[test]
    fn truncation_yields_typed_errors(msg in arb_request(), frac in 0usize..1000) {
        let bytes = msg.to_frame().expect("encodes").encode();
        let cut = bytes.len() * frac / 1000;
        prop_assert!(cut < bytes.len());
        match Frame::decode(&bytes[..cut]) {
            Err(NetError::Truncated { wanted, got }) => {
                prop_assert_eq!(got, cut);
                prop_assert!(wanted > cut);
            }
            other => prop_assert!(false, "cut at {}: {:?}", cut, other),
        }
        let mut cursor = &bytes[..cut];
        match read_frame(&mut cursor) {
            Err(NetError::Truncated { .. }) => {}
            Err(NetError::ClosedStream) => prop_assert_eq!(cut, 0),
            other => prop_assert!(false, "stream cut at {}: {:?}", cut, other),
        }
    }

    /// Any single corrupted byte in a valid encoding is caught by one of
    /// the typed checks — the original message never decodes silently.
    #[test]
    fn corruption_yields_typed_errors(msg in arb_response(), pos_frac in 0usize..1000, flip in 1u8..=255) {
        let bytes = msg.to_frame().expect("encodes").encode();
        let pos = bytes.len() * pos_frac / 1000;
        let mut bad = bytes.clone();
        bad[pos] ^= flip;
        let outcome = Frame::decode(&bad).and_then(|(frame, _)| Response::from_frame(&frame));
        match outcome {
            Err(
                NetError::BadMagic(_)
                | NetError::VersionMismatch { .. }
                | NetError::BadKind(_)
                | NetError::Truncated { .. }
                | NetError::CorruptPayload { .. }
                | NetError::TooLarge { .. }
                | NetError::WrongKind { .. }
                | NetError::Codec(_),
            ) => {}
            Err(other) => prop_assert!(false, "untyped error at {}: {:?}", pos, other),
            Ok(back) => prop_assert!(false, "corrupt byte at {} decoded silently: {:?}", pos, back),
        }
    }

    /// Arbitrary payload bytes behind a valid envelope reach the payload
    /// codec and come back `Ok` or [`NetError::Codec`] for every message
    /// kind. Bytes drawn from `0..12` are mostly valid tags and small
    /// counts, so they build nested trees instead of failing on the
    /// first tag.
    #[test]
    fn crafted_payloads_yield_typed_errors(
        payload in prop_oneof![
            prop::collection::vec(any::<u8>(), 0..256),
            prop::collection::vec(0u8..12, 0..256),
        ]
    ) {
        if let Err(e) = decode_as_every_kind(&payload) {
            prop_assert!(false, "{}", e);
        }
    }

    /// A valid payload with one byte changed or the tail cut off, behind
    /// a recomputed CRC, still decodes to `Ok` or [`NetError::Codec`].
    #[test]
    fn mutated_payloads_yield_typed_errors(
        msg in arb_worker_response(),
        pos_frac in 0usize..1000,
        flip in 0u8..=255,
    ) {
        let payload = msg.to_frame().expect("encodes").payload;
        let pos = payload.len() * pos_frac / 1000;
        let mut changed = payload.clone();
        changed[pos] ^= flip;
        for bad in [&changed[..], &payload[..pos]] {
            if let Err(e) = decode_as_every_kind(bad) {
                prop_assert!(false, "{}", e);
            }
        }
    }

    /// Random garbage never panics the decoder: it either fails with a
    /// typed error or (astronomically unlikely) parses as a real frame.
    #[test]
    fn random_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..128)) {
        let _ = Frame::decode(&bytes);
        let mut cursor = &bytes[..];
        let _ = read_frame(&mut cursor);
    }
}
