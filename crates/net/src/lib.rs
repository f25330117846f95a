//! # goofi-net — the campaign-service wire protocol
//!
//! A vendored, offline-friendly binary protocol connecting GOOFI
//! clients, the `goofi-server` daemon and its worker processes. One
//! frame format serves all three:
//!
//! ```text
//! +------+---------+------+---------+---------+----------------+
//! | GFRM | version | kind |   len   |  crc32  | binary payload |
//! | 4 B  |  u16 LE | u8   | u32 LE  | u32 LE  |  len bytes     |
//! +------+---------+------+---------+---------+----------------+
//! ```
//!
//! * the magic pins the stream format; anything else is
//!   [`NetError::BadMagic`] immediately (a stray HTTP client, say);
//! * the header version lets the server reject a mismatched peer with a
//!   *typed* [`WireError::VersionMismatch`] response instead of a decode
//!   failure (the header is version-independent by construction);
//! * the CRC32 catches truncated or corrupted payloads before the
//!   payload decoder sees them — [`NetError::CorruptPayload`], never a
//!   panic;
//! * payloads are serde-encoded message enums: [`Request`]/[`Response`]
//!   between clients and the daemon (with [`Event`] frames streamed for
//!   `watch`), [`WorkerRequest`]/[`WorkerResponse`] between the daemon
//!   and its worker children over stdin/stdout pipes.
//!
//! The payload is the message's `serde` content tree, one tag byte per
//! node followed by its body (varints are unsigned LEB128):
//!
//! ```text
//! tag  node          body
//!  0   null          -
//!  1   false         -
//!  2   true          -
//!  3   signed int    zigzag varint
//!  4   unsigned int  varint (values above i64::MAX)
//!  5   float         8 bytes, IEEE-754 bits LE
//!  6   string        varint length, UTF-8
//!  7   sequence      varint count, nodes
//!  8   map           varint count, (varint length, UTF-8 key, node) pairs
//!  9   byte run      varint length, raw bytes
//! ```
//!
//! A sequence of integers that all lie in `0..=255` (an experiment's
//! state vector) is written as one byte run and decodes back to the same
//! sequence. Decoding hostile payloads yields [`NetError::Codec`]: every
//! length is checked against the bytes left before allocating, nesting
//! is capped at 128 containers, and unknown tags, invalid UTF-8 and
//! trailing bytes are errors.
//!
//! The message enums are `#[non_exhaustive]` and constitute the single
//! public protocol API: new message kinds are additive, and
//! [`PROTOCOL_VERSION`] is bumped only when existing encodings change.
//!
//! [`RemoteService`] implements `goofi-core`'s `CampaignService` trait
//! over this protocol, so the CLI drives a remote daemon through exactly
//! the code path it uses for local runs.

#![warn(missing_docs)]

mod client;
mod codec;
mod crc;
mod frame;
mod message;

pub use client::RemoteService;
pub use crc::crc32;
pub use frame::{
    read_frame, write_frame, Frame, FrameKind, NetError, NetResult, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
pub use message::{
    Event, IndexedRecord, JobListEntry, Request, Response, WireError, WorkerRequest, WorkerResponse,
};
