//! The wire protocol of StreamApprox's distributed tier.
//!
//! §3.2 of the paper runs OASRS "in a distributed setting without the need
//! of synchronization": every worker samples its sub-streams locally and
//! only the *mergeable sampler state* crosses the network. This crate is
//! that network layer — a compact, versioned, hand-rolled binary protocol
//! with no dependencies beyond `std`:
//!
//! * [`Message`] — the protocol: workers join ([`Message::HelloJoin`]),
//!   the coordinator assigns each its shard and the run parameters (an
//!   [`Assignment`] in [`Message::HelloAssign`]), workers ship one
//!   [`Digest`] per closed pane ([`Message::PaneDigest`]) plus liveness
//!   [`Heartbeat`]s, and the coordinator optionally streams finalized
//!   windows back ([`Message::WindowResult`]).
//! * [`frame`] — length-prefixed framing over any `Read`/`Write` pair
//!   (in practice `std::net::TcpStream`): a 2-byte magic, a version byte
//!   and a 32-bit length, with the length bounded *before* any allocation
//!   so a hostile peer cannot OOM the receiver.
//!
//! Payload encoding is the [`sa_types::wire`] format shared with the
//! samplers and snapshots; everything decodes back bit-identical, which is
//! what lets a coordinator merge shipped digests exactly as if the worker
//! samplers were local (see the `streamapprox` crate's distributed tier).
//! The run's [`sa_types::SizingDirective`] and the finalized
//! [`sa_types::WindowResult`] cross the wire as themselves, through the
//! one codec each has in `sa-types`.
//!
//! Every decode path returns a typed [`sa_types::SaError`] — truncated
//! frames, wrong versions, unknown tags and invariant-violating payloads
//! are errors, never panics.
//!
//! # Example
//!
//! ```
//! use sa_net::{frame, Message};
//!
//! let msg = Message::HelloJoin { worker: 2, wants_results: true };
//! let mut pipe = Vec::new();
//! frame::write_message(&mut pipe, &msg).unwrap();
//! let mut reader = pipe.as_slice();
//! assert_eq!(frame::read_message(&mut reader).unwrap(), Some(msg));
//! // Clean end-of-stream at a frame boundary is `None`, not an error.
//! assert_eq!(frame::read_message(&mut reader).unwrap(), None);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod frame;
mod message;
pub mod snapshot;

pub use frame::{MAX_FRAME, WIRE_VERSION};
pub use message::{Assignment, Digest, DigestPayload, Heartbeat, Message};
pub use snapshot::{open_snapshot, seal_snapshot, MAX_SNAPSHOT, SNAPSHOT_VERSION};
