//! Length-prefixed framing over a byte stream.
//!
//! Every frame is a fixed 7-byte header followed by the payload:
//!
//! ```text
//! +----+----+---------+-------------------+===========+
//! | 'S'| 'A'| version |  length (u32 LE)  |  payload  |
//! +----+----+---------+-------------------+===========+
//! ```
//!
//! The header is validated *prefix-first*: a bad magic or unsupported
//! version is rejected after 2–3 bytes, and the length is bounded by
//! [`MAX_FRAME`] before a single payload byte is read or allocated — a
//! hostile peer sending `0xFFFF_FFFF` gets a typed error, not a 4 GiB
//! allocation. Payloads decode with the strict [`sa_types::wire`] reader,
//! so trailing garbage inside a frame is also an error.
//!
//! [`read_message`] / [`write_message`] are blocking helpers for
//! `std::net::TcpStream` (or any `Read`/`Write`). A clean EOF *between*
//! frames returns `Ok(None)`; an EOF *inside* a frame is a peer failure and
//! returns [`SaError::Disconnected`]. `read_message` accepts the header in
//! whatever fragments the transport delivers and checks each prefix as it
//! arrives.

use crate::message::Message;
use sa_types::{SaError, WireDecode, WireEncode};
use std::io::{ErrorKind, Read, Write};

/// The two magic bytes opening every frame.
pub const MAGIC: [u8; 2] = *b"SA";

/// The protocol version this build speaks.
///
/// Version 2: `HelloAssign` carries the heartbeat cadence, window results
/// carry degraded-merge accounting, and the rejoin/handoff messages
/// (`HelloRejoin`, `Reassign`, `SnapshotSlice`) exist.
///
/// Version 3: `HelloAssign`'s sizing directive uses the snapshot codec's
/// tag table (1 `Fraction`, 2 `PerStratum`, 3 `SharedTotal`,
/// 4 `Everything`; version 2 numbered them 0–3). Nothing else moved.
pub const WIRE_VERSION: u8 = 3;

/// Upper bound on a frame's payload length, checked before allocation.
///
/// 16 MiB comfortably fits any digest a sanely-sized reservoir produces
/// (a million sampled `f64`s is 8 MiB) while keeping a hostile length
/// prefix harmless.
pub const MAX_FRAME: usize = 16 << 20;

/// Bytes in the fixed frame header.
const HEADER_LEN: usize = 7;

/// Validates the fixed header fields available in `buf` so far.
///
/// Returns the payload length once all [`HEADER_LEN`] bytes are present,
/// `Ok(None)` while the prefix is valid but incomplete.
fn check_header(buf: &[u8]) -> Result<Option<usize>, SaError> {
    for (i, expect) in MAGIC.iter().enumerate() {
        match buf.get(i) {
            None => return Ok(None),
            Some(b) if b != expect => {
                return Err(SaError::Wire(format!(
                    "bad frame magic 0x{:02x}{:02x}",
                    buf[0],
                    buf.get(1).copied().unwrap_or(0)
                )));
            }
            Some(_) => {}
        }
    }
    match buf.get(2) {
        None => return Ok(None),
        Some(&v) if v != WIRE_VERSION => {
            return Err(SaError::Wire(format!(
                "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
            )));
        }
        Some(_) => {}
    }
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let len = u32::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]) as usize;
    if len > MAX_FRAME {
        return Err(SaError::Wire(format!(
            "frame length {len} exceeds maximum {MAX_FRAME}"
        )));
    }
    Ok(Some(len))
}

/// Frames a payload: header plus bytes, ready to write.
fn frame_bytes(payload: &[u8]) -> Result<Vec<u8>, SaError> {
    if payload.len() > MAX_FRAME {
        return Err(SaError::Wire(format!(
            "refusing to send {}-byte frame over maximum {MAX_FRAME}",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// Encodes and writes one message as a single frame.
pub fn write_message<W: Write>(w: &mut W, msg: &Message) -> Result<(), SaError> {
    let framed = frame_bytes(&msg.to_wire_bytes())?;
    w.write_all(&framed)
        .and_then(|()| w.flush())
        .map_err(|e| SaError::Wire(format!("send failed: {e}")))
}

/// Reads one framed message, blocking until a full frame arrives.
///
/// Returns `Ok(None)` on a clean end-of-stream at a frame boundary. An
/// end-of-stream in the middle of a frame — the peer died or was cut off —
/// is [`SaError::Disconnected`].
pub fn read_message<R: Read>(r: &mut R) -> Result<Option<Message>, SaError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(SaError::Disconnected("peer closed mid-frame")),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(SaError::Wire(format!("receive failed: {e}"))),
        }
        // Reject bad magic/version as soon as the prefix shows it, instead
        // of stalling for a length that may never come.
        check_header(&header[..got])?;
    }
    let len = check_header(&header)?.expect("full header was read");
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| match e.kind() {
        ErrorKind::UnexpectedEof => SaError::Disconnected("peer closed mid-frame"),
        _ => SaError::Wire(format!("receive failed: {e}")),
    })?;
    Message::from_wire_bytes(&payload).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Heartbeat;

    fn shutdown_frame() -> Vec<u8> {
        let mut wire = Vec::new();
        write_message(&mut wire, &Message::Shutdown { worker: 3 }).unwrap();
        wire
    }

    /// A transport that delivers one byte per `read`, the most fragmented
    /// arrival a socket can produce, and counts the reads it served.
    struct OneByte<'a> {
        bytes: &'a [u8],
        reads: usize,
    }

    impl<'a> OneByte<'a> {
        fn new(bytes: &'a [u8]) -> Self {
            OneByte { bytes, reads: 0 }
        }
    }

    impl Read for OneByte<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match (self.bytes.split_first(), buf.first_mut()) {
                (Some((&first, rest)), Some(slot)) => {
                    *slot = first;
                    self.bytes = rest;
                    self.reads += 1;
                    Ok(1)
                }
                _ => Ok(0),
            }
        }
    }

    #[test]
    fn roundtrip_two_messages_then_clean_eof() {
        let mut wire = Vec::new();
        let a = Message::HelloJoin {
            worker: 0,
            wants_results: false,
        };
        let b = Message::Shutdown { worker: 0 };
        write_message(&mut wire, &a).unwrap();
        write_message(&mut wire, &b).unwrap();
        let mut r = wire.as_slice();
        assert_eq!(read_message(&mut r).unwrap(), Some(a));
        assert_eq!(read_message(&mut r).unwrap(), Some(b));
        assert_eq!(read_message(&mut r).unwrap(), None);
    }

    #[test]
    fn eof_mid_frame_is_disconnected_not_a_hang() {
        let wire = shutdown_frame();
        // Cut inside the header and inside the payload.
        for cut in 1..wire.len() {
            let mut r = &wire[..cut];
            match read_message(&mut r) {
                Err(SaError::Disconnected(_)) | Err(SaError::Wire(_)) => {}
                other => panic!("cut at {cut}: unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn bad_magic_rejected_immediately() {
        let mut wire = shutdown_frame();
        wire[0] = b'X';
        let mut r = wire.as_slice();
        assert!(matches!(read_message(&mut r), Err(SaError::Wire(_))));
        // Byte by byte, the first byte is enough to refuse the frame.
        let mut r = OneByte::new(&wire);
        assert!(matches!(read_message(&mut r), Err(SaError::Wire(_))));
        assert_eq!(r.reads, 1);
    }

    #[test]
    fn wrong_version_rejected() {
        let mut wire = shutdown_frame();
        wire[2] = 99;
        let mut r = wire.as_slice();
        match read_message(&mut r) {
            Err(SaError::Wire(why)) => assert!(why.contains("version 99"), "{why}"),
            other => panic!("unexpected {other:?}"),
        }
        // Byte by byte, the version byte is the last one read.
        let mut r = OneByte::new(&wire);
        assert!(matches!(read_message(&mut r), Err(SaError::Wire(_))));
        assert_eq!(r.reads, 3);
    }

    #[test]
    fn hostile_length_prefix_rejected_before_allocation() {
        let mut wire = Vec::from(MAGIC);
        wire.push(WIRE_VERSION);
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = wire.as_slice();
        match read_message(&mut r) {
            Err(SaError::Wire(why)) => assert!(why.contains("exceeds maximum"), "{why}"),
            other => panic!("unexpected {other:?}"),
        }
        // Byte by byte, refused once the header is complete.
        let mut r = OneByte::new(&wire);
        assert!(matches!(read_message(&mut r), Err(SaError::Wire(_))));
        assert_eq!(r.reads, HEADER_LEN);
    }

    #[test]
    fn oversized_send_refused() {
        // A payload over MAX_FRAME must be refused on the sending side too;
        // frame_bytes is the chokepoint.
        assert!(frame_bytes(&[0u8; MAX_FRAME]).is_ok());
        assert!(frame_bytes(vec![0u8; MAX_FRAME + 1].as_slice()).is_err());
    }

    #[test]
    fn frame_with_trailing_payload_garbage_rejected() {
        let msg = Message::Shutdown { worker: 1 };
        let mut payload = msg.to_wire_bytes();
        payload.push(0xEE);
        let wire = frame_bytes(&payload).unwrap();
        let mut r = wire.as_slice();
        assert!(matches!(read_message(&mut r), Err(SaError::Wire(_))));
    }

    #[test]
    fn read_message_reassembles_one_byte_reads() {
        let mut wire = Vec::new();
        let msgs = [
            Message::HelloJoin {
                worker: 1,
                wants_results: true,
            },
            Message::Heartbeat(Heartbeat {
                worker: 1,
                ingest: Default::default(),
                watermark: None,
                lag: 5,
                last_checkpoint_pane: None,
                items_since_checkpoint: 0,
                snapshot_bytes: 0,
            }),
            Message::Shutdown { worker: 1 },
        ];
        for m in &msgs {
            write_message(&mut wire, m).unwrap();
        }
        let mut r = OneByte::new(&wire);
        let mut decoded = Vec::new();
        while let Some(m) = read_message(&mut r).unwrap() {
            decoded.push(m);
        }
        assert_eq!(decoded.as_slice(), msgs.as_slice());
        assert_eq!(r.reads, wire.len());
    }
}
