//! The length-prefixed frame stream `hbar serve` and its clients speak
//! over TCP (std-only; no async runtime, no external codec crates):
//!
//! ```text
//! [ tag: u8 ][ len: u32 LE ][ payload: len bytes ]
//! ```
//!
//! This module owns the framing and the two session-control tags; the
//! tune service's own tags and payload codecs are in [`crate::proto`].
//! A reader never trusts the length field: a claimed length above
//! [`MAX_FRAME_LEN`] is `InvalidData`, and the payload buffer grows
//! only with the bytes that actually arrive.

use std::io::{self, Read, Write};

/// Frame tag: stop the whole daemon (empty payload). A plain disconnect
/// only ends the current connection.
pub const FRAME_SHUTDOWN: u8 = 0x04;
/// Frame tag: graceful end-of-session (empty payload). A peer that is
/// done sending work emits this instead of dropping the socket; the
/// serving side finishes everything in flight, answers with its own
/// [`FRAME_DRAIN`], flushes, and only then closes the connection, so a
/// client can tell "clean end" from "peer crashed mid-conversation".
pub const FRAME_DRAIN: u8 = 0x05;

/// Upper bound on accepted payload length (guards against garbage length
/// prefixes).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Writes one `[tag][len][payload]` frame and flushes the writer.
pub fn write_frame(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    write_frame_buffered(w, tag, payload)?;
    w.flush()
}

/// [`write_frame`] without the trailing flush: for buffered writers
/// that batch many frames into one syscall. The caller owns the flush
/// policy (the serve hot path flushes once per drained request batch,
/// not once per response).
pub fn write_frame_buffered(w: &mut impl Write, tag: u8, payload: &[u8]) -> io::Result<()> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame payload of {} bytes exceeds cap", payload.len()),
        ));
    }
    w.write_all(&[tag])?;
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame, returning `(tag, payload)`.
///
/// Allocates a fresh payload vector per call; connection loops that
/// read many frames should use [`read_frame_into`] with one reusable
/// buffer instead.
pub fn read_frame(r: &mut impl Read) -> io::Result<(u8, Vec<u8>)> {
    let mut payload = Vec::new();
    let tag = read_frame_into(r, &mut payload)?;
    Ok((tag, payload))
}

/// Reads one frame into a caller-owned buffer (cleared and refilled),
/// returning the tag. The per-connection loops of `hbar serve` and its
/// client call this with one long-lived buffer, so steady-state frame
/// reads perform zero heap allocation once the buffer has grown to the
/// session's largest frame.
///
/// The buffer grows with the bytes that arrive, not with the length the
/// header claims: a peer that announces a large frame and then stalls or
/// hangs up pins no more memory than it sent. A stream that ends before
/// the claimed length is `UnexpectedEof`.
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<u8> {
    let mut head = [0u8; 5];
    r.read_exact(&mut head)?;
    let tag = head[0];
    let len = u32::from_le_bytes([head[1], head[2], head[3], head[4]]) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds cap"),
        ));
    }
    payload.clear();
    let got = r.take(len as u64).read_to_end(payload)?;
    if got < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame ended after {got} of {len} payload bytes"),
        ));
    }
    Ok(tag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reusable_buffer_roundtrip_and_drain() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 0x10, b"payload").unwrap();
        write_frame(&mut buf, FRAME_DRAIN, &[]).unwrap();
        write_frame(&mut buf, FRAME_SHUTDOWN, &[]).unwrap();
        let mut cursor = &buf[..];
        let mut payload = vec![0xAA; 3]; // stale content must be cleared
        assert_eq!(read_frame_into(&mut cursor, &mut payload).unwrap(), 0x10);
        assert_eq!(payload, b"payload");
        assert_eq!(
            read_frame_into(&mut cursor, &mut payload).unwrap(),
            FRAME_DRAIN
        );
        assert!(payload.is_empty());
        let (tag, payload) = read_frame(&mut cursor).unwrap();
        assert_eq!(tag, FRAME_SHUTDOWN);
        assert!(payload.is_empty());
        assert!(read_frame(&mut cursor).is_err(), "stream exhausted");
    }

    #[test]
    fn frame_rejects_oversized_lengths() {
        let mut buf = vec![0x10];
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn a_claimed_length_allocates_only_what_arrives() {
        let mut buf = vec![0x10];
        buf.extend_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
        buf.extend_from_slice(&[7; 16]);
        let mut payload = Vec::new();
        let err = read_frame_into(&mut &buf[..], &mut payload).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(payload.capacity() < 1 << 20, "{}", payload.capacity());
    }
}
