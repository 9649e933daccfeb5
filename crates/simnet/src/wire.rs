//! Framed wire protocol of the distributed profiling sweep.
//!
//! The driver ↔ worker conversation is a length-prefixed frame stream
//! over TCP (std-only; no async runtime, no external codec crates):
//!
//! ```text
//! [ tag: u8 ][ len: u32 LE ][ payload: len bytes ]
//! ```
//!
//! * [`FRAME_JOB`] — JSON-encoded [`JobHeader`] (machine, noise model,
//!   benchmark schedule). Sent once per connection, before any work. JSON
//!   because it is small, sent once, and debuggable with `nc`.
//! * [`FRAME_BATCH`] — a compact fixed-width binary batch of
//!   [`PairWorkDescriptor`]s (33 bytes each vs ~120 as JSON; at `P = 4096`
//!   singleton regimes ship millions of descriptors, so compactness is
//!   load-bearing, not cosmetic).
//! * [`FRAME_RESULT`] — binary batch of [`PairSample`]s (20 bytes each).
//! * [`FRAME_SHUTDOWN`] — empty payload; tells a worker process to exit
//!   its accept loop entirely (a plain disconnect only ends the current
//!   connection).
//!
//! Every decoder is total: corrupt tags, truncated payloads, and
//! oversized lengths return `InvalidData` errors instead of panicking, so
//! a confused peer can never take the driver down.

use crate::noise::NoiseModel;
use crate::profiling::ProfilingConfig;
use crate::sweep::{PairSample, PairWorkDescriptor, WorkKind};
use hbar_topo::machine::MachineSpec;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// Frame tag: JSON job header.
pub const FRAME_JOB: u8 = 0x01;
/// Frame tag: binary descriptor batch.
pub const FRAME_BATCH: u8 = 0x02;
/// Frame tag: binary result batch.
pub const FRAME_RESULT: u8 = 0x03;
/// Frame tag: worker shutdown request (empty payload).
pub const FRAME_SHUTDOWN: u8 = 0x04;
/// Frame tag: graceful end-of-session (empty payload). A peer that is
/// done sending work emits this instead of dropping the socket; the
/// serving side finishes everything in flight, answers with its own
/// [`FRAME_DRAIN`], flushes, and only then closes the connection. Both
/// `hbar profile-worker` and `hbar serve` speak it, so a driver/client
/// can distinguish "clean end" from "peer crashed mid-conversation".
pub const FRAME_DRAIN: u8 = 0x05;

/// Upper bound on accepted payload length (guards against garbage length
/// prefixes allocating unbounded memory).
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Bytes of one encoded descriptor.
pub const DESCRIPTOR_WIRE_LEN: usize = 33;
/// Bytes of one encoded sample.
pub const SAMPLE_WIRE_LEN: usize = 20;

/// Everything a worker needs to reproduce the driver's measurements:
/// sent once per connection, ahead of any descriptor batch.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JobHeader {
    /// The simulated machine measurements run on.
    pub machine: MachineSpec,
    /// The base noise model (descriptors carry pre-mixed sub-seeds; the
    /// model supplies the distribution parameters).
    pub noise: NoiseModel,
    /// The base benchmark schedule (descriptors scale it via
    /// `rep_scale`).
    pub profiling: ProfilingConfig,
}

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
/// returning the tag. The per-connection loops in `distrib` and
/// `hbar serve` call this with one long-lived buffer, so steady-state
/// frame reads perform zero heap allocation once the buffer has grown
/// to the session's largest frame.
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
    payload.resize(len, 0);
    r.read_exact(payload)?;
    Ok(tag)
}

/// Encodes the job header as a JSON frame payload.
pub fn encode_job(job: &JobHeader) -> io::Result<Vec<u8>> {
    serde_json::to_string(job)
        .map(String::into_bytes)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, format!("job encode: {e}")))
}

/// Decodes a JSON job-header payload.
pub fn decode_job(payload: &[u8]) -> io::Result<JobHeader> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("job utf-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("job decode: {e}")))
}

/// Encodes a descriptor batch into the compact fixed-width layout:
/// `id:u32 | kind:u8 | i:u32 | j:u32 | core_a:u32 | core_b:u32 |
/// sub_seed:u64 | rep_scale:u32`, all little-endian. The kind byte is
/// 0 `Pair`, 1 `Diag`, 2 `PingPong`, 3 `Burst`.
pub fn encode_batch(descriptors: &[PairWorkDescriptor]) -> Vec<u8> {
    let mut out = Vec::with_capacity(descriptors.len() * DESCRIPTOR_WIRE_LEN);
    encode_batch_into(descriptors, &mut out);
    out
}

/// [`encode_batch`] into a caller-owned buffer (cleared first), so a
/// feeder loop reuses one encode buffer across every batch it ships.
pub fn encode_batch_into(descriptors: &[PairWorkDescriptor], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(descriptors.len() * DESCRIPTOR_WIRE_LEN);
    for d in descriptors {
        out.extend_from_slice(&d.id.to_le_bytes());
        out.push(match d.kind {
            WorkKind::Pair => 0,
            WorkKind::Diag => 1,
            WorkKind::PingPong => 2,
            WorkKind::Burst => 3,
        });
        out.extend_from_slice(&d.i.to_le_bytes());
        out.extend_from_slice(&d.j.to_le_bytes());
        out.extend_from_slice(&d.core_a.to_le_bytes());
        out.extend_from_slice(&d.core_b.to_le_bytes());
        out.extend_from_slice(&d.sub_seed.to_le_bytes());
        out.extend_from_slice(&d.rep_scale.to_le_bytes());
    }
}

/// Decodes a descriptor batch.
pub fn decode_batch(payload: &[u8]) -> io::Result<Vec<PairWorkDescriptor>> {
    if !payload.len().is_multiple_of(DESCRIPTOR_WIRE_LEN) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "batch payload of {} bytes is not a multiple of {DESCRIPTOR_WIRE_LEN}",
                payload.len()
            ),
        ));
    }
    let mut out = Vec::with_capacity(payload.len() / DESCRIPTOR_WIRE_LEN);
    for rec in payload.chunks_exact(DESCRIPTOR_WIRE_LEN) {
        let u32_at = |o: usize| u32::from_le_bytes(rec[o..o + 4].try_into().expect("4 bytes"));
        let kind = match rec[4] {
            0 => WorkKind::Pair,
            1 => WorkKind::Diag,
            2 => WorkKind::PingPong,
            3 => WorkKind::Burst,
            other => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown work kind {other}"),
                ))
            }
        };
        out.push(PairWorkDescriptor {
            id: u32_at(0),
            kind,
            i: u32_at(5),
            j: u32_at(9),
            core_a: u32_at(13),
            core_b: u32_at(17),
            sub_seed: u64::from_le_bytes(rec[21..29].try_into().expect("8 bytes")),
            rep_scale: u32_at(29),
        });
    }
    Ok(out)
}

/// Encodes a result batch: `id:u32 | o:f64 | l:f64`, little-endian.
pub fn encode_results(samples: &[PairSample]) -> Vec<u8> {
    let mut out = Vec::with_capacity(samples.len() * SAMPLE_WIRE_LEN);
    encode_results_into(samples, &mut out);
    out
}

/// [`encode_results`] into a caller-owned buffer (cleared first); the
/// worker loop reuses one encode buffer across every answered batch.
pub fn encode_results_into(samples: &[PairSample], out: &mut Vec<u8>) {
    out.clear();
    out.reserve(samples.len() * SAMPLE_WIRE_LEN);
    for s in samples {
        out.extend_from_slice(&s.id.to_le_bytes());
        out.extend_from_slice(&s.o.to_le_bytes());
        out.extend_from_slice(&s.l.to_le_bytes());
    }
}

/// Decodes a result batch.
pub fn decode_results(payload: &[u8]) -> io::Result<Vec<PairSample>> {
    if !payload.len().is_multiple_of(SAMPLE_WIRE_LEN) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "result payload of {} bytes is not a multiple of {SAMPLE_WIRE_LEN}",
                payload.len()
            ),
        ));
    }
    let mut out = Vec::with_capacity(payload.len() / SAMPLE_WIRE_LEN);
    for rec in payload.chunks_exact(SAMPLE_WIRE_LEN) {
        out.push(PairSample {
            id: u32::from_le_bytes(rec[0..4].try_into().expect("4 bytes")),
            o: f64::from_le_bytes(rec[4..12].try_into().expect("8 bytes")),
            l: f64::from_le_bytes(rec[12..20].try_into().expect("8 bytes")),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_descriptors() -> Vec<PairWorkDescriptor> {
        vec![
            PairWorkDescriptor {
                id: 0,
                kind: WorkKind::Pair,
                i: 1,
                j: 4095,
                core_a: 8,
                core_b: 4094,
                sub_seed: u64::MAX,
                rep_scale: 1,
            },
            PairWorkDescriptor {
                id: u32::MAX,
                kind: WorkKind::Diag,
                i: 0,
                j: 1,
                core_a: 0,
                core_b: 1,
                sub_seed: 0,
                rep_scale: 16,
            },
            PairWorkDescriptor {
                id: 7,
                kind: WorkKind::PingPong,
                i: 2,
                j: 3,
                core_a: 2,
                core_b: 3,
                sub_seed: 0x5EED,
                rep_scale: 2,
            },
            PairWorkDescriptor {
                id: 8,
                kind: WorkKind::Burst,
                i: 3,
                j: 2,
                core_a: 3,
                core_b: 2,
                sub_seed: 0x5EED,
                rep_scale: 4,
            },
        ]
    }

    #[test]
    fn batch_binary_roundtrip() {
        let descs = sample_descriptors();
        let bytes = encode_batch(&descs);
        assert_eq!(bytes.len(), 4 * DESCRIPTOR_WIRE_LEN);
        let kind_bytes: Vec<u8> = bytes.chunks(DESCRIPTOR_WIRE_LEN).map(|r| r[4]).collect();
        assert_eq!(kind_bytes, [0, 1, 2, 3]);
        assert_eq!(decode_batch(&bytes).unwrap(), descs);
        assert!(decode_batch(&bytes[..DESCRIPTOR_WIRE_LEN - 1]).is_err());
        let mut corrupt = bytes;
        for byte in 4..=u8::MAX {
            corrupt[4] = byte; // invalid kind byte
            assert!(decode_batch(&corrupt).is_err(), "kind byte {byte}");
        }
    }

    #[test]
    fn results_binary_roundtrip() {
        let samples = vec![
            PairSample {
                id: 3,
                o: 2.625e-6,
                l: 1.0e-7,
            },
            PairSample {
                id: 0,
                o: f64::MIN_POSITIVE,
                l: 0.0,
            },
        ];
        let bytes = encode_results(&samples);
        let back = decode_results(&bytes).unwrap();
        assert_eq!(back.len(), 2);
        for (a, b) in back.iter().zip(&samples) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.o.to_bits(), b.o.to_bits());
            assert_eq!(a.l.to_bits(), b.l.to_bits());
        }
        assert!(decode_results(&bytes[..SAMPLE_WIRE_LEN + 3]).is_err());
    }

    #[test]
    fn frame_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_BATCH, &encode_batch(&sample_descriptors())).unwrap();
        write_frame(&mut buf, FRAME_SHUTDOWN, &[]).unwrap();
        let mut cursor = &buf[..];
        let (tag, payload) = read_frame(&mut cursor).unwrap();
        assert_eq!(tag, FRAME_BATCH);
        assert_eq!(decode_batch(&payload).unwrap(), sample_descriptors());
        let (tag, payload) = read_frame(&mut cursor).unwrap();
        assert_eq!(tag, FRAME_SHUTDOWN);
        assert!(payload.is_empty());
        assert!(read_frame(&mut cursor).is_err(), "stream exhausted");
    }

    #[test]
    fn reusable_buffer_roundtrip_and_drain() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FRAME_BATCH, &encode_batch(&sample_descriptors())).unwrap();
        write_frame(&mut buf, FRAME_DRAIN, &[]).unwrap();
        let mut cursor = &buf[..];
        let mut payload = vec![0xAA; 3]; // stale content must be cleared
        assert_eq!(
            read_frame_into(&mut cursor, &mut payload).unwrap(),
            FRAME_BATCH
        );
        assert_eq!(decode_batch(&payload).unwrap(), sample_descriptors());
        assert_eq!(
            read_frame_into(&mut cursor, &mut payload).unwrap(),
            FRAME_DRAIN
        );
        assert!(payload.is_empty());
    }

    #[test]
    fn into_encoders_match_allocating_encoders() {
        let descs = sample_descriptors();
        let mut buf = vec![1, 2, 3];
        encode_batch_into(&descs, &mut buf);
        assert_eq!(buf, encode_batch(&descs));
        let samples = vec![PairSample {
            id: 9,
            o: 1.5e-6,
            l: 2.5e-7,
        }];
        encode_results_into(&samples, &mut buf);
        assert_eq!(buf, encode_results(&samples));
    }

    #[test]
    fn frame_rejects_oversized_lengths() {
        let mut buf = vec![FRAME_BATCH];
        buf.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(read_frame(&mut &buf[..]).is_err());
    }

    #[test]
    fn job_header_json_roundtrip() {
        let job = JobHeader {
            machine: MachineSpec::dual_quad_cluster(2),
            noise: NoiseModel::realistic(42),
            profiling: ProfilingConfig::fast(),
        };
        let payload = encode_job(&job).unwrap();
        assert_eq!(decode_job(&payload).unwrap(), job);
        assert!(decode_job(b"{nonsense").is_err());
    }
}
