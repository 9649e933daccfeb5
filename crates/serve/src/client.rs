//! Client side of the tune service: a pipelining connection handle.
//!
//! [`TuneClient`] separates `send` from `recv` so a caller can keep a
//! window of requests in flight (the load generator and the perf
//! harness both do); `request` is the one-shot synchronous convenience.
//! All sends are buffered — nothing reaches the socket until the next
//! `recv`/`drain`/`stats` flushes, so a burst of pipelined requests
//! costs a handful of syscalls, not one per frame.

use crate::frame::{
    read_frame_into, write_frame, write_frame_buffered, FRAME_DRAIN, FRAME_SHUTDOWN,
};
use crate::proto::{
    decode_tune_error, ServeStats, TuneRequest, TuneResponse, FRAME_STATS_REQ, FRAME_STATS_RESP,
    FRAME_TUNE_ERR, FRAME_TUNE_REQ, FRAME_TUNE_RESP,
};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// One answer off the wire: success or a server-reported failure.
#[derive(Clone, Debug, PartialEq)]
pub enum TuneReply {
    /// A tuned schedule.
    Ok(TuneResponse),
    /// The server could not answer this request.
    Err {
        /// The request id the failure refers to.
        id: u64,
        /// Human-readable reason.
        reason: String,
    },
}

/// A pipelining client connection to `hbar serve`.
pub struct TuneClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    scratch: Vec<u8>,
    payload: Vec<u8>,
}

impl TuneClient {
    /// Connects to a serve endpoint.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TuneClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone()?;
        Ok(TuneClient {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            scratch: Vec::new(),
            payload: Vec::new(),
        })
    }

    /// Queues one request (buffered; flushed by the next receive).
    pub fn send(&mut self, req: &TuneRequest) -> io::Result<()> {
        req.encode_into(&mut self.scratch);
        write_frame_buffered(&mut self.writer, FRAME_TUNE_REQ, &self.scratch)
    }

    /// Receives the next tune answer, flushing queued requests first.
    pub fn recv(&mut self) -> io::Result<TuneReply> {
        self.writer.flush()?;
        let tag = read_frame_into(&mut self.reader, &mut self.payload)?;
        match tag {
            FRAME_TUNE_RESP => Ok(TuneReply::Ok(TuneResponse::decode(&self.payload)?)),
            FRAME_TUNE_ERR => {
                let (id, reason) = decode_tune_error(&self.payload)?;
                Ok(TuneReply::Err { id, reason })
            }
            other => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a tune answer, got frame tag {other:#x}"),
            )),
        }
    }

    /// Synchronous round trip; a server-side failure becomes an error.
    pub fn request(&mut self, req: &TuneRequest) -> io::Result<TuneResponse> {
        self.send(req)?;
        match self.recv()? {
            TuneReply::Ok(resp) => Ok(resp),
            TuneReply::Err { id, reason } => Err(io::Error::other(format!(
                "server failed request {id}: {reason}"
            ))),
        }
    }

    /// Fetches the server counters.
    pub fn stats(&mut self) -> io::Result<ServeStats> {
        write_frame_buffered(&mut self.writer, FRAME_STATS_REQ, &[])?;
        self.writer.flush()?;
        let tag = read_frame_into(&mut self.reader, &mut self.payload)?;
        if tag != FRAME_STATS_RESP {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected stats, got frame tag {tag:#x}"),
            ));
        }
        let text = std::str::from_utf8(&self.payload)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "stats are not UTF-8"))?;
        serde_json::from_str(text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("stats decode: {e}")))
    }

    /// Graceful end-of-session: asks the server to finish everything in
    /// flight on this connection and waits for its acknowledgement.
    pub fn drain(mut self) -> io::Result<()> {
        write_frame_buffered(&mut self.writer, FRAME_DRAIN, &[])?;
        self.writer.flush()?;
        let tag = read_frame_into(&mut self.reader, &mut self.payload)?;
        if tag == FRAME_DRAIN {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("expected a drain ack, got frame tag {tag:#x}"),
            ))
        }
    }
}

/// Stops a serve daemon (whole process, all connections).
pub fn shutdown_server(addr: impl ToSocketAddrs) -> io::Result<()> {
    let mut stream = TcpStream::connect(addr)?;
    write_frame(&mut stream, FRAME_SHUTDOWN, &[])
}
