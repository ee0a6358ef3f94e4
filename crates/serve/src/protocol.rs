//! The wire protocol: length-prefixed frames over a byte stream.
//!
//! Every message — request or response — travels as one frame, and there
//! is one frame layout:
//!
//! ```text
//! frame            := len:u32le payload          (len = payload bytes, ≤ MAX_FRAME)
//!
//! request payload  := version:u8 opcode:u8 corr:varint body
//! response payload := corr:varint status:u8 opcode:u8 body   (status 0 = ok)
//!                   | corr:varint status:u8 message:str      (status 1 = error)
//! ```
//!
//! Every request carries a **correlation id** and every response echoes
//! the id of the request it answers, so a client may keep several
//! requests in flight on one connection and the server may answer them
//! in *completion* order. Id 0 is reserved for errors the server cannot
//! attribute to a request (an undecodable frame, a busy reject). How
//! many requests may be in flight is the connection's *window*: 1 on a
//! fresh connection, raised by a [`Request::Hello`] exchange in which
//! the client names the window it wants and the server acks what it
//! grants. A client content with window 1 never sends `Hello` and pays
//! no extra round trip.
//!
//! Bodies reuse the store's checked wire substrate
//! ([`ByteWriter`]/[`ByteReader`]: little-endian integers, LEB128
//! varints, length-prefixed strings), so a truncated or hostile frame
//! decodes to a [`DecodeError`], never a panic. The version byte leads
//! every request so a server can reject a peer speaking another
//! protocol generation with a typed `protocol version mismatch` error
//! frame instead of a mis-parse; the opcode echo in every ok response
//! lets a client detect a desynchronised stream.
//!
//! Frames larger than [`MAX_FRAME`] are a protocol violation: the
//! receiver cannot resynchronise past an untrusted length prefix, so the
//! connection is closed after an error frame — the *server* stays up
//! (see `server`), only the offending connection dies.

use std::io::{self, Read, Write};

use bolt_obs::{HistogramSnapshot, Snapshot, HIST_BUCKETS};
use bolt_store::{ByteReader, ByteWriter, DecodeError};

/// The frame version: the byte that leads every request. (Version 1,
/// the un-correlated frame, is retired; a peer that still sends it gets
/// a `protocol version mismatch` error frame.)
pub(crate) const PROTOCOL_VERSION: u8 = 2;

/// Hard ceiling a server places on the negotiated pipeline window,
/// whatever the client asks for. Bounds per-connection buffering: at
/// most this many requests are admitted in flight per connection.
pub const MAX_PIPELINE_DEPTH: u32 = 64;

/// Hard ceiling on one frame's payload (16 MiB). Rendered replies are
/// kilobytes; anything near this bound is garbage or an attack, and a
/// length prefix beyond it poisons stream sync, so the connection is
/// dropped rather than resynchronised.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// Request/response opcodes (the second byte of every payload).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub(crate) enum Opcode {
    /// Liveness + version handshake.
    Ping = 1,
    /// A contract performance query (class, metric, PCV binding).
    Query = 2,
    /// Compare two stored contracts.
    Diff = 3,
    /// Enumerate the store (header pass only — no payload decodes).
    List = 4,
    /// Where a record came from: key, on-disk state, cache state.
    Provenance = 5,
    // Opcodes are wire values, so 6 (a retired counter request) stays
    // unassigned and decodes as an unknown opcode.
    /// Graceful shutdown: stop accepting, drain in-flight, exit.
    Shutdown = 7,
    /// Full observability snapshot: every counter, gauge, and latency
    /// histogram in the server's registry.
    Metrics = 8,
    /// Window negotiation (see [`Request::Hello`]).
    Hello = 9,
}

impl Opcode {
    fn from_u8(v: u8) -> Result<Self, DecodeError> {
        Opcode::ALL
            .into_iter()
            .find(|&op| op as u8 == v)
            .ok_or(DecodeError::Malformed("unknown opcode"))
    }

    /// Every opcode, in wire order.
    pub(crate) const ALL: [Opcode; 8] = [
        Opcode::Ping,
        Opcode::Query,
        Opcode::Diff,
        Opcode::List,
        Opcode::Provenance,
        Opcode::Shutdown,
        Opcode::Metrics,
        Opcode::Hello,
    ];

    /// Position in [`Opcode::ALL`].
    pub(crate) fn index(self) -> usize {
        Opcode::ALL
            .iter()
            .position(|&op| op == self)
            .expect("ALL lists every opcode")
    }

    /// Lower-case wire name — the `serve.req.<name>` histogram suffix.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Opcode::Ping => "ping",
            Opcode::Query => "query",
            Opcode::Diff => "diff",
            Opcode::List => "list",
            Opcode::Provenance => "provenance",
            Opcode::Shutdown => "shutdown",
            Opcode::Metrics => "metrics",
            Opcode::Hello => "hello",
        }
    }
}

/// One contract query: which NF at which stack level, the input class
/// (an optional path tag), the metric, and the PCV binding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryRequest {
    /// NF name (the server's dispatch vocabulary, e.g. `bridge`).
    pub nf: String,
    /// Stack-level tag (`bolt_core::store::level_tag`).
    pub level: u8,
    /// Metric index (`bolt_trace::Metric::index`).
    pub metric: u8,
    /// Restrict the class to paths carrying this tag (`None` = any
    /// packet).
    pub tag: Option<String>,
    /// PCV bindings by name; unbound PCVs evaluate as 0.
    pub pcvs: Vec<(String, u64)>,
}

/// Compare two stored contracts. Sides travel as the raw `NF[:LEVEL]`
/// spec the user typed (parsed server-side), because the rendered diff
/// echoes them verbatim — keeping remote output byte-identical to a
/// local `bolt_cli diff`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DiffRequest {
    /// Left side, `NF[:LEVEL]` (level defaults to full-stack).
    pub a: String,
    /// Right side, `NF[:LEVEL]`.
    pub b: String,
    /// Metric index for the worst-case comparison.
    pub metric: u8,
}

/// A decoded request frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Liveness + version handshake.
    Ping,
    /// A contract performance query.
    Query(QueryRequest),
    /// Compare two stored contracts.
    Diff(DiffRequest),
    /// Enumerate the store.
    List,
    /// Record provenance for one (NF, level).
    Provenance {
        /// NF name.
        nf: String,
        /// Stack-level tag.
        level: u8,
    },
    /// Graceful shutdown.
    Shutdown,
    /// Full observability snapshot.
    Metrics,
    /// Window negotiation: the client names the pipeline window it
    /// wants; the server acks with what it grants and both sides latch.
    Hello {
        /// The pipeline window the client wants (in-flight request cap).
        depth: u32,
    },
}

impl Request {
    /// The request's opcode.
    pub(crate) fn opcode(&self) -> Opcode {
        match self {
            Request::Ping => Opcode::Ping,
            Request::Query(_) => Opcode::Query,
            Request::Diff(_) => Opcode::Diff,
            Request::List => Opcode::List,
            Request::Provenance { .. } => Opcode::Provenance,
            Request::Shutdown => Opcode::Shutdown,
            Request::Metrics => Opcode::Metrics,
            Request::Hello { .. } => Opcode::Hello,
        }
    }

    /// Whether re-sending this request after a transport failure is
    /// safe: everything but [`Request::Shutdown`] (a retry after a
    /// restart would kill the new instance). No other request writes an
    /// artifact — `query` and `diff` may fill the store on a miss, which
    /// a retry finds already filled — and [`Request::Hello`] is
    /// connection-scoped state, so re-negotiating after a re-dial is
    /// safe by construction.
    pub fn is_idempotent(&self) -> bool {
        !matches!(self, Request::Shutdown)
    }

    /// Encode to one frame payload: version byte, opcode, the request's
    /// correlation id, body. The server echoes `corr` on the matching
    /// response so replies may arrive in completion order.
    pub fn encode_v2(&self, corr: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.u8(PROTOCOL_VERSION);
        w.u8(self.opcode() as u8);
        w.varint(corr);
        match self {
            Request::Ping | Request::List | Request::Shutdown | Request::Metrics => {}
            Request::Query(q) => {
                w.str(&q.nf);
                w.u8(q.level);
                w.u8(q.metric);
                match &q.tag {
                    Some(t) => {
                        w.bool(true);
                        w.str(t);
                    }
                    None => w.bool(false),
                }
                w.varint(q.pcvs.len() as u64);
                for (name, v) in &q.pcvs {
                    w.str(name);
                    w.u64(*v);
                }
            }
            Request::Diff(d) => {
                w.str(&d.a);
                w.str(&d.b);
                w.u8(d.metric);
            }
            Request::Provenance { nf, level } => {
                w.str(nf);
                w.u8(*level);
            }
            Request::Hello { depth } => w.varint(*depth as u64),
        }
        w.into_bytes()
    }

    /// Decode a request frame payload into the request and its
    /// correlation id. Rejects version skew, unknown opcodes, and
    /// malformed or over-long bodies — always with an error, never a
    /// panic.
    pub fn decode_framed(payload: &[u8]) -> Result<DecodedRequest, DecodeError> {
        let mut r = ByteReader::new(payload);
        if r.u8()? != PROTOCOL_VERSION {
            return Err(DecodeError::Malformed("protocol version mismatch"));
        }
        let op = Opcode::from_u8(r.u8()?)?;
        let corr = r.varint()?;
        let req = match op {
            Opcode::Ping => Request::Ping,
            Opcode::List => Request::List,
            Opcode::Shutdown => Request::Shutdown,
            Opcode::Metrics => Request::Metrics,
            Opcode::Query => {
                let nf = r.str()?.to_owned();
                let level = r.u8()?;
                let metric = r.u8()?;
                let tag = if r.bool()? {
                    Some(r.str()?.to_owned())
                } else {
                    None
                };
                let n = r.count(1 << 16)?;
                let mut pcvs = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.str()?.to_owned();
                    let v = r.u64()?;
                    pcvs.push((name, v));
                }
                Request::Query(QueryRequest {
                    nf,
                    level,
                    metric,
                    tag,
                    pcvs,
                })
            }
            Opcode::Diff => Request::Diff(DiffRequest {
                a: r.str()?.to_owned(),
                b: r.str()?.to_owned(),
                metric: r.u8()?,
            }),
            Opcode::Provenance => Request::Provenance {
                nf: r.str()?.to_owned(),
                level: r.u8()?,
            },
            Opcode::Hello => Request::Hello {
                depth: decode_depth(&mut r)?,
            },
        };
        r.expect_end()?;
        Ok(DecodedRequest { corr, req })
    }
}

fn decode_depth(r: &mut ByteReader<'_>) -> Result<u32, DecodeError> {
    u32::try_from(r.varint()?).map_err(|_| DecodeError::Malformed("pipeline depth out of range"))
}

/// A decoded request frame: the request plus its correlation id.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DecodedRequest {
    /// The correlation id the response must echo.
    pub corr: u64,
    /// The decoded request.
    pub req: Request,
}

/// A query answer: the rendered text (identical to what a one-shot
/// `bolt_cli query` against the same store prints) plus the structured
/// worst-path fields for programmatic callers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryReply {
    /// Whether any path of the contract is compatible with the class.
    pub found: bool,
    /// Index of the worst compatible path (0 when `found` is false).
    pub path_index: u64,
    /// Its predicted value at the supplied PCV binding.
    pub value: u64,
    /// The rendered answer, byte-identical to the CLI's local output.
    pub text: String,
}

/// The full observability snapshot: every counter, gauge, and latency
/// histogram in the server's registry, name-sorted. Histograms travel
/// sparsely (only non-empty log2 buckets), so a reply stays small no
/// matter how wide the value range is.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MetricsReply {
    /// Counter names and values.
    pub counters: Vec<(String, u64)>,
    /// Gauge names and values.
    pub gauges: Vec<(String, i64)>,
    /// Histogram names and snapshots (latency series are nanoseconds).
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsReply {
    /// Build a reply from a registry snapshot, moving its series.
    pub(crate) fn from_snapshot(snap: Snapshot) -> Self {
        MetricsReply {
            counters: snap.counters,
            gauges: snap.gauges,
            histograms: snap.histograms,
        }
    }

    /// Look up one counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up one histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

/// A decoded response frame.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// Ping answer: the server's crate version.
    Pong {
        /// Server crate version (`CARGO_PKG_VERSION`).
        version: String,
    },
    /// Query answer.
    Query(QueryReply),
    /// Diff answer: rendered comparison text.
    Diff {
        /// The rendered diff, byte-identical to the CLI's local output.
        text: String,
    },
    /// Store listing.
    List {
        /// Number of records enumerated.
        entries: u64,
        /// The rendered table, byte-identical to the CLI's local output.
        text: String,
    },
    /// Provenance answer: rendered record/cache state.
    Provenance {
        /// The rendered provenance block.
        text: String,
    },
    /// Full observability snapshot.
    Metrics(MetricsReply),
    /// Shutdown acknowledged; the server drains and exits.
    ShuttingDown,
    /// Negotiation answer: the pipeline window the server grants
    /// (1 ≤ `depth` ≤ [`MAX_PIPELINE_DEPTH`]). Both sides latch it for
    /// the rest of the connection.
    HelloAck {
        /// The granted pipeline window (in-flight request cap).
        depth: u32,
    },
    /// The request failed; the connection remains usable (unless the
    /// failure was a frame-sync violation, in which case the server
    /// closes it after sending this).
    Error {
        /// Human-readable failure description.
        message: String,
    },
}

impl Response {
    /// Encode to one frame payload: the answered request's correlation
    /// id, then status, opcode echo and body. Error frames carry the id
    /// too, so a pipelined client can attribute a failure to the exact
    /// request that caused it.
    pub fn encode_v2(&self, corr: u64) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.varint(corr);
        if let Response::Error { message } = self {
            w.u8(1);
            w.str(message);
            return w.into_bytes();
        }
        w.u8(0);
        match self {
            Response::Pong { version } => {
                w.u8(Opcode::Ping as u8);
                w.str(version);
            }
            Response::Query(q) => {
                w.u8(Opcode::Query as u8);
                w.bool(q.found);
                w.varint(q.path_index);
                w.u64(q.value);
                w.str(&q.text);
            }
            Response::Diff { text } => {
                w.u8(Opcode::Diff as u8);
                w.str(text);
            }
            Response::List { entries, text } => {
                w.u8(Opcode::List as u8);
                w.varint(*entries);
                w.str(text);
            }
            Response::Provenance { text } => {
                w.u8(Opcode::Provenance as u8);
                w.str(text);
            }
            Response::Metrics(m) => {
                w.u8(Opcode::Metrics as u8);
                w.varint(m.counters.len() as u64);
                for (name, v) in &m.counters {
                    w.str(name);
                    w.u64(*v);
                }
                w.varint(m.gauges.len() as u64);
                for (name, v) in &m.gauges {
                    w.str(name);
                    // Two's-complement through u64; the decoder casts back.
                    w.u64(*v as u64);
                }
                w.varint(m.histograms.len() as u64);
                for (name, h) in &m.histograms {
                    w.str(name);
                    w.varint(h.count);
                    w.u64(h.sum);
                    w.u64(h.max);
                    let nonzero = h.buckets.iter().filter(|&&c| c != 0).count();
                    w.varint(nonzero as u64);
                    for (i, &c) in h.buckets.iter().enumerate() {
                        if c != 0 {
                            w.u8(i as u8);
                            w.varint(c);
                        }
                    }
                }
            }
            Response::ShuttingDown => {
                w.u8(Opcode::Shutdown as u8);
            }
            Response::HelloAck { depth } => {
                w.u8(Opcode::Hello as u8);
                w.varint(*depth as u64);
            }
            Response::Error { .. } => unreachable!("handled above"),
        }
        w.into_bytes()
    }

    /// Decode a response frame payload: the correlation id, then the
    /// response it answers.
    pub fn decode_v2(payload: &[u8]) -> Result<(u64, Response), DecodeError> {
        let mut r = ByteReader::new(payload);
        let corr = r.varint()?;
        match r.u8()? {
            1 => {
                let message = r.str()?.to_owned();
                r.expect_end()?;
                return Ok((corr, Response::Error { message }));
            }
            0 => {}
            _ => return Err(DecodeError::Malformed("response status out of range")),
        }
        let op = Opcode::from_u8(r.u8()?)?;
        let resp = match op {
            Opcode::Ping => Response::Pong {
                version: r.str()?.to_owned(),
            },
            Opcode::Query => Response::Query(QueryReply {
                found: r.bool()?,
                path_index: r.varint()?,
                value: r.u64()?,
                text: r.str()?.to_owned(),
            }),
            Opcode::Diff => Response::Diff {
                text: r.str()?.to_owned(),
            },
            Opcode::List => Response::List {
                entries: r.varint()?,
                text: r.str()?.to_owned(),
            },
            Opcode::Provenance => Response::Provenance {
                text: r.str()?.to_owned(),
            },
            Opcode::Metrics => {
                let n = r.count(1 << 12)?;
                let mut counters = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.str()?.to_owned();
                    counters.push((name, r.u64()?));
                }
                let n = r.count(1 << 12)?;
                let mut gauges = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.str()?.to_owned();
                    gauges.push((name, r.u64()? as i64));
                }
                let n = r.count(1 << 12)?;
                let mut histograms = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = r.str()?.to_owned();
                    let mut h = HistogramSnapshot {
                        count: r.varint()?,
                        sum: r.u64()?,
                        max: r.u64()?,
                        ..HistogramSnapshot::default()
                    };
                    let nonzero = r.count(HIST_BUCKETS)?;
                    for _ in 0..nonzero {
                        let idx = r.u8()? as usize;
                        if idx >= HIST_BUCKETS {
                            return Err(DecodeError::Malformed("histogram bucket out of range"));
                        }
                        h.buckets[idx] = r.varint()?;
                    }
                    histograms.push((name, h));
                }
                Response::Metrics(MetricsReply {
                    counters,
                    gauges,
                    histograms,
                })
            }
            Opcode::Shutdown => Response::ShuttingDown,
            Opcode::Hello => Response::HelloAck {
                depth: decode_depth(&mut r)?,
            },
        };
        r.expect_end()?;
        Ok((corr, resp))
    }
}

/// A frame-sync violation: the stream cannot be trusted past this point,
/// so the connection must be closed (after a best-effort error frame).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrameError {
    /// The length prefix exceeds [`MAX_FRAME`].
    TooLarge(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME}-byte limit")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Write one frame (length prefix + payload) and flush.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    debug_assert!(payload.len() as u64 <= MAX_FRAME as u64);
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame, blocking. `Ok(None)` on clean end-of-stream (EOF at a
/// frame boundary); `InvalidData` when the length prefix exceeds
/// [`MAX_FRAME`] or EOF lands mid-frame.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..])? {
            0 if got == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "EOF inside a frame length prefix",
                ))
            }
            n => got += n,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::TooLarge(len).to_string(),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// Incremental frame accumulator for non-blocking readers (the server's
/// connection loop reads with a timeout so it can observe shutdown, so
/// it may see partial frames; this buffers bytes until a whole frame is
/// available).
#[derive(Default, Debug)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// Empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append freshly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pop the next complete frame payload, if one is buffered.
    /// `Err(TooLarge)` poisons the stream — the caller must close the
    /// connection.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes"));
        if len > MAX_FRAME {
            return Err(FrameError::TooLarge(len));
        }
        let total = 4 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = self.buf[4..total].to_vec();
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_replies_round_trip() {
        let mut h = HistogramSnapshot::default();
        for v in [0u64, 1, 7, 1024, u64::MAX] {
            h.buckets[bucket_index(v)] += 1;
            h.count += 1;
            h.sum = h.sum.saturating_add(v);
            h.max = h.max.max(v);
        }
        let reply = MetricsReply {
            counters: vec![("serve.requests".into(), 42), ("store.hits".into(), 7)],
            gauges: vec![("serve.active_connections".into(), -1)],
            histograms: vec![
                ("serve.req.query".into(), h),
                ("store.get".into(), HistogramSnapshot::default()),
            ],
        };
        let resp = Response::Metrics(reply.clone());
        let bytes = resp.encode_v2(9);
        let (_, decoded) = Response::decode_v2(&bytes).unwrap();
        assert_eq!(decoded, resp);
        let Response::Metrics(m) = decoded else {
            unreachable!()
        };
        assert_eq!(m.counter("serve.requests"), Some(42));
        assert_eq!(m.histogram("serve.req.query").unwrap().count, 5);
        // Truncations decode to errors, never panics.
        for cut in 0..bytes.len() {
            assert!(Response::decode_v2(&bytes[..cut]).is_err());
        }
        // A bucket index past the array is malformed, not a panic.
        let empty = MetricsReply::default();
        let mut bad = Response::Metrics(MetricsReply {
            histograms: vec![("h".into(), HistogramSnapshot::default())],
            ..empty
        })
        .encode_v2(9);
        // Patch the nonzero-bucket count from 0 to 1 and append a
        // too-large index with a count.
        let last = bad.len() - 1;
        assert_eq!(bad[last], 0, "empty histogram ends with nonzero=0");
        bad[last] = 1;
        bad.push(64); // bucket index out of range
        bad.push(1); // its count
        assert!(Response::decode_v2(&bad).is_err());
    }

    fn bucket_index(v: u64) -> usize {
        bolt_obs::bucket_of(v)
    }

    #[test]
    fn malformed_payloads_are_errors_not_panics() {
        let decode = Request::decode_framed;
        assert!(decode(&[]).is_err());
        assert!(decode(&[PROTOCOL_VERSION]).is_err());
        assert!(decode(&[PROTOCOL_VERSION, 0xEE, 0]).is_err());
        for stale in [PROTOCOL_VERSION - 1, PROTOCOL_VERSION + 1] {
            assert_eq!(
                decode(&[stale, Opcode::Ping as u8, 0]),
                Err(DecodeError::Malformed("protocol version mismatch"))
            );
        }
        // Trailing garbage after a valid body.
        let mut bytes = Request::Ping.encode_v2(1);
        bytes.push(0);
        assert!(decode(&bytes).is_err());
        // Truncated query body.
        let q = Request::Query(QueryRequest {
            nf: "bridge".into(),
            level: 1,
            metric: 0,
            tag: None,
            pcvs: vec![],
        })
        .encode_v2(1);
        for cut in 0..q.len() {
            assert!(decode(&q[..cut]).is_err());
        }
        assert!(Response::decode_v2(&[0, 9]).is_err());
    }

    #[test]
    fn frame_encodings_are_pinned() {
        // The wire bytes are the contract between the two ends: pin the
        // simplest frames exactly.
        assert_eq!(Request::Ping.encode_v2(1), vec![2, 1, 1]);
        assert_eq!(Request::List.encode_v2(300), vec![2, 4, 0xAC, 0x02]);
        assert_eq!(Request::Hello { depth: 8 }.encode_v2(1), vec![2, 9, 1, 8]);
        assert_eq!(Response::ShuttingDown.encode_v2(5), vec![5, 0, 7]);
        assert_eq!(
            Response::Error {
                message: "no".into()
            }
            .encode_v2(0),
            vec![0, 1, 2, b'n', b'o']
        );
    }

    #[test]
    fn frame_buffer_reassembles_split_frames() {
        let payload = Request::Ping.encode_v2(1);
        let mut framed = Vec::new();
        write_frame(&mut framed, &payload).unwrap();
        let mut fb = FrameBuffer::new();
        // Feed one byte at a time: no frame until the last byte.
        for (i, b) in framed.iter().enumerate() {
            fb.extend(&[*b]);
            let got = fb.next_frame().unwrap();
            if i + 1 < framed.len() {
                assert!(got.is_none());
            } else {
                assert_eq!(got.unwrap(), payload);
            }
        }
        assert!(fb.buf.is_empty());
        // Two frames in one burst.
        let mut burst = Vec::new();
        write_frame(&mut burst, &payload).unwrap();
        write_frame(&mut burst, &payload).unwrap();
        fb.extend(&burst);
        assert_eq!(fb.next_frame().unwrap().unwrap(), payload);
        assert_eq!(fb.next_frame().unwrap().unwrap(), payload);
        assert!(fb.next_frame().unwrap().is_none());
    }

    #[test]
    fn oversized_length_prefixes_poison_the_stream() {
        let mut fb = FrameBuffer::new();
        fb.extend(&u32::MAX.to_le_bytes());
        assert_eq!(fb.next_frame(), Err(FrameError::TooLarge(u32::MAX)));
        let huge = (MAX_FRAME + 1).to_le_bytes();
        let mut r = std::io::Cursor::new(huge.to_vec());
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn read_frame_handles_eof() {
        let mut empty = std::io::Cursor::new(Vec::new());
        assert!(read_frame(&mut empty).unwrap().is_none());
        let mut partial = std::io::Cursor::new(vec![3, 0]);
        assert!(read_frame(&mut partial).is_err());
        let mut midframe = std::io::Cursor::new(vec![3, 0, 0, 0, 1]);
        assert!(read_frame(&mut midframe).is_err());
    }
}
