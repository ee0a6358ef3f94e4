//! A blocking client for the serve protocol, with optional request
//! pipelining.
//!
//! Two layers:
//!
//! * [`Client`] — the high-level, resilient handle. Build one with
//!   [`Client::builder`]; each call is one request/response exchange,
//!   and transport failures on *idempotent* requests (everything but
//!   shutdown, see [`Request::is_idempotent`]) tear down the
//!   connection, back off with jitter, reconnect, and retry up to
//!   [`ClientBuilder::retries`] times. Shutdown must never fire twice,
//!   so it surfaces the first failure. Error *frames* — the server
//!   answered, but with a diagnostic — are never retried: the server
//!   is healthy and would say the same thing again.
//! * [`Session`] — one negotiated connection, exposed directly for
//!   pipelining: [`Session::submit`] queues a request and returns a
//!   [`Ticket`], [`Session::flush`] pushes the batch onto the wire in
//!   one write, and [`Session::recv`] blocks until that ticket's reply
//!   arrives (replies come back in *completion* order; the session
//!   files them by correlation id). A session never retries — it is
//!   the raw connection; resilience lives in [`Client`].
//!
//! The pipeline window is negotiated: a session opened with
//! [`ClientBuilder::pipeline_depth`] > 1 sends a `Hello` first and
//! latches the window the server grants. A fresh connection already
//! has window 1, so a depth of 1 skips `Hello` and pays no extra round
//! trip.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use bolt_fault::XorShift64;

use crate::protocol::{
    read_frame, DiffRequest, MetricsReply, QueryReply, QueryRequest, Request, Response,
    MAX_PIPELINE_DEPTH,
};

/// Where a server lives: `tcp:HOST:PORT`, or a Unix socket path.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Endpoint {
    /// Unix-domain socket path.
    Unix(PathBuf),
    /// TCP address (`host:port`, or `[v6-host]:port`).
    Tcp(String),
}

/// An endpoint spec that could not be understood.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseEndpointError {
    spec: String,
    reason: &'static str,
}

impl fmt::Display for ParseEndpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad endpoint {:?}: {}", self.spec, self.reason)
    }
}

impl std::error::Error for ParseEndpointError {}

impl Endpoint {
    /// Parse an endpoint spec: a `tcp:` prefix selects TCP (and the
    /// rest must be `HOST:PORT` with a numeric port — IPv6 hosts
    /// bracketed, `tcp:[::1]:8080`), anything else is a Unix socket
    /// path. Empty and structurally hopeless specs are rejected here
    /// rather than at connect time, where "No such file or directory"
    /// for a mistyped `tcp:` flag would mislead.
    pub fn parse(s: &str) -> Result<Endpoint, ParseEndpointError> {
        let err = |reason| ParseEndpointError {
            spec: s.to_string(),
            reason,
        };
        let spec = s.trim();
        if spec.is_empty() {
            return Err(err("empty endpoint"));
        }
        match spec.strip_prefix("tcp:") {
            Some(addr) => {
                let port = if let Some(rest) = addr.strip_prefix('[') {
                    // Bracketed IPv6: [HOST]:PORT. rsplit_once(':')
                    // would split inside the address, so the bracket
                    // is parsed structurally instead.
                    let (host, after) = rest
                        .split_once(']')
                        .ok_or_else(|| err("tcp endpoint has an unclosed '[' bracket"))?;
                    if host.is_empty() {
                        return Err(err("tcp endpoint has an empty host"));
                    }
                    after
                        .strip_prefix(':')
                        .ok_or_else(|| err("tcp endpoint needs a :PORT after the ']' bracket"))?
                } else {
                    let (host, port) = addr
                        .rsplit_once(':')
                        .ok_or_else(|| err("tcp endpoint needs HOST:PORT"))?;
                    if host.is_empty() {
                        return Err(err("tcp endpoint has an empty host"));
                    }
                    if host.contains(':') {
                        return Err(err("IPv6 hosts must be bracketed, like tcp:[::1]:8080"));
                    }
                    port
                };
                if port.parse::<u16>().is_err() {
                    return Err(err("tcp endpoint needs a numeric port (0-65535)"));
                }
                Ok(Endpoint::Tcp(addr.to_string()))
            }
            None => Ok(Endpoint::Unix(PathBuf::from(spec))),
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Unix(p) => write!(f, "{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Client-side failure.
#[derive(Debug)]
pub enum ServeError {
    /// Transport failure (connect, read, write, timeout).
    Io(io::Error),
    /// The server's bytes did not decode to the expected response.
    Protocol(String),
    /// The server answered with an error frame; the message is the
    /// server's (e.g. an unknown-NF or unknown-PCV diagnostic).
    Remote(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport: {e}"),
            ServeError::Protocol(m) => write!(f, "protocol: {m}"),
            ServeError::Remote(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// Tunables for one client connection (the builder's state).
#[derive(Clone, Debug)]
struct ClientConfig {
    /// Per-call reply deadline. Warm answers are microseconds; a cold
    /// one can run a fresh exploration, so the default is generous.
    deadline: Duration,
    /// How long to wait for a TCP connect (Unix connects are local and
    /// effectively instant).
    connect_timeout: Duration,
    /// How many times to re-dial and retry an idempotent request after
    /// a transport failure. Zero disables retry entirely.
    retries: u32,
    /// Base reconnect backoff; doubles per attempt.
    backoff: Duration,
    /// Backoff ceiling.
    backoff_cap: Duration,
    /// Requested pipeline window: how many requests may be in flight
    /// on the connection at once, in `1..=MAX_PIPELINE_DEPTH`. 1 skips
    /// negotiation; higher values negotiate with the server, which may
    /// grant less.
    pipeline_depth: u32,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            deadline: Duration::from_secs(120),
            connect_timeout: Duration::from_secs(10),
            retries: 2,
            backoff: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            pipeline_depth: 8,
        }
    }
}

/// Fluent construction for a [`Client`] or a raw [`Session`],
/// mirroring the `Composer` convention:
///
/// ```no_run
/// use bolt_serve::{Client, Endpoint};
/// use std::time::Duration;
/// let ep = Endpoint::parse("tcp:127.0.0.1:7070").unwrap();
/// let mut client = Client::builder(&ep)
///     .deadline(Duration::from_secs(30))
///     .retries(4)
///     .pipeline_depth(8)
///     .build()
///     .unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct ClientBuilder {
    endpoint: Endpoint,
    config: ClientConfig,
}

impl ClientBuilder {
    /// Per-call reply deadline.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.config.deadline = d;
        self
    }

    /// TCP connect timeout.
    pub fn connect_timeout(mut self, d: Duration) -> Self {
        self.config.connect_timeout = d;
        self
    }

    /// Transport-failure retries for idempotent requests.
    pub fn retries(mut self, n: u32) -> Self {
        self.config.retries = n;
        self
    }

    /// Base reconnect backoff (doubles per attempt).
    pub fn backoff(mut self, d: Duration) -> Self {
        self.config.backoff = d;
        self
    }

    /// Backoff ceiling.
    pub fn backoff_cap(mut self, d: Duration) -> Self {
        self.config.backoff_cap = d;
        self
    }

    /// Requested pipeline window, clamped to `1..=MAX_PIPELINE_DEPTH`
    /// (`0` means 1; a window of 1 skips negotiation).
    pub fn pipeline_depth(mut self, depth: u32) -> Self {
        self.config.pipeline_depth = depth.clamp(1, MAX_PIPELINE_DEPTH);
        self
    }

    /// Dial eagerly and return the resilient [`Client`] handle.
    pub fn build(self) -> Result<Client, ServeError> {
        let mut client = Client {
            endpoint: self.endpoint,
            config: self.config,
            session: None,
            jitter: XorShift64::new(std::process::id() as u64 ^ 0x5EED_1E55),
        };
        client.ensure_session()?;
        Ok(client)
    }

    /// Dial eagerly and return the raw negotiated [`Session`] — the
    /// pipelining interface, without the retry layer.
    pub fn session(self) -> Result<Session, ServeError> {
        Session::establish(&self.endpoint, &self.config)
    }
}

trait Transport: Read + Write + Send {}
impl Transport for TcpStream {}
impl Transport for UnixStream {}

/// A claim on one in-flight request in a [`Session`]; redeem it with
/// [`Session::recv`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ticket(u64);

/// One negotiated connection with pipelining: submit many, flush once,
/// receive in any order.
///
/// ```no_run
/// use bolt_serve::{Client, Endpoint, Request};
/// let ep = Endpoint::parse("bolt.sock").unwrap();
/// let mut session = Client::builder(&ep).pipeline_depth(8).session().unwrap();
/// let a = session.submit(&Request::Ping).unwrap();
/// let b = session.submit(&Request::List).unwrap();
/// session.flush().unwrap();
/// let pong = session.recv(b).unwrap(); // completion order is fine
/// let list = session.recv(a).unwrap();
/// # let _ = (pong, list);
/// ```
pub struct Session {
    stream: Box<dyn Transport>,
    /// Granted pipeline window (1 until a `Hello` raises it; never 0,
    /// or [`Session::submit`] could not make progress).
    depth: u32,
    /// Next correlation id; 0 is reserved for unattributable server
    /// errors, so tickets start at 1.
    next_corr: u64,
    /// Correlation ids submitted and not yet received, in submission
    /// order.
    inflight: VecDeque<u64>,
    /// Replies that arrived while waiting for a different ticket.
    ready: HashMap<u64, Response>,
    /// Encoded frames queued by [`Session::submit`], sent as one write
    /// by [`Session::flush`].
    wbuf: Vec<u8>,
}

impl Session {
    fn establish(endpoint: &Endpoint, config: &ClientConfig) -> Result<Session, ServeError> {
        let deadline = Some(config.deadline);
        let stream: Box<dyn Transport> = match endpoint {
            Endpoint::Tcp(addr) => {
                let mut last = io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("{addr}: no addresses resolved"),
                );
                let mut dialled = None;
                for sock in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sock, config.connect_timeout) {
                        Ok(s) => {
                            dialled = Some(s);
                            break;
                        }
                        Err(e) => last = e,
                    }
                }
                let s = dialled.ok_or(last)?;
                s.set_read_timeout(deadline)?;
                s.set_write_timeout(deadline)?;
                let _ = s.set_nodelay(true);
                Box::new(s)
            }
            Endpoint::Unix(path) => {
                let s = UnixStream::connect(path)?;
                s.set_read_timeout(deadline)?;
                s.set_write_timeout(deadline)?;
                Box::new(s)
            }
        };
        let mut session = Session {
            stream,
            depth: 1,
            next_corr: 1,
            inflight: VecDeque::new(),
            ready: HashMap::new(),
            wbuf: Vec::new(),
        };
        if config.pipeline_depth > 1 {
            session.negotiate(config.pipeline_depth)?;
        }
        Ok(session)
    }

    /// Send `Hello` and latch the window the server grants. An error
    /// frame (e.g. `server busy`) is a refusal and surfaces.
    fn negotiate(&mut self, want: u32) -> Result<(), ServeError> {
        match self.call(&Request::Hello { depth: want })? {
            Response::HelloAck { depth } => {
                self.depth = depth.clamp(1, MAX_PIPELINE_DEPTH);
                Ok(())
            }
            other => Err(mismatch("hello ack", &other)),
        }
    }

    /// The pipeline window in force (1 unless a larger one was granted).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Queue one request and return the ticket that will redeem its
    /// reply. The frame sits in a local batch until [`Session::flush`]
    /// (or a `recv`, which flushes first). If the pipeline window is
    /// full, blocks until the oldest in-flight reply arrives.
    pub fn submit(&mut self, req: &Request) -> Result<Ticket, ServeError> {
        while self.inflight.len() as u32 >= self.depth {
            self.flush()?;
            self.read_one()?;
        }
        let corr = self.next_corr;
        self.next_corr += 1;
        let payload = req.encode_v2(corr);
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(&payload);
        self.inflight.push_back(corr);
        Ok(Ticket(corr))
    }

    /// Push every queued frame onto the wire in one write.
    pub fn flush(&mut self) -> Result<(), ServeError> {
        if self.wbuf.is_empty() {
            return Ok(());
        }
        let buf = std::mem::take(&mut self.wbuf);
        match self.write_all(&buf) {
            // A server that hung up may have said why first (a busy
            // reject): its error frame outranks the broken pipe.
            Err(ServeError::Io(e))
                if matches!(
                    e.kind(),
                    io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset
                ) =>
            {
                match self.read_one() {
                    Err(refusal @ ServeError::Remote(_)) => Err(refusal),
                    _ => Err(ServeError::Io(e)),
                }
            }
            other => other,
        }
    }

    /// Block until the ticket's reply arrives, filing any other
    /// replies that land first. Error frames surface as
    /// [`ServeError::Remote`].
    pub fn recv(&mut self, ticket: Ticket) -> Result<Response, ServeError> {
        self.flush()?;
        loop {
            if let Some(resp) = self.ready.remove(&ticket.0) {
                return match resp {
                    Response::Error { message } => Err(ServeError::Remote(message)),
                    other => Ok(other),
                };
            }
            if !self.inflight.contains(&ticket.0) {
                return Err(ServeError::Protocol(format!(
                    "ticket {} is not in flight on this session",
                    ticket.0
                )));
            }
            self.read_one()?;
        }
    }

    /// One strict request/response round trip on this session.
    pub fn call(&mut self, req: &Request) -> Result<Response, ServeError> {
        let ticket = self.submit(req)?;
        self.recv(ticket)
    }

    /// Read one reply frame and file it under its correlation id.
    fn read_one(&mut self) -> Result<(), ServeError> {
        let payload = self.read_payload()?;
        let (corr, resp) = Response::decode_v2(&payload)
            .map_err(|e| ServeError::Protocol(format!("bad response frame: {e}")))?;
        match self.inflight.iter().position(|c| *c == corr) {
            Some(i) => {
                self.inflight.remove(i);
                self.ready.insert(corr, resp);
                Ok(())
            }
            None => match resp {
                // Correlation id 0 is the server's "unattributable
                // error" channel (malformed frame, desync); any owner
                // of this session hears it immediately.
                Response::Error { message } => Err(ServeError::Remote(message)),
                _ => Err(ServeError::Protocol(format!(
                    "server answered unknown correlation id {corr}"
                ))),
            },
        }
    }

    fn read_payload(&mut self) -> Result<Vec<u8>, ServeError> {
        read_frame(&mut self.stream)?.ok_or_else(|| {
            // EOF before the reply is a transport-level death (the
            // server crashed or reaped us), not a protocol bug —
            // classify it as Io so a retry layer can heal it.
            ServeError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before the reply",
            ))
        })
    }

    fn write_all(&mut self, bytes: &[u8]) -> Result<(), ServeError> {
        self.stream.write_all(bytes)?;
        self.stream.flush()?;
        Ok(())
    }
}

/// One connection to a serve endpoint, redialled on demand.
pub struct Client {
    endpoint: Endpoint,
    config: ClientConfig,
    session: Option<Session>,
    jitter: XorShift64,
}

impl Client {
    /// Start describing a client for `endpoint`; finish with
    /// [`ClientBuilder::build`] (or [`ClientBuilder::session`] for the
    /// raw pipelined session).
    pub fn builder(endpoint: &Endpoint) -> ClientBuilder {
        ClientBuilder {
            endpoint: endpoint.clone(),
            config: ClientConfig::default(),
        }
    }

    fn ensure_session(&mut self) -> Result<&mut Session, ServeError> {
        if self.session.is_none() {
            self.session = Some(Session::establish(&self.endpoint, &self.config)?);
        }
        Ok(self.session.as_mut().expect("established above"))
    }

    /// One request/response round trip, with reconnect-and-retry for
    /// idempotent requests. Error frames become [`ServeError::Remote`]
    /// and are never retried.
    pub fn request(&mut self, req: &Request) -> Result<Response, ServeError> {
        let mut attempt = 0u32;
        loop {
            match self.try_call(req) {
                Err(ServeError::Io(e)) if req.is_idempotent() && attempt < self.config.retries => {
                    attempt += 1;
                    std::thread::sleep(self.backoff_for(attempt, &e));
                }
                other => return other,
            }
        }
    }

    /// Exponential backoff with jitter: `base * 2^(attempt-1)` capped,
    /// plus up to half that again so a herd of clients doesn't re-dial
    /// in lockstep.
    fn backoff_for(&mut self, attempt: u32, _cause: &io::Error) -> Duration {
        let base = self.config.backoff.max(Duration::from_millis(1));
        let exp = base.saturating_mul(1u32 << (attempt - 1).min(16));
        let delay = exp.min(self.config.backoff_cap);
        let jitter_ns = (delay.as_nanos() as u64 / 2).max(1);
        delay + Duration::from_nanos(self.jitter.next_u64() % jitter_ns)
    }

    /// A single attempt: dial (and negotiate) if needed, write, read,
    /// decode. Any transport or framing failure poisons the connection
    /// so the next attempt starts from a fresh dial.
    fn try_call(&mut self, req: &Request) -> Result<Response, ServeError> {
        let session = match self.ensure_session() {
            Ok(s) => s,
            Err(e) => {
                self.session = None;
                return Err(e);
            }
        };
        match session.call(req) {
            Err(e @ (ServeError::Io(_) | ServeError::Protocol(_))) => {
                // The connection's framing state is unknown; drop it.
                self.session = None;
                Err(e)
            }
            other => other,
        }
    }

    /// Liveness check; returns the server's version string.
    pub fn ping(&mut self) -> Result<String, ServeError> {
        match self.request(&Request::Ping)? {
            Response::Pong { version } => Ok(version),
            other => Err(mismatch("pong", &other)),
        }
    }

    /// Run a contract query.
    pub fn query(&mut self, q: QueryRequest) -> Result<QueryReply, ServeError> {
        match self.request(&Request::Query(q))? {
            Response::Query(r) => Ok(r),
            other => Err(mismatch("query reply", &other)),
        }
    }

    /// Diff two stored contracts; returns the rendered text.
    pub fn diff(&mut self, d: DiffRequest) -> Result<String, ServeError> {
        match self.request(&Request::Diff(d))? {
            Response::Diff { text } => Ok(text),
            other => Err(mismatch("diff reply", &other)),
        }
    }

    /// List the server's store; returns (record count, rendered table).
    pub fn list(&mut self) -> Result<(u64, String), ServeError> {
        match self.request(&Request::List)? {
            Response::List { entries, text } => Ok((entries, text)),
            other => Err(mismatch("list reply", &other)),
        }
    }

    /// Record/cache provenance of one (NF, level); returns rendered
    /// text.
    pub fn provenance(&mut self, nf: &str, level: u8) -> Result<String, ServeError> {
        let req = Request::Provenance {
            nf: nf.to_string(),
            level,
        };
        match self.request(&req)? {
            Response::Provenance { text } => Ok(text),
            other => Err(mismatch("provenance reply", &other)),
        }
    }

    /// Fetch the server's full observability snapshot: counters,
    /// gauges, and latency histograms.
    pub fn metrics(&mut self) -> Result<MetricsReply, ServeError> {
        match self.request(&Request::Metrics)? {
            Response::Metrics(m) => Ok(m),
            other => Err(mismatch("metrics reply", &other)),
        }
    }

    /// Ask the server to shut down gracefully (drain, flush, exit).
    /// Never retried: a second shutdown against a restarted server
    /// would kill the wrong instance.
    pub fn shutdown(&mut self) -> Result<(), ServeError> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(mismatch("shutdown ack", &other)),
        }
    }
}

fn mismatch(wanted: &str, got: &Response) -> ServeError {
    ServeError::Protocol(format!("expected a {wanted}, got {got:?}"))
}
