//! The event-driven socket front end: fixed worker pool, pipelining,
//! graceful drain.
//!
//! PR 6 spent one OS thread per connection; this core replaces that
//! with a **fixed thread topology** that does not grow with the
//! connection count:
//!
//! * one *acceptor* per listening socket (Unix and/or TCP), which only
//!   accepts, enforces the connection cap, and routes the socket to a
//!   worker;
//! * a small pool of *event workers*, each running a nonblocking
//!   poll(2)-driven readiness loop; every connection is a state machine
//!   owning its [`FrameBuffer`] and write buffer;
//! * a small pool of *handler* threads that absorb cold requests
//!   (explorations, diffs, store scans) so the event loop never blocks
//!   on the solver — warm memo hits dispatch inline on the loop itself
//!   (see [`ServeCore::dispatch`]);
//! * an optional 1 Hz Prometheus-text exporter.
//!
//! Every connection starts with a pipeline window of 1; a client that
//! sends [`Request::Hello`] may pipeline up to the granted window on
//! one connection. Replies go out in **completion order**, each
//! carrying the correlation id of the request it answers.
//!
//! The robustness contract: malformed bodies get an error frame and
//! the connection lives on; only a frame-sync violation (a length
//! prefix beyond [`crate::protocol::MAX_FRAME`]) closes the
//! connection; requests fully received before a shutdown are still
//! answered.
//!
//! Construct servers with [`Server::builder`].

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bolt_fault::{site, FaultPlan};
use bolt_obs::{trace, Gauge};

use crate::protocol::{
    write_frame, DecodedRequest, FrameBuffer, Opcode, Request, Response, MAX_PIPELINE_DEPTH,
    PROTOCOL_VERSION,
};
use crate::service::{Dispatch, Phase, ServeCore};

/// How long a poll wait blocks before re-checking the shutdown flag,
/// and how long an idle accept loop sleeps between polls.
const POLL: Duration = Duration::from_millis(25);

/// Event-loop workers when [`ServerBuilder::event_workers`] is 0.
const DEFAULT_EVENT_WORKERS: usize = 2;

/// Cold-path handler threads when [`ServerBuilder::handler_threads`]
/// is 0.
const DEFAULT_HANDLER_THREADS: usize = 2;

/// Scratch size for draining a readable socket.
const READ_CHUNK: usize = 16 * 1024;

/// Where to listen, and how hard the server defends itself (the
/// builder's state). At least one endpoint must be set; every limit
/// defaults to off.
#[derive(Default, Clone, Debug)]
struct ServerConfig {
    /// Unix-domain socket path (a stale leftover from a crashed server
    /// is unlinked after a probe connect proves nobody answers it; a
    /// *live* server's socket makes the bind fail with `AddrInUse`).
    unix: Option<PathBuf>,
    /// TCP listen address (e.g. `127.0.0.1:0` for an ephemeral port).
    tcp: Option<String>,
    /// Cap on concurrently served connections; `0` means unlimited.
    /// Connections past the cap get a `server busy` error frame and are
    /// closed immediately (counted in `busy_rejects`).
    max_connections: usize,
    /// Close a connection that sends nothing for this long (counted in
    /// `idle_closed`). `None` means connections may idle forever.
    idle_timeout: Option<Duration>,
    /// Bound on one request's handling time. Exploration cannot be
    /// aborted mid-flight, so a blown deadline still runs to completion
    /// — but the client gets a `deadline exceeded` error frame instead
    /// of an arbitrarily stale answer (counted in `deadlines_exceeded`).
    request_deadline: Option<Duration>,
    /// Deterministic fault injection for this server's transports.
    /// `None` injects nothing.
    fault: Option<Arc<FaultPlan>>,
    /// Number of event-loop workers; `0` picks the default (2).
    event_workers: usize,
    /// Number of cold-path handler threads; `0` picks the default (2).
    handler_threads: usize,
    /// Cap on the pipeline window granted to clients; `0` means the
    /// protocol maximum ([`MAX_PIPELINE_DEPTH`]).
    max_pipeline_depth: u32,
    /// When set, an exporter thread rewrites this file about once a
    /// second with the Prometheus text rendering of the server's
    /// metrics (and once more on shutdown).
    metrics_text: Option<PathBuf>,
}

/// Fluent construction for a [`Server`]: sockets, limits, fault plan
/// and metrics sink in one chain, ending in
/// [`ServerBuilder::start`].
///
/// ```no_run
/// use std::time::Duration;
/// use bolt_serve::Server;
/// # fn core() -> bolt_serve::ServeCore { unimplemented!() }
/// let server = Server::builder()
///     .tcp("127.0.0.1:0")
///     .max_connections(64)
///     .request_deadline(Duration::from_secs(30))
///     .start(core())
///     .unwrap();
/// ```
#[derive(Default, Clone, Debug)]
pub struct ServerBuilder {
    config: ServerConfig,
}

impl ServerBuilder {
    /// Listen on a Unix-domain socket at `path`.
    pub fn unix(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.unix = Some(path.into());
        self
    }

    /// Listen on a TCP address (e.g. `127.0.0.1:0` for an ephemeral
    /// port).
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.config.tcp = Some(addr.into());
        self
    }

    /// Cap concurrently served connections (`0` = unlimited).
    pub fn max_connections(mut self, n: usize) -> Self {
        self.config.max_connections = n;
        self
    }

    /// Close connections that send nothing for `d`.
    pub fn idle_timeout(mut self, d: Duration) -> Self {
        self.config.idle_timeout = Some(d);
        self
    }

    /// Bound one request's handling time.
    pub fn request_deadline(mut self, d: Duration) -> Self {
        self.config.request_deadline = Some(d);
        self
    }

    /// Inject a deterministic fault plan into this server's I/O and
    /// handling paths.
    pub fn fault(mut self, plan: Arc<FaultPlan>) -> Self {
        self.config.fault = Some(plan);
        self
    }

    /// Number of event-loop workers (`0` = default).
    pub fn event_workers(mut self, n: usize) -> Self {
        self.config.event_workers = n;
        self
    }

    /// Number of cold-path handler threads (`0` = default).
    pub fn handler_threads(mut self, n: usize) -> Self {
        self.config.handler_threads = n;
        self
    }

    /// Cap the pipeline window granted to clients (`0` = protocol
    /// maximum).
    pub fn max_pipeline_depth(mut self, depth: u32) -> Self {
        self.config.max_pipeline_depth = depth;
        self
    }

    /// Periodically export the server's metrics as Prometheus text to
    /// `path` (atomic tmp-and-rename writes).
    pub fn metrics_text(mut self, path: impl Into<PathBuf>) -> Self {
        self.config.metrics_text = Some(path.into());
        self
    }

    /// Bind the configured endpoints and start the engine.
    pub fn start(self, core: ServeCore) -> io::Result<Server> {
        Server::start(core, self.config)
    }
}

/// Per-connection enforcement state shared by every engine thread.
#[derive(Clone)]
struct Limits {
    max_connections: usize,
    idle_timeout: Option<Duration>,
    request_deadline: Option<Duration>,
    max_depth: u32,
    fault: Option<Arc<FaultPlan>>,
    active: Arc<AtomicUsize>,
}

/// Decrements the active-connection count (and the exported
/// `serve.active_connections` gauge) however the connection ends.
struct ActiveGuard(Arc<AtomicUsize>, Arc<Gauge>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
        self.1.dec();
    }
}

/// A running server: acceptor/event/handler threads, shutdown
/// plumbing. Dropped handles keep running; call [`Server::join`] to
/// drain and stop.
pub struct Server {
    core: Arc<ServeCore>,
    shutdown: Arc<AtomicBool>,
    engine: Arc<Engine>,
    accept_handles: Vec<JoinHandle<()>>,
    event_handles: Vec<JoinHandle<()>>,
    handler_handles: Vec<JoinHandle<()>>,
    exporter: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Start describing a server; finish with
    /// [`ServerBuilder::start`].
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    fn start(core: ServeCore, config: ServerConfig) -> io::Result<Server> {
        if config.unix.is_none() && config.tcp.is_none() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "server config names no endpoint (need a unix path or a tcp address)",
            ));
        }
        #[cfg(not(unix))]
        if config.unix.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix sockets are unavailable on this platform; use --tcp",
            ));
        }
        let core = Arc::new(core);
        let shutdown = Arc::new(AtomicBool::new(false));
        let limits = Limits {
            max_connections: config.max_connections,
            idle_timeout: config.idle_timeout,
            request_deadline: config.request_deadline,
            max_depth: if config.max_pipeline_depth == 0 {
                MAX_PIPELINE_DEPTH
            } else {
                config.max_pipeline_depth.min(MAX_PIPELINE_DEPTH)
            },
            fault: config.fault.clone(),
            active: Arc::new(AtomicUsize::new(0)),
        };

        // Bind everything fallible before spawning any thread.
        let mut tcp_addr = None;
        let mut tcp_listener = None;
        if let Some(addr) = &config.tcp {
            let listener = TcpListener::bind(addr.as_str())?;
            listener.set_nonblocking(true)?;
            tcp_addr = Some(listener.local_addr()?);
            tcp_listener = Some(listener);
        }
        let mut unix_path = None;
        #[cfg(unix)]
        let mut unix_listener = None;
        #[cfg(unix)]
        if let Some(path) = &config.unix {
            reclaim_unix_socket(path)?;
            let listener = UnixListener::bind(path)?;
            listener.set_nonblocking(true)?;
            unix_path = Some(path.clone());
            unix_listener = Some(listener);
        }

        let n_event = if config.event_workers == 0 {
            DEFAULT_EVENT_WORKERS
        } else {
            config.event_workers
        };
        let n_handler = if config.handler_threads == 0 {
            DEFAULT_HANDLER_THREADS
        } else {
            config.handler_threads
        };
        let mut workers = Vec::with_capacity(n_event);
        let mut wake_rxs = Vec::with_capacity(n_event);
        for _ in 0..n_event {
            let (waker, rx) = Waker::pair()?;
            workers.push(Arc::new(WorkerShared {
                inbox: Mutex::new(Vec::new()),
                completions: Mutex::new(Vec::new()),
                waker,
            }));
            wake_rxs.push(rx);
        }
        let engine = Arc::new(Engine {
            core: Arc::clone(&core),
            shutdown: Arc::clone(&shutdown),
            limits,
            workers,
            jobs: JobQueue::default(),
            next_worker: AtomicUsize::new(0),
            live_event_workers: AtomicUsize::new(n_event),
        });

        let mut event_handles = Vec::with_capacity(n_event);
        for (wid, rx) in wake_rxs.into_iter().enumerate() {
            let engine = Arc::clone(&engine);
            event_handles.push(std::thread::spawn(move || {
                EventWorker::new(wid, engine, rx).run()
            }));
        }
        let mut handler_handles = Vec::with_capacity(n_handler);
        for _ in 0..n_handler {
            let engine = Arc::clone(&engine);
            handler_handles.push(std::thread::spawn(move || handler_worker(engine)));
        }

        let mut accept_handles = Vec::new();
        if let Some(listener) = tcp_listener {
            accept_handles.push(spawn_acceptor(
                Arc::clone(&engine),
                move || match listener.accept() {
                    Ok((s, _)) => {
                        let _ = s.set_nodelay(true);
                        Some(Ok(Box::new(s) as Box<dyn Conn>))
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => Some(Err(e)),
                },
            ));
        }
        #[cfg(unix)]
        if let Some(listener) = unix_listener {
            accept_handles.push(spawn_acceptor(
                Arc::clone(&engine),
                move || match listener.accept() {
                    Ok((s, _)) => Some(Ok(Box::new(s) as Box<dyn Conn>)),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => None,
                    Err(e) => Some(Err(e)),
                },
            ));
        }

        let exporter = config.metrics_text.as_ref().map(|path| {
            let path = path.clone();
            let stop = Arc::new(AtomicBool::new(false));
            let flag = Arc::clone(&stop);
            let core = Arc::clone(&core);
            let handle = std::thread::spawn(move || loop {
                write_metrics_text(&path, &core);
                for _ in 0..10 {
                    if flag.load(Ordering::SeqCst) {
                        write_metrics_text(&path, &core);
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            });
            (stop, handle)
        });

        Ok(Server {
            core,
            shutdown,
            engine,
            accept_handles,
            event_handles,
            handler_handles,
            exporter,
            tcp_addr,
            unix_path,
        })
    }

    /// The bound TCP address, when a TCP endpoint was configured (the
    /// way callers learn an ephemeral port).
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The bound Unix socket path, when one was configured.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// The shared query engine (for in-process inspection in tests and
    /// benches).
    pub fn core(&self) -> &Arc<ServeCore> {
        &self.core
    }

    /// Total engine threads this server runs: acceptors + event
    /// workers + handlers + exporter. The figure is fixed at start and
    /// independent of how many connections are open — the property the
    /// 1024-connection soak test pins.
    pub fn worker_threads(&self) -> usize {
        self.accept_handles.len()
            + self.event_handles.len()
            + self.handler_handles.len()
            + usize::from(self.exporter.is_some())
    }

    /// Raise the shutdown flag: accept loops stop, connections drain.
    /// Also raised when any client sends a `Shutdown` request.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.engine.wake_all();
    }

    /// Block until the server has fully stopped: waits for the
    /// shutdown flag, joins every engine thread (connections finish
    /// answering what they already received), flushes pending
    /// cache-hit touches to the store's LRU stamps, and removes the
    /// Unix socket file. Returns the engine for post-mortem
    /// inspection.
    pub fn join(mut self) -> Arc<ServeCore> {
        while !self.shutdown.load(Ordering::SeqCst) {
            std::thread::sleep(POLL);
        }
        // The flag may have been flipped by a client request on an
        // event loop; re-assert the wakeups so nobody sleeps through
        // it.
        self.engine.wake_all();
        for h in self.accept_handles.drain(..) {
            let _ = h.join();
        }
        for h in self.event_handles.drain(..) {
            let _ = h.join();
        }
        self.engine.jobs.notify_all();
        for h in self.handler_handles.drain(..) {
            let _ = h.join();
        }
        if let Some((stop, handle)) = self.exporter.take() {
            stop.store(true, Ordering::SeqCst);
            let _ = handle.join();
        }
        self.core.flush_touches();
        #[cfg(unix)]
        if let Some(path) = &self.unix_path {
            let _ = std::fs::remove_file(path);
        }
        self.core
    }
}

/// Atomically (tmp + rename) write the server's Prometheus text
/// exposition; best-effort, a failed write never takes the server
/// down.
fn write_metrics_text(path: &Path, core: &ServeCore) {
    let text = core.metrics().snapshot().to_prometheus();
    let tmp = path.with_extension("tmp");
    if std::fs::write(&tmp, text).is_ok() {
        let _ = std::fs::rename(&tmp, path);
    }
}

/// Make a Unix socket path bindable without stealing it from a live
/// server:
///
/// * nothing at the path → fine, bind;
/// * a non-socket at the path → refuse (it is not ours to delete);
/// * a socket someone answers → `AddrInUse`;
/// * a socket nobody answers (a crashed server's leftover) → unlink.
#[cfg(unix)]
fn reclaim_unix_socket(path: &Path) -> io::Result<()> {
    use std::os::unix::fs::FileTypeExt;
    let meta = match std::fs::symlink_metadata(path) {
        Ok(m) => m,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    if !meta.file_type().is_socket() {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            format!(
                "{} exists and is not a socket; refusing to remove it",
                path.display()
            ),
        ));
    }
    match UnixStream::connect(path) {
        Ok(_) => Err(io::Error::new(
            io::ErrorKind::AddrInUse,
            format!("{} is in use by a live server", path.display()),
        )),
        // Nobody home: a stale socket from an unclean death. Reclaim it.
        Err(_) => std::fs::remove_file(path),
    }
}

/// Anything a connection runs over: both socket families read, write,
/// toggle nonblocking mode, and (on Linux) expose an fd for poll(2).
trait Conn: Read + Write + Send {
    /// Toggle nonblocking mode on the underlying socket.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    /// The raw fd, for readiness registration.
    #[cfg(target_os = "linux")]
    fn raw_fd(&self) -> std::os::fd::RawFd;
}

impl Conn for TcpStream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        TcpStream::set_nonblocking(self, nonblocking)
    }
    #[cfg(target_os = "linux")]
    fn raw_fd(&self) -> std::os::fd::RawFd {
        std::os::fd::AsRawFd::as_raw_fd(self)
    }
}

#[cfg(unix)]
impl Conn for UnixStream {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UnixStream::set_nonblocking(self, nonblocking)
    }
    #[cfg(target_os = "linux")]
    fn raw_fd(&self) -> std::os::fd::RawFd {
        std::os::fd::AsRawFd::as_raw_fd(self)
    }
}

impl Conn for Box<dyn Conn> {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        (**self).set_nonblocking(nonblocking)
    }
    #[cfg(target_os = "linux")]
    fn raw_fd(&self) -> std::os::fd::RawFd {
        (**self).raw_fd()
    }
}

/// A transport wrapper that injects deterministic faults from a
/// [`FaultPlan`] into the server's half of the connection: read errors,
/// spurious EOFs (mid-frame disconnects), stalls, torn writes. The
/// server code underneath is exercised exactly as a flaky network would
/// exercise it, but reproducibly.
struct FaultStream<S> {
    inner: S,
    plan: Arc<FaultPlan>,
}

impl<S: Read> Read for FaultStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.plan.fires(site::SERVE_READ_STALL) {
            std::thread::sleep(self.plan.stall());
        }
        if self.plan.fires(site::SERVE_READ_DISCONNECT) {
            return Ok(0); // spurious EOF: the peer "vanished"
        }
        if let Some(e) = self.plan.io_fault(site::SERVE_READ_ERR, "read") {
            return Err(e);
        }
        self.inner.read(buf)
    }
}

impl<S: Write> Write for FaultStream<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.plan.fires(site::SERVE_WRITE_PARTIAL) {
            // Tear the write: half the bytes reach the wire, then the
            // "connection" dies. The client sees a truncated frame.
            let _ = self.inner.write(&buf[..buf.len() / 2]);
            let _ = self.inner.flush();
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "injected fault at serve.write.partial: torn write",
            ));
        }
        if let Some(e) = self.plan.io_fault(site::SERVE_WRITE_ERR, "write") {
            return Err(e);
        }
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl<S: Conn> Conn for FaultStream<S> {
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }
    #[cfg(target_os = "linux")]
    fn raw_fd(&self) -> std::os::fd::RawFd {
        self.inner.raw_fd()
    }
}

/// poll(2) bindings, declared directly (std already links libc) so the
/// engine needs no external crate.
#[cfg(target_os = "linux")]
mod readiness {
    use std::os::fd::RawFd;
    use std::os::raw::{c_int, c_short, c_ulong};

    #[repr(C)]
    pub(super) struct PollFd {
        pub(super) fd: RawFd,
        pub(super) events: c_short,
        pub(super) revents: c_short,
    }

    pub(super) const POLLIN: c_short = 0x001;
    pub(super) const POLLOUT: c_short = 0x004;
    pub(super) const POLLERR: c_short = 0x008;
    pub(super) const POLLHUP: c_short = 0x010;
    pub(super) const POLLNVAL: c_short = 0x020;

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
    }

    /// Block until any fd is ready or the timeout elapses; fills
    /// `revents` in place. A return of -1 (EINTR etc.) is treated as
    /// "nothing ready", which the caller's next pass absorbs.
    pub(super) fn wait(fds: &mut [PollFd], timeout_ms: i32) {
        unsafe {
            poll(fds.as_mut_ptr(), fds.len() as c_ulong, timeout_ms);
        }
    }
}

/// One half of a worker wake-up channel: any thread may `wake()` it to
/// make the owning event loop's poll return immediately.
struct Waker {
    #[cfg(unix)]
    tx: UnixStream,
}

/// The receiving half, owned by the event loop and registered in its
/// poll set.
struct WakeRx {
    #[cfg(unix)]
    rx: UnixStream,
}

impl Waker {
    fn pair() -> io::Result<(Waker, WakeRx)> {
        #[cfg(unix)]
        {
            let (tx, rx) = UnixStream::pair()?;
            tx.set_nonblocking(true)?;
            rx.set_nonblocking(true)?;
            Ok((Waker { tx }, WakeRx { rx }))
        }
        #[cfg(not(unix))]
        {
            Ok((Waker {}, WakeRx {}))
        }
    }

    fn wake(&self) {
        // A full pipe already guarantees a pending wakeup; ignore it.
        #[cfg(unix)]
        {
            let _ = (&self.tx).write(&[1u8]);
        }
    }
}

impl WakeRx {
    /// Swallow every pending wake token.
    fn drain(&mut self) {
        #[cfg(unix)]
        {
            let mut buf = [0u8; 64];
            while matches!((&self.rx).read(&mut buf), Ok(n) if n > 0) {}
        }
    }

    #[cfg(target_os = "linux")]
    fn raw_fd(&self) -> std::os::fd::RawFd {
        std::os::fd::AsRawFd::as_raw_fd(&self.rx)
    }
}

/// A freshly accepted connection en route to its event worker.
struct NewConn {
    stream: Box<dyn Conn>,
    conn_id: u64,
    guard: ActiveGuard,
}

/// A cold request handed off the event loop.
struct Job {
    wid: usize,
    slot: usize,
    gen: u64,
    seq: u64,
    corr: u64,
    req: Request,
}

/// A handler's finished answer, routed back to the owning worker.
struct Completion {
    slot: usize,
    gen: u64,
    seq: u64,
    /// Encoded response payload, correlation id included.
    payload: Vec<u8>,
    handle_ns: u64,
}

/// The cold-request queue between event loops and handler threads.
#[derive(Default)]
struct JobQueue {
    q: Mutex<VecDeque<Job>>,
    cv: Condvar,
}

impl JobQueue {
    fn push(&self, job: Job) {
        self.q.lock().expect("jobs poisoned").push_back(job);
        self.cv.notify_one();
    }

    fn pop(&self, timeout: Duration) -> Option<Job> {
        let mut q = self.q.lock().expect("jobs poisoned");
        if let Some(j) = q.pop_front() {
            return Some(j);
        }
        let (mut q, _) = self.cv.wait_timeout(q, timeout).expect("jobs poisoned");
        q.pop_front()
    }

    fn is_empty(&self) -> bool {
        self.q.lock().expect("jobs poisoned").is_empty()
    }

    fn notify_all(&self) {
        self.cv.notify_all();
    }
}

/// Per-worker mailboxes: new connections from the acceptors,
/// completions from the handler pool, and the waker that makes the
/// loop look at them.
struct WorkerShared {
    inbox: Mutex<Vec<NewConn>>,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

/// Everything the engine threads share.
struct Engine {
    core: Arc<ServeCore>,
    shutdown: Arc<AtomicBool>,
    limits: Limits,
    workers: Vec<Arc<WorkerShared>>,
    jobs: JobQueue,
    next_worker: AtomicUsize,
    live_event_workers: AtomicUsize,
}

impl Engine {
    fn wake_all(&self) {
        self.jobs.notify_all();
        for w in &self.workers {
            w.waker.wake();
        }
    }
}

/// One in-flight request on a connection, keyed by arrival order
/// (`seq`) and released the moment it completes.
struct Pending {
    seq: u64,
    op: Opcode,
    read_ns: u64,
    done: Option<(Vec<u8>, u64)>,
}

/// One connection's full state machine on its event loop.
struct Connection {
    conn_id: u64,
    gen: u64,
    stream: Box<dyn Conn>,
    fb: FrameBuffer,
    wbuf: Vec<u8>,
    wpos: usize,
    pending: VecDeque<Pending>,
    /// Negotiated pipeline window (1 until a `Hello` raises it).
    depth: u32,
    next_seq: u64,
    idle_since: Instant,
    read_started: Option<Instant>,
    closing: Option<&'static str>,
    _guard: ActiveGuard,
}

impl Connection {
    fn new(nc: NewConn, gen: u64) -> Connection {
        Connection {
            conn_id: nc.conn_id,
            gen,
            stream: nc.stream,
            fb: FrameBuffer::new(),
            wbuf: Vec::new(),
            wpos: 0,
            pending: VecDeque::new(),
            depth: 1,
            next_seq: 0,
            idle_since: Instant::now(),
            read_started: None,
            closing: None,
            _guard: nc.guard,
        }
    }

    /// Whether the loop should poll this socket for readability: never
    /// past the pipeline window (backpressure) or once closing.
    fn wants_read(&self) -> bool {
        self.closing.is_none() && (self.pending.len() as u32) < self.depth
    }

    /// Whether unflushed reply bytes are waiting for the socket.
    fn wants_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    /// Append one length-prefixed frame to the write buffer.
    fn queue_frame(&mut self, payload: &[u8]) {
        debug_assert!(payload.len() as u64 <= crate::protocol::MAX_FRAME as u64);
        self.wbuf
            .extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.wbuf.extend_from_slice(payload);
    }

    /// Queue an error reply (`corr` 0 when no request can be blamed).
    fn queue_error(&mut self, corr: u64, message: String) {
        self.queue_frame(&Response::Error { message }.encode_v2(corr));
    }

    /// Push as much of the write buffer as the socket takes right now.
    fn try_write(&mut self) -> io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
        if self.wpos >= self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos > 0 {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        Ok(())
    }

    /// Abandon the connection now: no drain, no pending answers.
    fn hard_close(&mut self, reason: &'static str) {
        self.pending.clear();
        self.wbuf.clear();
        self.wpos = 0;
        self.closing = Some(reason);
    }
}

/// Best-effort correlation id for a frame whose body failed to decode:
/// if the frame at least led with the version byte and an opcode, read
/// the correlation varint so the client can attribute the error;
/// otherwise 0 (the reserved "unattributable" id).
fn corr_hint(payload: &[u8]) -> u64 {
    if payload.len() > 2 && payload[0] == PROTOCOL_VERSION {
        let mut r = bolt_store::ByteReader::new(&payload[2..]);
        if let Ok(corr) = r.varint() {
            return corr;
        }
    }
    0
}

/// Run one decoded request against the core — fault stall, handling,
/// deadline enforcement — and return the encoded reply payload plus
/// the handle-phase nanoseconds. Shared verbatim by the inline path
/// and the handler pool, so an answer is identical wherever it ran.
fn run_request(core: &ServeCore, limits: &Limits, req: &Request, corr: u64) -> (Vec<u8>, u64) {
    let started = Instant::now();
    // Injected slowness counts against the deadline like real slowness.
    if let Some(plan) = &limits.fault {
        if plan.fires(site::SERVE_HANDLE_STALL) {
            std::thread::sleep(plan.stall());
        }
    }
    let mut reply = core.handle(req);
    let handled = Instant::now();
    let handle_ns = handled.duration_since(started).as_nanos() as u64;
    core.phase_histogram(Phase::Handle).record(handle_ns);
    if let Some(deadline) = limits.request_deadline {
        let elapsed = handled.duration_since(started);
        // Exploration cannot be aborted mid-flight, so the work ran to
        // completion either way (and is persisted for next time) — but
        // an answer slower than the deadline is not the answer the
        // client contracted for. Shutdown acks are exempt.
        if elapsed > deadline && !matches!(req, Request::Shutdown) {
            core.note_deadline_exceeded();
            reply = Response::Error {
                message: format!(
                    "deadline exceeded: request took {elapsed:?} (limit {deadline:?})"
                ),
            };
        }
    }
    (reply.encode_v2(corr), handle_ns)
}

/// Pop every complete frame the pipeline window allows and process it.
fn pump_frames(engine: &Engine, wid: usize, slot: usize, conn: &mut Connection) {
    while conn.closing.is_none() && (conn.pending.len() as u32) < conn.depth {
        match conn.fb.next_frame() {
            Ok(Some(payload)) => {
                let read_ns = conn
                    .read_started
                    .take()
                    .map_or(0, |t| t.elapsed().as_nanos() as u64);
                engine.core.phase_histogram(Phase::Read).record(read_ns);
                process_frame(engine, wid, slot, conn, &payload, read_ns);
                conn.idle_since = Instant::now();
            }
            Ok(None) => break,
            Err(e) => {
                // A length prefix beyond MAX_FRAME: the stream cannot
                // be resynchronised past an untrusted length.
                engine.core.note_protocol_error();
                conn.queue_error(0, e.to_string());
                conn.closing = Some("frame-desync");
            }
        }
    }
}

/// Decode one frame and route it: negotiate (`Hello`), answer inline,
/// or hand off to the handler pool.
fn process_frame(
    engine: &Engine,
    wid: usize,
    slot: usize,
    conn: &mut Connection,
    payload: &[u8],
    read_ns: u64,
) {
    let core = &engine.core;
    let DecodedRequest { corr, req } = match Request::decode_framed(payload) {
        Ok(d) => d,
        Err(e) => {
            // Bad body, intact framing: answer the error, keep serving.
            core.note_protocol_error();
            conn.queue_error(corr_hint(payload), format!("bad request: {e}"));
            return;
        }
    };
    let op = req.opcode();
    let seq = conn.next_seq;
    conn.next_seq += 1;
    if let Request::Hello { depth } = &req {
        // Negotiation is answered by the engine itself (the core's
        // Hello handling exists for in-process callers) and must be the
        // first thing on a fresh connection.
        if seq != 0 {
            core.note_protocol_error();
            conn.queue_error(
                corr,
                "hello must be the first request on a connection".into(),
            );
            return;
        }
        let started = Instant::now();
        // Never 0: a zero window would stop this connection reading.
        conn.depth = (*depth).clamp(1, engine.limits.max_depth);
        let ack = Response::HelloAck { depth: conn.depth };
        let handle_ns = started.elapsed().as_nanos() as u64;
        core.phase_histogram(Phase::Handle).record(handle_ns);
        conn.pending.push_back(Pending {
            seq,
            op,
            read_ns,
            done: Some((ack.encode_v2(corr), handle_ns)),
        });
        return;
    }
    match core.dispatch(&req) {
        Dispatch::Inline => {
            let is_shutdown = matches!(req, Request::Shutdown);
            let (payload, handle_ns) = run_request(core, &engine.limits, &req, corr);
            conn.pending.push_back(Pending {
                seq,
                op,
                read_ns,
                done: Some((payload, handle_ns)),
            });
            if is_shutdown {
                // Flag after queueing the ack, so the requester gets
                // it; the soft close drains the write buffer first.
                engine.shutdown.store(true, Ordering::SeqCst);
                engine.wake_all();
                conn.closing = Some("shutdown");
            }
        }
        Dispatch::Offload => {
            conn.pending.push_back(Pending {
                seq,
                op,
                read_ns,
                done: None,
            });
            engine.jobs.push(Job {
                wid,
                slot,
                gen: conn.gen,
                seq,
                corr,
                req,
            });
        }
    }
}

/// Move finished replies into the write buffer in completion order,
/// then push bytes at the socket once for the whole burst.
fn release_and_flush(core: &ServeCore, conn: &mut Connection) {
    let mut metas: Vec<(Opcode, u64)> = Vec::new();
    let mut i = 0;
    while i < conn.pending.len() {
        if conn.pending[i].done.is_some() {
            let p = conn.pending.remove(i).expect("indexed entry");
            let (payload, handle_ns) = p.done.expect("checked done");
            conn.queue_frame(&payload);
            metas.push((p.op, p.read_ns + handle_ns));
        } else {
            i += 1;
        }
    }
    if !conn.wants_write() {
        return;
    }
    let started = Instant::now();
    let result = conn.try_write();
    let write_ns = started.elapsed().as_nanos() as u64;
    if !metas.is_empty() {
        core.phase_histogram(Phase::Write).record(write_ns);
        for (op, ns) in metas {
            core.request_histogram(op).record(ns + write_ns);
        }
    }
    if result.is_err() {
        conn.hard_close("write-failed");
    }
}

/// Drain a readable socket into the frame buffer, answering as frames
/// complete.
fn handle_readable(
    engine: &Engine,
    wid: usize,
    slot: usize,
    conn: &mut Connection,
    buf: &mut [u8],
) {
    loop {
        pump_frames(engine, wid, slot, conn);
        if conn.closing.is_some() || !conn.wants_read() {
            break;
        }
        match conn.stream.read(buf) {
            Ok(0) => {
                // Soft close: anything fully received is still
                // answered (the drain guarantee), then the slot frees.
                conn.closing = Some("eof");
                break;
            }
            Ok(n) => {
                conn.fb.extend(&buf[..n]);
                conn.read_started.get_or_insert_with(Instant::now);
                conn.idle_since = Instant::now();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(_) => {
                conn.hard_close("read-error");
                break;
            }
        }
    }
    release_and_flush(&engine.core, conn);
}

/// One event loop over the connections routed to it.
struct EventWorker {
    wid: usize,
    engine: Arc<Engine>,
    shared: Arc<WorkerShared>,
    wake_rx: WakeRx,
    slots: Vec<Option<Connection>>,
    free: Vec<usize>,
    next_gen: u64,
}

impl EventWorker {
    fn new(wid: usize, engine: Arc<Engine>, wake_rx: WakeRx) -> EventWorker {
        let shared = Arc::clone(&engine.workers[wid]);
        EventWorker {
            wid,
            engine,
            shared,
            wake_rx,
            slots: Vec::new(),
            free: Vec::new(),
            next_gen: 0,
        }
    }

    fn run(mut self) {
        let mut buf = vec![0u8; READ_CHUNK];
        loop {
            let ready = self.wait();
            self.wake_rx.drain();
            self.apply_completions();
            self.admit_new();
            for (slot, readable, writable) in ready {
                if readable {
                    if let Some(conn) = self.slots[slot].as_mut() {
                        handle_readable(&self.engine, self.wid, slot, conn, &mut buf);
                    }
                }
                if writable {
                    if let Some(conn) = self.slots[slot].as_mut() {
                        if conn.wants_write() && conn.try_write().is_err() {
                            conn.hard_close("write-failed");
                        }
                    }
                }
            }
            self.tick();
            self.engine.core.drain_touches();
            if self.engine.shutdown.load(Ordering::SeqCst)
                && self.slots.iter().all(|s| s.is_none())
                && self.shared.inbox.lock().expect("inbox poisoned").is_empty()
            {
                self.engine
                    .live_event_workers
                    .fetch_sub(1, Ordering::SeqCst);
                // Handlers gate their exit on live event workers; make
                // sure none sleeps through the last decrement.
                self.engine.jobs.notify_all();
                return;
            }
        }
    }

    /// Wait for readiness; returns `(slot, readable, writable)` per
    /// ready connection.
    #[cfg(target_os = "linux")]
    fn wait(&mut self) -> Vec<(usize, bool, bool)> {
        use readiness::{PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL, POLLOUT};
        let mut fds = Vec::with_capacity(self.slots.len() + 1);
        let mut map = Vec::with_capacity(self.slots.len());
        fds.push(PollFd {
            fd: self.wake_rx.raw_fd(),
            events: POLLIN,
            revents: 0,
        });
        for (i, slot) in self.slots.iter().enumerate() {
            if let Some(conn) = slot {
                let mut events = 0;
                if conn.wants_read() {
                    events |= POLLIN;
                }
                if conn.wants_write() {
                    events |= POLLOUT;
                }
                if events != 0 {
                    fds.push(PollFd {
                        fd: conn.stream.raw_fd(),
                        events,
                        revents: 0,
                    });
                    map.push(i);
                }
            }
        }
        readiness::wait(&mut fds, POLL.as_millis() as i32);
        let err_bits = POLLERR | POLLHUP | POLLNVAL;
        let mut out = Vec::new();
        for (k, slot) in map.into_iter().enumerate() {
            let f = &fds[k + 1];
            let errored = f.revents & err_bits != 0;
            let readable = f.events & POLLIN != 0 && (f.revents & POLLIN != 0 || errored);
            let writable = f.events & POLLOUT != 0 && (f.revents & POLLOUT != 0 || errored);
            if readable || writable {
                out.push((slot, readable, writable));
            }
        }
        out
    }

    /// Portable fallback: a short sleep, then sweep every connection
    /// as maybe-ready (nonblocking reads make the sweep cheap).
    #[cfg(not(target_os = "linux"))]
    fn wait(&mut self) -> Vec<(usize, bool, bool)> {
        std::thread::sleep(Duration::from_millis(5));
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                s.as_ref()
                    .map(|conn| (i, conn.wants_read(), conn.wants_write()))
            })
            .filter(|(_, r, w)| *r || *w)
            .collect()
    }

    /// Fold finished handler answers into their connections and flush.
    fn apply_completions(&mut self) {
        let comps: Vec<Completion> = {
            let mut guard = self
                .shared
                .completions
                .lock()
                .expect("completions poisoned");
            guard.drain(..).collect()
        };
        for c in comps {
            let Some(conn) = self.slots.get_mut(c.slot).and_then(Option::as_mut) else {
                continue;
            };
            // A stale completion for a connection that died and whose
            // slot was reused must not answer the new tenant.
            if conn.gen != c.gen {
                continue;
            }
            if let Some(p) = conn
                .pending
                .iter_mut()
                .find(|p| p.seq == c.seq && p.done.is_none())
            {
                p.done = Some((c.payload, c.handle_ns));
            }
            release_and_flush(&self.engine.core, conn);
        }
    }

    /// Seat newly accepted connections into free slots.
    fn admit_new(&mut self) {
        let incoming: Vec<NewConn> = {
            let mut inbox = self.shared.inbox.lock().expect("inbox poisoned");
            inbox.drain(..).collect()
        };
        for nc in incoming {
            self.next_gen += 1;
            let conn = Connection::new(nc, self.next_gen);
            match self.free.pop() {
                Some(slot) => self.slots[slot] = Some(conn),
                None => self.slots.push(Some(conn)),
            }
        }
    }

    /// Housekeeping pass: pump frames parked behind the pipeline
    /// window, drain-under-shutdown, idle timeout, and slot reclaim.
    fn tick(&mut self) {
        for slot in 0..self.slots.len() {
            let engine = Arc::clone(&self.engine);
            let Some(conn) = self.slots[slot].as_mut() else {
                continue;
            };
            pump_frames(&engine, self.wid, slot, conn);
            release_and_flush(&engine.core, conn);
            let quiescent = conn.pending.is_empty() && !conn.wants_write();
            if conn.closing.is_none() && quiescent {
                if engine.shutdown.load(Ordering::SeqCst) {
                    // Bytes written before a shutdown are already in
                    // the frame buffer, so a quiescent stream under
                    // shutdown has nothing left to drain.
                    conn.closing = Some("drained");
                } else if let Some(max_idle) = engine.limits.idle_timeout {
                    if conn.idle_since.elapsed() >= max_idle {
                        engine.core.note_idle_close();
                        conn.closing = Some("idle-timeout");
                    }
                }
            }
            if let Some(reason) = conn.closing {
                if conn.pending.is_empty() && !conn.wants_write() {
                    let conn = self.slots[slot].take().expect("checked occupied");
                    trace::emit(
                        "serve.conn.close",
                        &[("id", conn.conn_id.into()), ("reason", reason.into())],
                    );
                    self.free.push(slot);
                }
            }
        }
    }
}

/// A handler thread: absorb cold requests so the event loops never
/// block on the solver; route each answer back to the owning worker.
fn handler_worker(engine: Arc<Engine>) {
    loop {
        match engine.jobs.pop(POLL) {
            Some(job) => {
                let (payload, handle_ns) =
                    run_request(&engine.core, &engine.limits, &job.req, job.corr);
                let worker = &engine.workers[job.wid];
                worker
                    .completions
                    .lock()
                    .expect("completions poisoned")
                    .push(Completion {
                        slot: job.slot,
                        gen: job.gen,
                        seq: job.seq,
                        payload,
                        handle_ns,
                    });
                worker.waker.wake();
            }
            None => {
                if engine.shutdown.load(Ordering::SeqCst)
                    && engine.jobs.is_empty()
                    && engine.live_event_workers.load(Ordering::SeqCst) == 0
                {
                    return;
                }
            }
        }
    }
}

/// Spawn one accept loop over a nonblocking listener: enforce the
/// connection cap, then route the socket to an event worker
/// round-robin.
fn spawn_acceptor(
    engine: Arc<Engine>,
    mut accept: impl FnMut() -> Option<io::Result<Box<dyn Conn>>> + Send + 'static,
) -> JoinHandle<()> {
    std::thread::spawn(move || loop {
        match accept() {
            Some(Ok(mut stream)) => {
                let core = &engine.core;
                let conn_id = core.note_connection();
                // Claim a slot before routing, so the cap holds even
                // while a burst of accepts races the event loops.
                let taken = engine.limits.active.fetch_add(1, Ordering::SeqCst);
                core.connection_gauge().inc();
                let guard = ActiveGuard(
                    Arc::clone(&engine.limits.active),
                    Arc::clone(core.connection_gauge()),
                );
                if engine.limits.max_connections > 0 && taken >= engine.limits.max_connections {
                    core.note_busy_reject();
                    trace::emit("serve.conn.busy", &[("id", conn_id.into())]);
                    let reply = Response::Error {
                        message: format!(
                            "server busy: {} connection(s) already active; retry later",
                            engine.limits.max_connections
                        ),
                    };
                    // The socket is still blocking here, so the reject
                    // frame goes out before the close.
                    let _ = write_frame(&mut stream, &reply.encode_v2(0));
                    drop(guard); // releases the slot; stream drops too
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    trace::emit(
                        "serve.conn.close",
                        &[("id", conn_id.into()), ("reason", "setup-failed".into())],
                    );
                    drop(guard);
                    continue;
                }
                trace::emit("serve.conn.open", &[("id", conn_id.into())]);
                let stream: Box<dyn Conn> = match engine.limits.fault.clone() {
                    Some(plan) => Box::new(FaultStream {
                        inner: stream,
                        plan,
                    }),
                    None => stream,
                };
                let wid = engine.next_worker.fetch_add(1, Ordering::SeqCst) % engine.workers.len();
                engine.workers[wid]
                    .inbox
                    .lock()
                    .expect("inbox poisoned")
                    .push(NewConn {
                        stream,
                        conn_id,
                        guard,
                    });
                engine.workers[wid].waker.wake();
            }
            Some(Err(_)) | None => {
                if engine.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(POLL);
            }
        }
    })
}
