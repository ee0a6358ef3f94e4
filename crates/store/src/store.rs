//! The on-disk record store.
//!
//! One directory, one file per record, addressed by content fingerprint:
//!
//! ```text
//! <dir>/<fingerprint:032x>.<kind>.bolt
//! ```
//!
//! Each file is `header ‖ payload`. The header carries a magic number,
//! the store format version, the record kind and stack-level tag, the
//! fingerprint (so a renamed file cannot impersonate another key), a
//! last-used stamp (bumped in place by [`ContractStore::get`] and
//! [`ContractStore::touch`], the food of [`ContractStore::sweep`]'s LRU
//! ordering), the NF name and path count, and an FNV-1a-64 checksum of
//! the payload.
//!
//! Each record operation opens its file once. A `get` or `touch` opens
//! it read-write, reads through that descriptor, and writes the stamp
//! back with one positioned 8-byte write on the same descriptor; a
//! header read takes the file's length from `fstat` and reads the
//! header prefix once. A `get` costs one read and one write system
//! call, a `touch` the same, a header read one read.
//!
//! The format splits into two decode passes with different costs:
//! [`RecordHeader`] (everything before the payload, plus the payload's
//! length prefix) decodes from a small bounded read — this is what
//! [`ContractStore::list`], [`ContractStore::header`], and cache
//! admission decisions use — while the payload itself (the expensive
//! part: rehydrating a whole term pool) is only read and checksummed by
//! [`ContractStore::get`], i.e. lazily, when something actually needs
//! the record's contents. [`ContractStore::get`] re-verifies everything;
//! anything that does not check out — wrong magic, skewed version,
//! fingerprint mismatch, bad checksum, truncation — is treated as a
//! miss, never returned. Writes go through a temp file + rename so a
//! crashed writer can not leave a half-record under a valid name.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

use bolt_fault::{site, FaultPlan};
use bolt_obs::{trace, Counter, Histogram, Registry};

use crate::fingerprint::{fnv64, Fingerprint, STORE_FORMAT_VERSION};
use crate::wire::{ByteReader, ByteWriter, DecodeError};

/// Record file magic.
const MAGIC: &[u8; 4] = b"BLTS";

/// Byte offset of the last-used stamp within a record file. Fixed (it
/// sits before any variable-length field) so `get` can bump it with one
/// in-place 8-byte write instead of rewriting the record:
/// magic (4) + version (2) + kind (1) + level (1) + fingerprint (16).
const STAMP_OFFSET: u64 = 24;

/// Length of the fixed record prefix that ends with the stamp.
const STAMP_END: usize = STAMP_OFFSET as usize + 8;

/// A fresh last-used stamp: microseconds since the Unix epoch, forced
/// strictly monotone within this process so that same-instant accesses
/// still produce a total LRU order (what the sweep tests — and any
/// single-host workflow — rely on).
fn next_stamp() -> u64 {
    static LAST: AtomicU64 = AtomicU64::new(0);
    let now = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let mut prev = LAST.load(Ordering::Relaxed);
    loop {
        let next = now.max(prev + 1);
        match LAST.compare_exchange_weak(prev, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return next,
            Err(p) => prev = p,
        }
    }
}

/// What a record's payload encodes. Every kind has a reader: a kind is
/// only worth a file if something decodes it.
///
/// `Composed` and `Plan` were added within store-format version 2: each
/// introduces a new tag without changing the payload layout of the
/// existing kinds, so pre-existing stores stay readable and old binaries
/// simply reject the unknown tag (a miss, swept first under disk
/// pressure).
///
/// Tag 1 / file tag `ctr` (a per-NF `NfContract` that was written and
/// never decoded — serving regenerates the contract from the
/// `Exploration` record) is retired, never to be reused: a leftover
/// `*.ctr.bolt` no longer parses, so [`ContractStore::list`] skips it and
/// [`ContractStore::sweep`] evicts it first, like any format-skewed file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RecordKind {
    /// An encoded `ExplorationResult` (pool + feasible paths + stats).
    Exploration,
    /// An encoded composed-chain `NfContract`, keyed by the fingerprints
    /// of the two contracts it was composed from.
    Composed,
    /// An encoded chain parallelization plan (`ChainPlan`): groups of
    /// provably order-independent stages plus commutativity witnesses,
    /// keyed by the fingerprints of every stage in the chain.
    Plan,
}

impl RecordKind {
    fn tag(self) -> u8 {
        match self {
            RecordKind::Exploration => 0,
            // 1 is retired (see the type's doc).
            RecordKind::Composed => 2,
            RecordKind::Plan => 3,
        }
    }

    fn from_tag(t: u8) -> Result<Self, DecodeError> {
        match t {
            0 => Ok(RecordKind::Exploration),
            1 => Err(DecodeError::Malformed("record kind 1 is retired")),
            2 => Ok(RecordKind::Composed),
            3 => Ok(RecordKind::Plan),
            _ => Err(DecodeError::Malformed("record kind out of range")),
        }
    }

    fn file_tag(self) -> &'static str {
        match self {
            RecordKind::Exploration => "exp",
            // "ctr" is retired with tag 1.
            RecordKind::Composed => "cmp",
            RecordKind::Plan => "pln",
        }
    }
}

/// Header metadata of one stored record, decodable *without* touching
/// the payload (no checksum pass, no pool rehydration). This is the
/// cheap half of the record format: `list`, sweep accounting, and a
/// serving cache's admission decisions all read only this; the payload
/// decode — the expensive re-interning of a whole term pool — is
/// deferred to the first actual use of the record's contents.
#[derive(Clone, Debug)]
pub struct RecordHeader {
    /// The record's addressing key.
    pub fingerprint: Fingerprint,
    /// What the payload encodes.
    pub kind: RecordKind,
    /// NF name the record was derived from.
    pub nf_name: String,
    /// Stack-level tag (0 = NF-only, 1 = full-stack; `bolt_core` owns
    /// the mapping — the store stays NF-framework-agnostic).
    pub level: u8,
    /// Last-used stamp (µs since the Unix epoch): set at `put`, bumped
    /// in place by every verified `get` (and batched
    /// [`ContractStore::touch`] calls). Drives LRU sweep ordering.
    pub last_used: u64,
    /// Number of feasible paths in the payload.
    pub n_paths: u64,
    /// Encoded payload size in bytes.
    pub payload_len: u64,
    /// FNV-1a-64 checksum the payload must hash to (verified by
    /// [`ContractStore::get`], not by header-only reads).
    pub checksum: u64,
    /// Bytes the header itself occupies; the payload starts here.
    pub header_len: u64,
}

/// Upper bound on the encoded header (magic through payload-length
/// prefix). Generous: the only variable-size field is the NF/chain name.
const HEADER_PREFIX_MAX: usize = 4096;

/// Encode a record's header: the layout [`decode_header`] reads, ending
/// with the payload's length prefix. `header_len` is not written (it is
/// the length of what this writes).
fn write_header(w: &mut ByteWriter, hdr: &RecordHeader) {
    w.raw(MAGIC);
    w.u16(STORE_FORMAT_VERSION);
    w.u8(hdr.kind.tag());
    w.u8(hdr.level);
    w.u128(hdr.fingerprint.0);
    w.u64(hdr.last_used);
    w.str(&hdr.nf_name);
    w.varint(hdr.n_paths);
    w.u64(hdr.checksum);
    w.varint(hdr.payload_len);
}

/// Decode a record's header from a byte prefix (the payload need not be
/// present). Validates magic, version, and kind, but *not* the payload
/// checksum — that is [`ContractStore::get`]'s job.
fn decode_header(bytes: &[u8]) -> Result<RecordHeader, DecodeError> {
    let mut r = ByteReader::new(bytes);
    if r.raw(4)? != MAGIC {
        return Err(DecodeError::Malformed("bad magic"));
    }
    if r.u16()? != STORE_FORMAT_VERSION {
        return Err(DecodeError::Malformed("store format version mismatch"));
    }
    let kind = RecordKind::from_tag(r.u8()?)?;
    let level = r.u8()?;
    let fingerprint = Fingerprint(r.u128()?);
    let last_used = r.u64()?;
    let nf_name = r.str()?.to_owned();
    let n_paths = r.varint()?;
    let checksum = r.u64()?;
    // The payload's length prefix, read without requiring the payload
    // bytes themselves (this is what makes the header pass cheap).
    let payload_len = r.varint()?;
    let header_len = (bytes.len() - r.remaining()) as u64;
    Ok(RecordHeader {
        fingerprint,
        kind,
        nf_name,
        level,
        last_used,
        n_paths,
        payload_len,
        checksum,
        header_len,
    })
}

/// Header-only read of a record file, never the payload: the file's
/// length from `fstat`, then one read of at most [`HEADER_PREFIX_MAX`]
/// bytes into a stack buffer. The file's size must equal
/// `header_len + payload_len` exactly — a cheap truncation/garbage
/// check that costs no payload I/O.
fn read_header(path: &Path) -> Option<RecordHeader> {
    let f = File::open(path).ok()?;
    let file_len = f.metadata().ok()?.len();
    let mut buf = [0u8; HEADER_PREFIX_MAX];
    let prefix = &mut buf[..file_len.min(HEADER_PREFIX_MAX as u64) as usize];
    f.read_exact_at(prefix, 0).ok()?;
    let hdr = decode_header(prefix).ok()?;
    (hdr.header_len.checked_add(hdr.payload_len) == Some(file_len)).then_some(hdr)
}

/// What one [`ContractStore::sweep`] did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepReport {
    /// Records kept (within the budget, most recently used first).
    pub kept: usize,
    /// Records evicted.
    pub evicted: usize,
    /// On-disk bytes of the kept records.
    pub kept_bytes: u64,
    /// On-disk bytes reclaimed.
    pub evicted_bytes: u64,
}

/// The persistent contract store: a directory of checksummed,
/// fingerprint-addressed records.
///
/// Every store carries a [`bolt_obs::Registry`] (its own by default, so
/// two stores in one process keep isolated numbers): `store.hits` /
/// `store.misses` / `store.quarantined` counters plus `store.get` /
/// `store.put` latency histograms. A host that wants the store's series
/// in *its* registry — the serve core does — rebinds with
/// [`ContractStore::with_metrics`]. Quarantine, corruption, and heal
/// events additionally land in the ambient `BOLT_TRACE` sink.
#[derive(Debug)]
pub struct ContractStore {
    dir: PathBuf,
    quarantined: u64,
    fault: Option<Arc<FaultPlan>>,
    metrics: Arc<Registry>,
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    h_get: Arc<Histogram>,
    h_put: Arc<Histogram>,
}

impl ContractStore {
    /// Open (creating if needed) a store rooted at `dir`, with no fault
    /// injection; tests that want faults use [`ContractStore::with_faults`].
    ///
    /// Opening also heals crash debris: any `.tmp.` scratch file a dead
    /// writer left behind (a process killed between write and rename)
    /// is quarantined — removed, counted in
    /// [`ContractStore::quarantined`] — so a crashed predecessor can
    /// neither leak disk forever nor be mistaken for a record. Torn
    /// *records* need no scan here: every read path re-verifies sizes
    /// and checksums and treats damage as a miss, which the next `put`
    /// overwrites.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Self> {
        Self::with_faults(dir, None)
    }

    /// [`ContractStore::open`] under an explicit fault plan (`None`
    /// injects nothing).
    pub fn with_faults(dir: impl Into<PathBuf>, fault: Option<Arc<FaultPlan>>) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut quarantined = 0;
        for entry in fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            // Writers name scratch files `.<fp>.<kind>.tmp.<pid>.<n>`;
            // anything matching that shape is a dead writer's leavings
            // (live writers hold theirs for microseconds between write
            // and rename — and a concurrently vanished file is fine).
            if name.starts_with('.') && name.contains(".tmp.") && path.is_file() {
                match fs::remove_file(&path) {
                    Ok(()) => {
                        quarantined += 1;
                        trace::emit("store.quarantine", &[("file", name.into())]);
                    }
                    Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                    Err(e) => return Err(e),
                }
            }
        }
        let metrics = Arc::new(Registry::new());
        let store = ContractStore {
            dir,
            quarantined,
            fault,
            hits: metrics.counter("store.hits"),
            misses: metrics.counter("store.misses"),
            h_get: metrics.histogram("store.get"),
            h_put: metrics.histogram("store.put"),
            metrics,
        };
        store.metrics.counter("store.quarantined").add(quarantined);
        Ok(store)
    }

    /// Rebind the store's metric series into `metrics` (get-or-create by
    /// name), carrying already-accumulated values over. A server that owns
    /// a registry calls this so one snapshot covers serve and store.
    pub fn with_metrics(mut self, metrics: Arc<Registry>) -> Self {
        let hits = metrics.counter("store.hits");
        hits.add(self.hits.get());
        let misses = metrics.counter("store.misses");
        misses.add(self.misses.get());
        metrics.counter("store.quarantined").add(self.quarantined);
        self.hits = hits;
        self.misses = misses;
        self.h_get = metrics.histogram("store.get");
        self.h_put = metrics.histogram("store.put");
        self.metrics = metrics;
        self
    }

    /// The registry holding the store's counters and latency histograms.
    pub fn metrics(&self) -> &Arc<Registry> {
        &self.metrics
    }

    /// Orphaned temp files removed by [`ContractStore::open`].
    pub fn quarantined(&self) -> u64 {
        self.quarantined
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records served from disk since `open`.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that found no usable record since `open`.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    fn path_of(&self, fp: Fingerprint, kind: RecordKind) -> PathBuf {
        self.dir.join(format!("{fp}.{}.bolt", kind.file_tag()))
    }

    /// Fetch a record's payload, fully verified. Any defect — missing
    /// file, bad magic, version skew, fingerprint or kind mismatch,
    /// checksum failure, truncation — is a miss. A verified hit bumps
    /// the record's last-used stamp in place (LRU food for
    /// [`ContractStore::sweep`]), written on the descriptor the read
    /// used; a failed bump is ignored — it only ages the record's sweep
    /// priority, never the payload.
    pub fn get(&self, fp: Fingerprint, kind: RecordKind) -> Option<Vec<u8>> {
        self.get_sized(fp, kind).map(|(payload, _)| payload)
    }

    /// [`ContractStore::get`], plus the record's size on disk (header and
    /// payload: the unit [`ContractStore::sweep`] budgets in), taken from
    /// the bytes the read just verified rather than from a second read.
    ///
    /// One descriptor serves the whole operation: the file is opened
    /// read-write, its length taken from `fstat`, its bytes read at once,
    /// and the stamp written back with one positioned write. A file that
    /// exists but cannot be opened for writing is read through a
    /// read-only descriptor and gets no stamp, like any failed bump; a
    /// missing file is a miss at once, with no second open.
    pub fn get_sized(&self, fp: Fingerprint, kind: RecordKind) -> Option<(Vec<u8>, u64)> {
        let _span = self.h_get.span();
        let path = self.path_of(fp, kind);
        // Injected read failure: the same shape as a vanished or
        // unreadable file — a miss the caller re-derives and re-puts.
        if self
            .fault
            .as_deref()
            .is_some_and(|f| f.fires(site::STORE_READ))
        {
            self.misses.inc();
            return None;
        }
        let file = match OpenOptions::new().read(true).write(true).open(&path) {
            Ok(f) => Some((f, true)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(_) => File::open(&path).ok().map(|f| (f, false)),
        };
        let bytes = file.as_ref().and_then(|(f, _)| read_whole(f).ok());
        let present = bytes.is_some();
        // The payload is the buffer's tail: strip the header in place
        // rather than copy the payload out.
        let res = bytes.and_then(|mut bytes| {
            let hdr = verify_record(&bytes, fp, kind).ok()?;
            let size = bytes.len() as u64;
            bytes.drain(..hdr.header_len as usize);
            Some((bytes, size))
        });
        match res {
            Some(sized) => {
                self.hits.inc();
                if let Some((f, true)) = &file {
                    let _ = write_stamp(f);
                }
                Some(sized)
            }
            None => {
                self.misses.inc();
                if present {
                    // The file was there but failed verification — damage
                    // the next put of this key will heal.
                    trace::emit(
                        "store.corrupt",
                        &[
                            ("fp", format!("{fp}").as_str().into()),
                            ("kind", kind.file_tag().into()),
                        ],
                    );
                }
                None
            }
        }
    }

    /// Write a record (atomically: unique temp file + fsync + rename).
    /// Overwrites any existing record under the same key, and returns the
    /// record's size on disk (header and payload).
    ///
    /// Crash-consistency contract: the final path only ever holds a
    /// complete, fsynced record (rename is atomic and the temp file is
    /// durable first), so a reader can never observe a torn record under
    /// a valid name no matter where the writer dies. Temp names carry
    /// the pid *and* a process-global counter, so concurrent writers of
    /// the same key — two server threads exploring the same NF, say —
    /// cannot stomp each other's scratch bytes; last rename wins, and
    /// both renames carry complete records. A failed write cleans its
    /// temp file up; a *crashed* one (simulated by the
    /// `store.write.partial` / `store.rename` fault sites) leaves it for
    /// [`ContractStore::open`] to quarantine.
    pub fn put(
        &self,
        fp: Fingerprint,
        kind: RecordKind,
        nf_name: &str,
        level: u8,
        n_paths: u64,
        payload: &[u8],
    ) -> io::Result<u64> {
        static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
        let _span = self.h_put.span();
        let hdr = RecordHeader {
            fingerprint: fp,
            kind,
            nf_name: nf_name.to_owned(),
            level,
            last_used: next_stamp(),
            n_paths,
            payload_len: payload.len() as u64,
            checksum: fnv64(payload),
            header_len: 0,
        };
        let mut w = ByteWriter::new();
        write_header(&mut w, &hdr);
        w.raw(payload);
        let bytes = w.into_bytes();
        let final_path = self.path_of(fp, kind);
        let tmp = self.dir.join(format!(
            ".{fp}.{}.tmp.{}.{}",
            kind.file_tag(),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        let fault = self.fault.as_deref();
        // A simulated crash mid-write: half the bytes land in the temp
        // file and the writer "dies" — the torn scratch file stays
        // behind, exactly what a real kill -9 leaves. open() quarantines
        // it; no reader ever sees it (the final path is untouched).
        if let Some(e) = fault.and_then(|f| f.io_fault(site::STORE_WRITE_PARTIAL, "torn write")) {
            let _ = fs::write(&tmp, &bytes[..bytes.len() / 2]);
            return Err(e);
        }
        let res = (|| {
            if let Some(e) = fault.and_then(|f| f.io_fault(site::STORE_WRITE, "write failed")) {
                return Err(e);
            }
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            if let Some(e) = fault.and_then(|f| f.io_fault(site::STORE_FSYNC, "fsync failed")) {
                return Err(e);
            }
            // Durability before visibility: the record must be on disk
            // before the rename can expose it under a valid name.
            f.sync_all()
        })();
        if let Err(e) = res {
            // An honest write failure (ENOSPC and kin): clean up the
            // scratch file, keep the store exactly as it was.
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        // A simulated crash between write and rename: the complete temp
        // file is orphaned (open() quarantines it later).
        if let Some(e) = fault.and_then(|f| f.io_fault(site::STORE_RENAME, "crash before rename")) {
            return Err(e);
        }
        // A put that replaces a header-skewed record is a heal — worth a
        // trace line (the cheap stamp probe only runs when tracing is on).
        if trace::enabled() && File::open(&final_path).is_ok_and(|f| read_stamp(&f).is_none()) {
            trace::emit(
                "store.heal",
                &[
                    ("fp", format!("{fp}").as_str().into()),
                    ("kind", kind.file_tag().into()),
                ],
            );
        }
        match fs::rename(&tmp, &final_path) {
            Ok(()) => Ok(bytes.len() as u64),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Header metadata of every readable record, sorted by NF name then
    /// level then kind. Unreadable files are skipped, not fatal.
    ///
    /// This is a pure header pass: one bounded read per file, no payload
    /// I/O, no checksum, no pool rehydration — enumerating a store of
    /// gigabytes costs kilobytes of reads. A record whose payload bytes
    /// are corrupt (but whose header parses and whose file size matches)
    /// still lists — it occupies disk and participates in sweep budgets;
    /// payload integrity is [`ContractStore::get`]'s job.
    pub fn list(&self) -> io::Result<Vec<RecordHeader>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) != Some("bolt") {
                continue;
            }
            if let Some(meta) = read_header(&path) {
                out.push(meta);
            }
        }
        out.sort_by(|a, b| {
            (&a.nf_name, a.level, a.kind.tag()).cmp(&(&b.nf_name, b.level, b.kind.tag()))
        });
        Ok(out)
    }

    /// Header-only metadata of one record: fingerprint, kind, level,
    /// name, path count, sizes, and last-used stamp — without reading
    /// (let alone decoding) the payload: one read of the header prefix,
    /// sized by `fstat`, and no write. `None` when the record is
    /// missing, format-skewed, size-inconsistent, or keyed differently
    /// than its file name claims. This is what `list`-style enumeration
    /// and cache admission decisions should use; only an actual payload
    /// consumer needs [`ContractStore::get`].
    pub fn header(&self, fp: Fingerprint, kind: RecordKind) -> Option<RecordHeader> {
        let hdr = read_header(&self.path_of(fp, kind))?;
        (hdr.fingerprint == fp && hdr.kind == kind).then_some(hdr)
    }

    /// Bump a record's last-used stamp in place without reading its
    /// payload — the batched "this record is hot" signal a long-lived
    /// server sends so that an on-disk [`ContractStore::sweep`] and the
    /// server's in-memory cache agree on MRU order. One read-write
    /// descriptor reads the fixed prefix and writes the stamp back, so a
    /// touch costs one read and one write. Returns whether a valid
    /// record was stamped (`false` for missing or format-skewed files —
    /// never an error for those, since the caller's cache entry remains
    /// correct either way); a file that cannot be opened for writing is
    /// an error.
    pub fn touch(&self, fp: Fingerprint, kind: RecordKind) -> io::Result<bool> {
        let f = match OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.path_of(fp, kind))
        {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e),
        };
        if read_stamp(&f).is_none() {
            return Ok(false);
        }
        write_stamp(&f).map(|()| true)
    }

    /// Remove a record. Returns whether one existed.
    pub fn evict(&self, fp: Fingerprint, kind: RecordKind) -> io::Result<bool> {
        match fs::remove_file(self.path_of(fp, kind)) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// LRU sweep: evict least-recently-used records until the store's
    /// records fit in `max_bytes` of disk (whole files, header
    /// included). Most recently used records are kept first; a record
    /// that would push the running total past the budget is evicted
    /// even if a smaller, older one would still fit — the kept set is
    /// exactly the MRU prefix that fits, so the budget is never
    /// exceeded.
    ///
    /// Ranking reads only each record's fixed-size header prefix (one
    /// small read per file, O(records) — not the payloads, which would
    /// make every sweep O(store bytes)); payload integrity is `get`'s
    /// job, and a checksum-corrupt record still occupies disk, so it
    /// participates in the budget like any other. `.bolt` files whose
    /// prefix does not parse — truncated garbage, records from an
    /// older store format (whose keys nothing addresses any more) —
    /// rank as least recently used, so they are the first evicted
    /// under pressure instead of leaking disk forever. A record
    /// another process removed mid-sweep counts as evicted, not as an
    /// error.
    pub fn sweep(&self, max_bytes: u64) -> io::Result<SweepReport> {
        let mut records: Vec<(u64, u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("bolt") {
                continue;
            }
            // Unparseable prefix → stamp 0: dead weight, evicted first.
            let stamp = File::open(&path)
                .ok()
                .and_then(|f| read_stamp(&f))
                .unwrap_or(0);
            let Ok(meta) = entry.metadata() else {
                continue;
            };
            records.push((stamp, meta.len(), path));
        }
        // MRU first; stamps are unique within a process, and the path
        // tie-break keeps cross-process collisions deterministic.
        records.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.2.cmp(&b.2)));
        let mut report = SweepReport::default();
        let mut first_err = None;
        for (_, size, path) in records {
            if report.kept_bytes + size <= max_bytes {
                report.kept += 1;
                report.kept_bytes += size;
                continue;
            }
            match fs::remove_file(&path) {
                Ok(()) => {
                    report.evicted += 1;
                    report.evicted_bytes += size;
                }
                // Already gone (a concurrent sweep or evict won the
                // race): the goal state, count it evicted.
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    report.evicted += 1;
                    report.evicted_bytes += size;
                }
                Err(e) => {
                    // Keep sweeping what we can; report the first
                    // failure after the pass completes.
                    if first_err.is_none() {
                        first_err = Some(e);
                    }
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(report),
        }
    }
}

/// The last-used stamp of a record prefix, once its magic, version and
/// kind check out. `None` when the prefix is short or skewed.
fn parse_stamp(prefix: &[u8]) -> Option<u64> {
    let mut r = ByteReader::new(prefix);
    if r.raw(4).ok()? != MAGIC || r.u16().ok()? != STORE_FORMAT_VERSION {
        return None;
    }
    RecordKind::from_tag(r.u8().ok()?).ok()?;
    let _level = r.u8().ok()?;
    let _fp = r.u128().ok()?;
    r.u64().ok()
}

/// The last-used stamp of an open record file: one read of its fixed
/// prefix, parsed by [`parse_stamp`]. The payload is never read.
fn read_stamp(f: &File) -> Option<u64> {
    let mut prefix = [0u8; STAMP_END];
    f.read_exact_at(&mut prefix, 0).ok()?;
    parse_stamp(&prefix)
}

/// Write a fresh last-used stamp at the fixed header offset of an open
/// record file: one positioned 8-byte write.
fn write_stamp(f: &File) -> io::Result<()> {
    f.write_all_at(&next_stamp().to_le_bytes(), STAMP_OFFSET)
}

/// A whole record file through one descriptor: its length from `fstat`,
/// then one read of exactly that many bytes. A length the allocator
/// refuses is an error, not an abort.
fn read_whole(f: &File) -> io::Result<Vec<u8>> {
    let len = usize::try_from(f.metadata()?.len()).map_err(|_| io::ErrorKind::OutOfMemory)?;
    let mut bytes = Vec::new();
    bytes
        .try_reserve_exact(len)
        .map_err(|_| io::ErrorKind::OutOfMemory)?;
    bytes.resize(len, 0);
    f.read_exact_at(&mut bytes, 0)?;
    Ok(bytes)
}

/// Parse and verify the record file of key `(fp, kind)`.
fn verify_record(
    bytes: &[u8],
    fp: Fingerprint,
    kind: RecordKind,
) -> Result<RecordHeader, DecodeError> {
    let hdr = decode_header(bytes)?;
    if hdr.kind != kind {
        return Err(DecodeError::Malformed("record kind mismatch"));
    }
    if hdr.fingerprint != fp {
        return Err(DecodeError::Malformed("fingerprint mismatch"));
    }
    let start = hdr.header_len as usize;
    let end = usize::try_from(hdr.payload_len)
        .ok()
        .and_then(|n| start.checked_add(n))
        .ok_or(DecodeError::Truncated)?;
    if end != bytes.len() {
        return Err(if end > bytes.len() {
            DecodeError::Truncated
        } else {
            DecodeError::Malformed("trailing bytes")
        });
    }
    if fnv64(&bytes[start..end]) != hdr.checksum {
        return Err(DecodeError::Malformed("payload checksum mismatch"));
    }
    Ok(hdr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn temp_store(tag: &str) -> ContractStore {
        let dir =
            std::env::temp_dir().join(format!("bolt-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        ContractStore::open(dir).unwrap()
    }

    fn fp(n: u128) -> Fingerprint {
        Fingerprint(n)
    }

    #[test]
    fn put_get_list_evict() {
        let store = temp_store("basic");
        let payload = b"not a real exploration, but faithful bytes".to_vec();
        store
            .put(fp(7), RecordKind::Exploration, "bridge", 1, 9, &payload)
            .unwrap();
        assert_eq!(
            store.get(fp(7), RecordKind::Exploration).as_deref(),
            Some(payload.as_slice())
        );
        assert_eq!(store.hits(), 1);
        // Same key, different kind: distinct record slots.
        assert!(store.get(fp(7), RecordKind::Plan).is_none());
        assert!(store.get(fp(7), RecordKind::Composed).is_none());
        assert_eq!(store.misses(), 2);
        // A composed record under the same fingerprint lives beside it.
        store
            .put(fp(7), RecordKind::Composed, "fw+rt", 1, 3, b"composed")
            .unwrap();
        assert_eq!(
            store.get(fp(7), RecordKind::Composed).as_deref(),
            Some(b"composed".as_slice())
        );
        let entries = store.list().unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].nf_name, "bridge");
        assert_eq!(entries[0].n_paths, 9);
        assert_eq!(entries[0].level, 1);
        assert_eq!(entries[0].payload_len, payload.len() as u64);
        assert_eq!(entries[1].nf_name, "fw+rt");
        assert_eq!(entries[1].kind, RecordKind::Composed);
        assert!(store.evict(fp(7), RecordKind::Composed).unwrap());
        assert!(store.evict(fp(7), RecordKind::Exploration).unwrap());
        assert!(!store.evict(fp(7), RecordKind::Exploration).unwrap());
        assert!(store.get(fp(7), RecordKind::Exploration).is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn corrupt_records_are_misses() {
        let store = temp_store("corrupt");
        store
            .put(fp(1), RecordKind::Exploration, "nat", 0, 8, b"payload!")
            .unwrap();
        let path = store.path_of(fp(1), RecordKind::Exploration);
        let mut bytes = fs::read(&path).unwrap();
        // Flip one payload byte: checksum must catch it on `get`, but
        // the record still *lists* — enumeration is a header pass, and
        // the corrupt file still occupies disk (sweep budget food).
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(store.get(fp(1), RecordKind::Exploration).is_none());
        assert_eq!(store.list().unwrap().len(), 1);
        assert!(store.header(fp(1), RecordKind::Exploration).is_some());
        // Truncated file: the header's size cross-check rejects it
        // everywhere, payload unread.
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(store.get(fp(1), RecordKind::Exploration).is_none());
        assert!(store.header(fp(1), RecordKind::Exploration).is_none());
        // list() must skip it rather than fail.
        assert!(store.list().unwrap().is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn a_payload_length_near_u64_max_is_a_miss() {
        let store = temp_store("huge-len");
        store
            .put(fp(3), RecordKind::Exploration, "nf", 0, 1, b"")
            .unwrap();
        let path = store.path_of(fp(3), RecordKind::Exploration);
        // The empty payload's one-byte length prefix ends the file; claim
        // a payload of u64::MAX bytes instead. No size check may overflow.
        let mut bytes = fs::read(&path).unwrap();
        let mut len = ByteWriter::new();
        len.varint(u64::MAX);
        bytes.pop();
        bytes.extend(len.into_bytes());
        fs::write(&path, &bytes).unwrap();
        assert!(store.header(fp(3), RecordKind::Exploration).is_none());
        assert!(store.get(fp(3), RecordKind::Exploration).is_none());
        assert!(store.list().unwrap().is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn header_reads_skip_the_payload() {
        let store = temp_store("header");
        let payload = vec![0xA5u8; 4096];
        let written = store
            .put(fp(9), RecordKind::Composed, "bridge", 1, 12, &payload)
            .unwrap();
        let hdr = store.header(fp(9), RecordKind::Composed).expect("header");
        assert_eq!(hdr.fingerprint, fp(9));
        assert_eq!(hdr.kind, RecordKind::Composed);
        assert_eq!(hdr.nf_name, "bridge");
        assert_eq!(hdr.level, 1);
        assert_eq!(hdr.n_paths, 12);
        assert_eq!(hdr.payload_len, payload.len() as u64);
        assert_eq!(hdr.checksum, fnv64(&payload));
        let file_len = fs::metadata(store.path_of(fp(9), RecordKind::Composed))
            .unwrap()
            .len();
        assert_eq!(hdr.header_len + hdr.payload_len, file_len);
        // A header read must not count as (or affect) hit/miss traffic,
        // and must not bump the stamp.
        assert_eq!((store.hits(), store.misses()), (0, 0));
        assert_eq!(
            store.header(fp(9), RecordKind::Composed).unwrap().last_used,
            hdr.last_used
        );
        // Wrong kind/fingerprint: None.
        assert!(store.header(fp(9), RecordKind::Exploration).is_none());
        assert!(store.header(fp(8), RecordKind::Composed).is_none());
        // The write and the verified read both report that size.
        assert_eq!(written, file_len);
        let (got, size) = store.get_sized(fp(9), RecordKind::Composed).unwrap();
        assert_eq!((got, size), (payload, file_len));
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn touch_bumps_the_stamp_like_a_get() {
        let store = temp_store("touch");
        store
            .put(fp(1), RecordKind::Exploration, "fw", 0, 1, b"abc")
            .unwrap();
        let before = store.header(fp(1), RecordKind::Exploration).unwrap();
        assert!(store.touch(fp(1), RecordKind::Exploration).unwrap());
        let after = store.header(fp(1), RecordKind::Exploration).unwrap();
        assert!(after.last_used > before.last_used);
        // Touching a missing or skewed record is a clean false.
        assert!(!store.touch(fp(2), RecordKind::Exploration).unwrap());
        let path = store.path_of(fp(1), RecordKind::Exploration);
        let mut bytes = fs::read(&path).unwrap();
        bytes[4] = bytes[4].wrapping_add(1); // version skew
        fs::write(&path, &bytes).unwrap();
        assert!(!store.touch(fp(1), RecordKind::Exploration).unwrap());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn version_skew_is_rejected() {
        let store = temp_store("version");
        store
            .put(fp(2), RecordKind::Plan, "lb", 1, 8, b"vvv")
            .unwrap();
        let path = store.path_of(fp(2), RecordKind::Plan);
        let mut bytes = fs::read(&path).unwrap();
        // Bump the version field (offset 4, after the magic).
        bytes[4] = bytes[4].wrapping_add(1);
        fs::write(&path, &bytes).unwrap();
        assert!(store.get(fp(2), RecordKind::Plan).is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn get_bumps_the_last_used_stamp() {
        let store = temp_store("stamp");
        store
            .put(fp(1), RecordKind::Exploration, "bridge", 0, 1, b"a")
            .unwrap();
        let before = store.list().unwrap()[0].last_used;
        assert!(before > 0, "put must stamp the record");
        assert!(store.get(fp(1), RecordKind::Exploration).is_some());
        let after = store.list().unwrap()[0].last_used;
        assert!(after > before, "a verified get must bump the stamp");
        // A miss (wrong kind) must bump nothing.
        assert!(store.get(fp(1), RecordKind::Plan).is_none());
        assert_eq!(store.list().unwrap()[0].last_used, after);
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn sweep_keeps_mru_within_budget() {
        let store = temp_store("sweep");
        // Four same-size records, then touch two of them so recency is
        // 2 > 0 > 3 > 1.
        for i in 0..4u128 {
            store
                .put(fp(i), RecordKind::Exploration, "nf", 0, 1, &[0u8; 64])
                .unwrap();
        }
        assert!(store.get(fp(0), RecordKind::Exploration).is_some());
        assert!(store.get(fp(2), RecordKind::Exploration).is_some());
        let file_size = fs::metadata(store.path_of(fp(0), RecordKind::Exploration))
            .unwrap()
            .len();
        // Budget for exactly two records: the two most recently used
        // survive, the other two go.
        let report = store.sweep(2 * file_size).unwrap();
        assert_eq!((report.kept, report.evicted), (2, 2));
        assert_eq!(report.kept_bytes, 2 * file_size);
        assert_eq!(report.evicted_bytes, 2 * file_size);
        assert!(report.kept_bytes <= 2 * file_size, "budget respected");
        assert!(store.get(fp(0), RecordKind::Exploration).is_some());
        assert!(store.get(fp(2), RecordKind::Exploration).is_some());
        assert!(store.get(fp(1), RecordKind::Exploration).is_none());
        assert!(store.get(fp(3), RecordKind::Exploration).is_none());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn sweep_evicts_format_skewed_and_garbage_files_first() {
        let store = temp_store("sweep-skew");
        store
            .put(fp(1), RecordKind::Exploration, "nf", 0, 1, &[0u8; 64])
            .unwrap();
        let good_size = fs::metadata(store.path_of(fp(1), RecordKind::Exploration))
            .unwrap()
            .len();
        // A pre-upgrade record (version skew) and plain garbage, both
        // under `.bolt` names nothing addresses: dead weight that must
        // rank oldest and go first.
        let skewed = store.path_of(fp(2), RecordKind::Exploration);
        let mut bytes = fs::read(store.path_of(fp(1), RecordKind::Exploration)).unwrap();
        bytes[4] = bytes[4].wrapping_add(1);
        fs::write(&skewed, &bytes).unwrap();
        let garbage = store.dir().join("junk.bolt");
        fs::write(&garbage, b"xx").unwrap();
        let report = store.sweep(good_size).unwrap();
        assert_eq!(report.kept, 1, "the live record fits the budget");
        assert_eq!(report.evicted, 2, "skewed + garbage files are swept");
        assert!(!skewed.exists());
        assert!(!garbage.exists());
        assert!(store.get(fp(1), RecordKind::Exploration).is_some());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn retired_contract_records_are_skipped_and_swept_first() {
        let store = temp_store("retired-ctr");
        store
            .put(fp(1), RecordKind::Exploration, "nf", 0, 1, &[0u8; 64])
            .unwrap();
        let live = store.path_of(fp(1), RecordKind::Exploration);
        // What an older binary left behind: a well-formed record of the
        // retired kind (tag 1 at offset 6, file tag `ctr`), stamped newer
        // than the live record.
        let mut bytes = fs::read(&live).unwrap();
        bytes[6] = 1;
        bytes[STAMP_OFFSET as usize..STAMP_OFFSET as usize + 8]
            .copy_from_slice(&next_stamp().to_le_bytes());
        let planted = store.dir().join(format!("{}.ctr.bolt", fp(1)));
        fs::write(&planted, &bytes).unwrap();
        let listed = store.list().unwrap();
        assert_eq!(listed.len(), 1, "the retired kind does not list");
        assert_eq!(listed[0].kind, RecordKind::Exploration);
        let report = store.sweep(fs::metadata(&live).unwrap().len()).unwrap();
        assert_eq!((report.kept, report.evicted), (1, 1));
        assert!(!planted.exists(), "swept first despite the newer stamp");
        assert!(store.get(fp(1), RecordKind::Exploration).is_some());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn sweep_never_exceeds_the_budget() {
        let store = temp_store("sweep-budget");
        for i in 0..5u128 {
            store
                .put(
                    fp(i),
                    RecordKind::Exploration,
                    "nf",
                    0,
                    1,
                    &vec![0u8; 32 * (i as usize + 1)],
                )
                .unwrap();
        }
        let total: u64 = store
            .list()
            .unwrap()
            .iter()
            .map(|e| {
                fs::metadata(store.path_of(e.fingerprint, e.kind))
                    .unwrap()
                    .len()
            })
            .sum();
        for budget in [0, 1, total / 3, total / 2, total, total * 2] {
            let report = store.sweep(budget).unwrap();
            assert!(
                report.kept_bytes <= budget,
                "kept {} bytes under a {budget}-byte budget",
                report.kept_bytes
            );
            // Sweeping to a larger budget later can't resurrect records,
            // so re-seed for the next round.
            for i in 0..5u128 {
                store
                    .put(
                        fp(i),
                        RecordKind::Exploration,
                        "nf",
                        0,
                        1,
                        &vec![0u8; 32 * (i as usize + 1)],
                    )
                    .unwrap();
            }
        }
        // Budget 0 evicts everything.
        let report = store.sweep(0).unwrap();
        assert_eq!(report.kept, 0);
        assert!(store.list().unwrap().is_empty());
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn open_quarantines_orphaned_tmp_files() {
        let store = temp_store("quarantine");
        store
            .put(fp(1), RecordKind::Exploration, "fw", 0, 1, b"live")
            .unwrap();
        // A dead writer's leavings: a torn scratch file and a complete
        // one that never got renamed.
        fs::write(store.dir().join(".00ff.exp.tmp.999.0"), b"torn").unwrap();
        fs::write(
            store.dir().join(".00aa.ctr.tmp.999.1"),
            b"complete-but-orphaned",
        )
        .unwrap();
        // Unrelated dotfiles are not ours to delete.
        fs::write(store.dir().join(".keepme"), b"user file").unwrap();
        let reopened = ContractStore::open(store.dir().to_path_buf()).unwrap();
        assert_eq!(reopened.quarantined(), 2);
        assert!(!store.dir().join(".00ff.exp.tmp.999.0").exists());
        assert!(!store.dir().join(".00aa.ctr.tmp.999.1").exists());
        assert!(store.dir().join(".keepme").exists());
        assert_eq!(
            reopened.get(fp(1), RecordKind::Exploration).as_deref(),
            Some(b"live".as_slice()),
            "quarantine must not touch real records"
        );
        let _ = fs::remove_dir_all(store.dir());
    }

    #[test]
    fn faulted_puts_fail_clean_and_heal() {
        use bolt_fault::{site, FaultPlan};
        let dir =
            std::env::temp_dir().join(format!("bolt-store-test-fault-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // One crash of every flavour, scheduled deterministically.
        let plan = Arc::new(
            FaultPlan::seeded(42)
                .with_at(site::STORE_WRITE_PARTIAL, 1)
                .with_at(site::STORE_RENAME, 1)
                .with_at(site::STORE_WRITE, 1)
                .with_at(site::STORE_READ, 1),
        );
        let store = ContractStore::with_faults(&dir, Some(plan)).unwrap();
        // Torn write: put fails, final path untouched, torn tmp left.
        assert!(store
            .put(fp(1), RecordKind::Exploration, "nf", 0, 1, b"aaaa")
            .is_err());
        assert!(store.get(fp(1), RecordKind::Exploration).is_none()); // also burns the read fault
                                                                      // Crash before rename: put fails, complete tmp orphaned.
        assert!(store
            .put(fp(1), RecordKind::Exploration, "nf", 0, 1, b"aaaa")
            .is_err());
        // Plain write failure: cleaned up eagerly.
        assert!(store
            .put(fp(1), RecordKind::Exploration, "nf", 0, 1, b"aaaa")
            .is_err());
        // All faults burnt: the same put now lands and reads back.
        store
            .put(fp(1), RecordKind::Exploration, "nf", 0, 1, b"aaaa")
            .unwrap();
        assert_eq!(
            store.get(fp(1), RecordKind::Exploration).as_deref(),
            Some(b"aaaa".as_slice())
        );
        // Reopen heals the two crash orphans (torn + unrenamed).
        let reopened = ContractStore::open(&dir).unwrap();
        assert_eq!(reopened.quarantined(), 2);
        assert_eq!(
            reopened.get(fp(1), RecordKind::Exploration).as_deref(),
            Some(b"aaaa".as_slice())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn renamed_records_cannot_impersonate() {
        let store = temp_store("rename");
        store
            .put(fp(3), RecordKind::Exploration, "lpm", 0, 4, b"abc")
            .unwrap();
        // Copy record 3's bytes under key 4's file name.
        let from = store.path_of(fp(3), RecordKind::Exploration);
        let to = store.path_of(fp(4), RecordKind::Exploration);
        fs::copy(&from, &to).unwrap();
        assert!(
            store.get(fp(4), RecordKind::Exploration).is_none(),
            "embedded fingerprint must veto the file name"
        );
        assert!(store.get(fp(3), RecordKind::Exploration).is_some());
        let _ = fs::remove_dir_all(store.dir());
    }

    /// A record's bytes as [`ContractStore::put`] lays them out.
    fn record(hdr: &RecordHeader, payload: &[u8]) -> Vec<u8> {
        let mut w = ByteWriter::new();
        write_header(&mut w, hdr);
        w.raw(payload);
        w.into_bytes()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// No byte string panics the header or record decoders — random,
        /// or written over a valid record from `at` on — and what they
        /// accept is what the writer lays out for the value they read.
        #[test]
        fn arbitrary_bytes_never_panic_the_record_decoders(
            bytes in prop::collection::vec(any::<u8>(), 0..64),
            at: usize,
        ) {
            let payload = b"payload bytes";
            let mut spliced = record(
                &RecordHeader {
                    fingerprint: fp(5),
                    kind: RecordKind::Exploration,
                    nf_name: "nat".into(),
                    level: 1,
                    last_used: 1_700_000_000_000_000,
                    n_paths: 4,
                    payload_len: payload.len() as u64,
                    checksum: fnv64(payload),
                    header_len: 0,
                },
                payload,
            );
            let at = at % spliced.len();
            let end = spliced.len().min(at + bytes.len());
            spliced[at..end].copy_from_slice(&bytes[..end - at]);
            for input in [&bytes, &spliced] {
                if let Ok(hdr) = decode_header(input) {
                    let len = hdr.header_len as usize;
                    prop_assert_eq!(&record(&hdr, &[]), &input[..len]);
                }
                if let Ok(hdr) = verify_record(input, fp(5), RecordKind::Exploration) {
                    let len = hdr.header_len as usize;
                    prop_assert_eq!(&record(&hdr, &input[len..]), input);
                }
            }
        }
    }
}
