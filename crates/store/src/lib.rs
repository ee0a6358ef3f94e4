//! Persistent, content-addressed storage for performance contracts.
//!
//! The paper's workflow derives a contract once per NF and queries it many
//! times; exploration is deterministic per (NF configuration, stack
//! level). This crate turns that determinism into a compile-once /
//! query-forever artifact:
//!
//! * [`fingerprint`] — a stable, hand-rolled FNV-1a-128 [`Fingerprint`]
//!   over NF descriptor configuration, stack level, and the store format
//!   version. Content addressing: equal configs hash equally across
//!   processes and machines; any config or format change moves the key.
//! * [`wire`] — a compact hand-written binary codec substrate
//!   ([`ByteWriter`]/[`ByteReader`], varints, length-prefixed strings) —
//!   no serde, no external dependencies.
//! * [`codec`] — encoders/decoders for the shared primitive types:
//!   [`bolt_expr::TermPool`] (with rehydration that re-interns every node
//!   so decoded terms are bit-identical to fresh ones),
//!   [`bolt_expr::PerfExpr`] vectors, and [`bolt_trace::TraceEvent`]
//!   streams. Domain codecs build on these: `bolt_see` encodes
//!   exploration results, `bolt_core` encodes contracts.
//! * [`store`] — the [`ContractStore`] front door: a directory of
//!   checksummed records addressed by fingerprint, with `open`, `get`,
//!   `put`, `list`, and `evict`. Corrupt or version-skewed records are
//!   rejected (treated as misses), never returned.
//!
//! The typed entry points (`get_or_explore`, `Bolt::with_store`) live in
//! `bolt_core`, which layers NF awareness on top of this crate's raw
//! records.

pub mod codec;
pub mod fingerprint;
pub mod store;
pub mod wire;

pub use fingerprint::{fnv64, Fingerprint, Fingerprinter, STORE_FORMAT_VERSION};
pub use store::{ContractStore, RecordHeader, RecordKind, SweepReport};
pub use wire::{ByteReader, ByteWriter, DecodeError};

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Intern a decoded tag into a `&'static str`.
///
/// Path tags are `&'static str` in the in-memory representation (they come
/// from string literals in NF code). Decoding leaks each *distinct* tag
/// string exactly once, so the leak is bounded by the tag vocabulary, not
/// by the number of decoded records.
pub fn intern_tag(s: &str) -> &'static str {
    static TAGS: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut map = TAGS
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .expect("tag interner poisoned");
    if let Some(&t) = map.get(s) {
        return t;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    map.insert(s.to_owned(), leaked);
    leaked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_interning_dedups() {
        let a = intern_tag("dst:broadcast");
        let b = intern_tag("dst:broadcast");
        assert_eq!(a.as_ptr(), b.as_ptr(), "same tag must not leak twice");
        assert_eq!(a, "dst:broadcast");
    }
}
