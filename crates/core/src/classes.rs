//! Input classes: specifications of which packets a contract row covers.
//!
//! §2.2: "Input class i is a specification that describes which inputs
//! belong to that class, such as a symbolic expression for 'all valid
//! IPv4 packets without IP options'." Classes here are built from packet
//! field predicates (instantiated against each path's own input symbols)
//! and path tags (the labels NF code attaches, standing in for the
//! human-readable class names of the paper's tables).

use bolt_expr::{TermPool, TermRef, Width};
use bolt_see::symbolic::PacketField;

use crate::contract::PathContract;

/// A class specification.
#[derive(Debug, Clone)]
pub enum ClassSpec {
    /// Any input.
    Unconstrained,
    /// Paths carrying this tag.
    Tag(&'static str),
    /// Paths *not* carrying this tag.
    NotTag(&'static str),
    /// A packet field equals a value.
    FieldEq {
        /// Byte offset in the frame.
        offset: u64,
        /// Field width in bytes.
        bytes: u8,
        /// Required value.
        value: u64,
    },
    /// A packet field differs from a value.
    FieldNe {
        /// Byte offset in the frame.
        offset: u64,
        /// Field width in bytes.
        bytes: u8,
        /// Excluded value.
        value: u64,
    },
    /// A packet field is bounded above.
    FieldUle {
        /// Byte offset in the frame.
        offset: u64,
        /// Field width in bytes.
        bytes: u8,
        /// Inclusive upper bound.
        value: u64,
    },
    /// Conjunction.
    All(Vec<ClassSpec>),
}

impl ClassSpec {
    /// `field == value` helper.
    pub fn field_eq(offset: u64, bytes: u8, value: u64) -> Self {
        ClassSpec::FieldEq {
            offset,
            bytes,
            value,
        }
    }

    /// `field != value` helper.
    pub fn field_ne(offset: u64, bytes: u8, value: u64) -> Self {
        ClassSpec::FieldNe {
            offset,
            bytes,
            value,
        }
    }

    /// Conjunction helper.
    pub fn all(specs: impl IntoIterator<Item = ClassSpec>) -> Self {
        ClassSpec::All(specs.into_iter().collect())
    }

    /// Tag-level filter (fast path before the solver).
    pub(crate) fn tags_match(&self, path: &PathContract) -> bool {
        match self {
            ClassSpec::Tag(t) => path.has_tag(t),
            ClassSpec::NotTag(t) => !path.has_tag(t),
            ClassSpec::All(specs) => specs.iter().all(|s| s.tags_match(path)),
            _ => true,
        }
    }

    /// Instantiate the field predicates against a path's input symbols.
    /// Fields the path never read stay unconstrained (any value of that
    /// field is consistent with the path, so the class constraint cannot
    /// exclude it).
    pub(crate) fn instantiate(&self, pool: &mut TermPool, fields: &[PacketField]) -> Vec<TermRef> {
        let mut out = Vec::new();
        self.collect(pool, fields, &mut out);
        out
    }

    fn collect(&self, pool: &mut TermPool, fields: &[PacketField], out: &mut Vec<TermRef>) {
        let find = |offset: u64, bytes: u8| {
            fields
                .iter()
                .find(|f| f.offset == offset && f.bytes == bytes)
                .map(|f| f.term)
        };
        match *self {
            ClassSpec::FieldEq {
                offset,
                bytes,
                value,
            } => {
                if let Some(t) = find(offset, bytes) {
                    let c = pool.constant(value, Width::from_bytes(bytes as usize));
                    out.push(pool.eq(t, c));
                }
            }
            ClassSpec::FieldNe {
                offset,
                bytes,
                value,
            } => {
                if let Some(t) = find(offset, bytes) {
                    let c = pool.constant(value, Width::from_bytes(bytes as usize));
                    out.push(pool.ne(t, c));
                }
            }
            ClassSpec::FieldUle {
                offset,
                bytes,
                value,
            } => {
                if let Some(t) = find(offset, bytes) {
                    let c = pool.constant(value, Width::from_bytes(bytes as usize));
                    out.push(pool.ule(t, c));
                }
            }
            ClassSpec::All(ref specs) => {
                for s in specs {
                    s.collect(pool, fields, out);
                }
            }
            ClassSpec::Unconstrained | ClassSpec::Tag(_) | ClassSpec::NotTag(_) => {}
        }
    }
}

/// A named input class (the row label of a contract table).
#[derive(Debug, Clone)]
pub struct InputClass {
    /// Human-readable name ("Valid packets", "broadcast traffic", …).
    pub name: String,
    /// The specification.
    pub spec: ClassSpec,
}

impl InputClass {
    /// Build a class.
    pub fn new(name: impl Into<String>, spec: ClassSpec) -> Self {
        InputClass {
            name: name.into(),
            spec,
        }
    }

    /// The unconstrained class (WCET-style query; the paper's `*1`
    /// scenarios).
    pub fn unconstrained() -> Self {
        InputClass::new("unconstrained traffic", ClassSpec::Unconstrained)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_expr::Width as W;

    fn fields(pool: &mut TermPool) -> Vec<PacketField> {
        let t = pool.fresh_sym("pkt@12:2", W::W16);
        let id = match *pool.get(t) {
            bolt_expr::Term::Sym { id, .. } => id,
            _ => unreachable!(),
        };
        vec![PacketField {
            offset: 12,
            bytes: 2,
            sym: id,
            term: t,
        }]
    }

    #[test]
    fn instantiates_only_tracked_fields() {
        let mut pool = TermPool::new();
        let fs = fields(&mut pool);
        let spec = ClassSpec::all([
            ClassSpec::field_eq(12, 2, 0x0800),
            ClassSpec::field_eq(30, 4, 0x0A000001), // never read by the path
        ]);
        let cs = spec.instantiate(&mut pool, &fs);
        assert_eq!(cs.len(), 1, "untracked fields add no constraints");
    }

    #[test]
    fn ule_and_ne_build_terms() {
        let mut pool = TermPool::new();
        let fs = fields(&mut pool);
        let spec = ClassSpec::all([
            ClassSpec::FieldUle {
                offset: 12,
                bytes: 2,
                value: 100,
            },
            ClassSpec::field_ne(12, 2, 7),
        ]);
        let cs = spec.instantiate(&mut pool, &fs);
        assert_eq!(cs.len(), 2);
    }
}
