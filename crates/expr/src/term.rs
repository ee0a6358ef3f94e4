//! Bit-vector term representation.
//!
//! Terms are immutable, hash-consed nodes owned by a
//! [`TermPool`](crate::TermPool). Every term has a bit width; boolean terms
//! are 1-bit vectors, which keeps the algebra uniform (comparisons produce
//! width-1 terms that can be branched on or combined with `And`/`Or`).

use std::fmt;

/// Identifier of a symbolic variable within a [`TermPool`](crate::TermPool).
///
/// Symbols are created with [`TermPool::fresh_sym`](crate::TermPool::fresh_sym)
/// and carry a human-readable name (e.g. `pkt.ether_type` or
/// `flow_table.get#0.hit`) used when printing path constraints.
pub type SymId = u32;

/// Bit width of a term. Only the widths that occur in packet processing are
/// representable; this keeps width arithmetic trivial and catches mistakes
/// (e.g. comparing a MAC address against a port number) at construction time.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub enum Width {
    /// Boolean (1 bit).
    W1,
    /// Byte.
    W8,
    /// 16-bit field (ports, EtherType).
    W16,
    /// 32-bit field (IPv4 addresses).
    W32,
    /// 48-bit field (MAC addresses).
    W48,
    /// 64-bit field (timestamps, counters).
    W64,
}

impl Width {
    /// Number of bits.
    pub fn bits(self) -> u32 {
        match self {
            Width::W1 => 1,
            Width::W8 => 8,
            Width::W16 => 16,
            Width::W32 => 32,
            Width::W48 => 48,
            Width::W64 => 64,
        }
    }

    /// Mask with the low `bits()` bits set.
    pub fn mask(self) -> u64 {
        match self {
            Width::W64 => u64::MAX,
            w => (1u64 << w.bits()) - 1,
        }
    }

    /// The width needed for a byte count (1, 2, 4, 6, 8), used when loading
    /// packet fields.
    pub fn from_bytes(bytes: usize) -> Width {
        match bytes {
            1 => Width::W8,
            2 => Width::W16,
            4 => Width::W32,
            6 => Width::W48,
            8 => Width::W64,
            _ => panic!("unsupported field size: {bytes} bytes"),
        }
    }
}

/// Reference to a term inside a [`TermPool`](crate::TermPool).
///
/// `TermRef`s are only meaningful together with the pool that created them;
/// mixing pools is a logic error (caught by debug assertions on width
/// queries where possible).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermRef(pub(crate) u32);

impl TermRef {
    /// Raw index of the term inside its pool (stable for the pool lifetime).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Serialization hook: rebuild a reference from a raw arena index.
    ///
    /// Only meaningful for indices obtained from [`TermRef::index`] against
    /// the same (or a bit-identically rehydrated) pool; the store codec
    /// validates indices against the pool length before use.
    #[inline]
    pub fn from_raw(index: u32) -> TermRef {
        TermRef(index)
    }
}

impl fmt::Debug for TermRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Binary operators over equal-width terms.
///
/// Comparison operators (`Eq`, `Ne`, `Ult`, `Ule`) take equal-width operands
/// and produce a [`Width::W1`] result; all others preserve the operand width.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (shift amount taken modulo width).
    Shl,
    /// Logical shift right (shift amount taken modulo width).
    Shr,
    /// Equality (produces a boolean).
    Eq,
    /// Disequality (produces a boolean).
    Ne,
    /// Unsigned less-than (produces a boolean).
    Ult,
    /// Unsigned less-or-equal (produces a boolean).
    Ule,
}

impl BinOp {
    /// Whether this operator produces a 1-bit (boolean) result.
    pub fn is_comparison(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ne | BinOp::Ult | BinOp::Ule)
    }

    /// Concrete semantics of the operator on `width`-bit values.
    pub fn apply(self, a: u64, b: u64, width: Width) -> u64 {
        let m = width.mask();
        let (a, b) = (a & m, b & m);
        let r = match self {
            BinOp::Add => a.wrapping_add(b),
            BinOp::Sub => a.wrapping_sub(b),
            BinOp::Mul => a.wrapping_mul(b),
            BinOp::And => a & b,
            BinOp::Or => a | b,
            BinOp::Xor => a ^ b,
            BinOp::Shl => {
                if b >= width.bits() as u64 {
                    0
                } else {
                    a << b
                }
            }
            BinOp::Shr => {
                if b >= width.bits() as u64 {
                    0
                } else {
                    a >> b
                }
            }
            BinOp::Eq => (a == b) as u64,
            BinOp::Ne => (a != b) as u64,
            BinOp::Ult => (a < b) as u64,
            BinOp::Ule => (a <= b) as u64,
        };
        if self.is_comparison() {
            r
        } else {
            r & m
        }
    }

    /// Symbol used when pretty-printing.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::And => "&",
            BinOp::Or => "|",
            BinOp::Xor => "^",
            BinOp::Shl => "<<",
            BinOp::Shr => ">>",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Ult => "<",
            BinOp::Ule => "<=",
        }
    }
}

/// Unary operators.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum UnOp {
    /// Bitwise complement (on booleans this is logical negation).
    Not,
}

impl UnOp {
    /// Concrete semantics on a `width`-bit value.
    pub fn apply(self, a: u64, width: Width) -> u64 {
        match self {
            UnOp::Not => !a & width.mask(),
        }
    }
}

/// A term node. Construct via [`TermPool`](crate::TermPool) methods, which
/// hash-cons and constant-fold.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Term {
    /// A constant, already masked to `width`.
    Const { value: u64, width: Width },
    /// A free symbolic variable.
    Sym { id: SymId, width: Width },
    /// Unary application.
    Unop { op: UnOp, a: TermRef },
    /// Binary application.
    Binop { op: BinOp, a: TermRef, b: TermRef },
    /// If-then-else: `c` must be boolean, `t`/`e` equal widths.
    Ite { c: TermRef, t: TermRef, e: TermRef },
    /// Zero-extension of `a` to a wider `width`.
    Zext { a: TermRef, width: Width },
    /// Truncation of `a` to a narrower `width` (keeps the low bits).
    Trunc { a: TermRef, width: Width },
}
