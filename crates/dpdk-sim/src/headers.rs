//! Packet header layout and a builder for test/workload frames.
//!
//! Offsets are for untagged Ethernet II + IPv4 + TCP/UDP, the frame shape
//! every NF in the paper processes. IPv4 options (used by the §5.2 static
//! router) sit between [`IPV4_DST`]`+4` and the L4 header; when options
//! are present the L4 offsets shift by `4 × option_words`, which NF code
//! must compute from the IHL field.

/// Offset of the destination MAC (6 bytes).
pub const ETHER_DST: u64 = 0;
/// Offset of the source MAC (6 bytes).
pub const ETHER_SRC: u64 = 6;
/// Offset of the EtherType (2 bytes).
pub const ETHER_TYPE: u64 = 12;
/// EtherType for IPv4.
pub const ETHERTYPE_IPV4: u16 = 0x0800;
/// EtherType for IPv6 (used as an "invalid for this NF" class).
pub const ETHERTYPE_IPV6: u16 = 0x86DD;

/// Offset of the IPv4 version/IHL byte.
pub const IPV4_VER_IHL: u64 = 14;
/// Offset of the IPv4 total length (2 bytes).
const IPV4_TOTLEN: u64 = 16;
/// Offset of the IPv4 TTL byte.
pub const IPV4_TTL: u64 = 22;
/// Offset of the IPv4 protocol byte.
pub const IPV4_PROTO: u64 = 23;
/// Offset of the IPv4 header checksum (2 bytes).
pub const IPV4_CSUM: u64 = 24;
/// Offset of the IPv4 source address (4 bytes).
pub const IPV4_SRC: u64 = 26;
/// Offset of the IPv4 destination address (4 bytes).
pub const IPV4_DST: u64 = 30;
/// Offset of the first IPv4 option byte (when IHL > 5).
pub const IPV4_OPTS: u64 = 34;

/// Offset of the L4 source port for an option-less IPv4 header.
pub const L4_SPORT: u64 = 34;
/// Offset of the L4 destination port for an option-less IPv4 header.
pub const L4_DPORT: u64 = 36;

/// IPv4 protocol number for TCP.
pub const IPPROTO_TCP: u8 = 6;
/// IPv4 protocol number for UDP.
pub const IPPROTO_UDP: u8 = 17;

/// Minimum frame this substrate produces (headers only, no payload).
const MIN_FRAME: usize = 64;

/// Builder for well-formed test frames.
///
/// ```
/// use dpdk_sim::headers::*;
/// let frame = PacketBuilder::new()
///     .eth(0x0202_0202_0202, 0x0101_0101_0101, ETHERTYPE_IPV4)
///     .ipv4(0x0a00_0001, 0x0a00_0002, IPPROTO_UDP, 64)
///     .udp(1234, 80)
///     .build();
/// assert_eq!(frame.len(), 64); // headers only: the minimum frame
/// assert_eq!(&frame[12..14], &[0x08, 0x00]);
/// ```
#[derive(Clone, Debug, Default)]
pub struct PacketBuilder {
    bytes: Vec<u8>,
    ihl_words: u8,
}

impl PacketBuilder {
    /// Start an empty frame.
    pub fn new() -> Self {
        PacketBuilder {
            bytes: vec![0; MIN_FRAME],
            ihl_words: 5,
        }
    }

    fn put(&mut self, off: usize, data: &[u8]) {
        if self.bytes.len() < off + data.len() {
            self.bytes.resize(off + data.len(), 0);
        }
        self.bytes[off..off + data.len()].copy_from_slice(data);
    }

    /// Ethernet header. MACs are the low 48 bits of the given values.
    pub fn eth(mut self, dst: u64, src: u64, ethertype: u16) -> Self {
        let d = dst.to_be_bytes();
        let s = src.to_be_bytes();
        self.put(ETHER_DST as usize, &d[2..8]);
        self.put(ETHER_SRC as usize, &s[2..8]);
        self.put(ETHER_TYPE as usize, &ethertype.to_be_bytes());
        self
    }

    /// IPv4 header without options.
    pub fn ipv4(mut self, src: u32, dst: u32, proto: u8, ttl: u8) -> Self {
        self.ihl_words = 5;
        self.put(IPV4_VER_IHL as usize, &[0x45]);
        self.put(IPV4_TOTLEN as usize, &46u16.to_be_bytes());
        self.put(IPV4_TTL as usize, &[ttl]);
        self.put(IPV4_PROTO as usize, &[proto]);
        self.put(IPV4_SRC as usize, &src.to_be_bytes());
        self.put(IPV4_DST as usize, &dst.to_be_bytes());
        self
    }

    /// Append `n` 4-byte IPv4 options (each a NOP-padded timestamp-style
    /// word). `n ≤ 10` per RFC 791's 40-byte option budget.
    pub fn ipv4_options(mut self, n: u8) -> Self {
        assert!(n <= 10, "IPv4 allows at most 40 option bytes");
        self.ihl_words = 5 + n;
        self.put(IPV4_VER_IHL as usize, &[0x40 | self.ihl_words]);
        for i in 0..n {
            // Type 68 (timestamp), length 4, pointer, overflow/flags.
            let off = IPV4_OPTS as usize + 4 * i as usize;
            self.put(off, &[68, 4, 5, 0]);
        }
        self
    }

    /// L4 header at the post-options offset.
    pub fn udp(mut self, sport: u16, dport: u16) -> Self {
        let l4 = 14 + 4 * self.ihl_words as usize;
        self.put(l4, &sport.to_be_bytes());
        self.put(l4 + 2, &dport.to_be_bytes());
        self
    }

    /// Finish the frame (padded to the 64-byte Ethernet minimum).
    pub fn build(mut self) -> Vec<u8> {
        if self.bytes.len() < MIN_FRAME {
            self.bytes.resize(MIN_FRAME, 0);
        }
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_layout_is_correct() {
        let f = PacketBuilder::new()
            .eth(0xAABBCCDDEEFF, 0x112233445566, ETHERTYPE_IPV4)
            .ipv4(0xC0A80101, 0x08080808, IPPROTO_TCP, 63)
            .udp(443, 55555)
            .build();
        assert_eq!(&f[0..6], &[0xAA, 0xBB, 0xCC, 0xDD, 0xEE, 0xFF]);
        assert_eq!(&f[6..12], &[0x11, 0x22, 0x33, 0x44, 0x55, 0x66]);
        assert_eq!(u16::from_be_bytes([f[12], f[13]]), ETHERTYPE_IPV4);
        assert_eq!(f[IPV4_VER_IHL as usize], 0x45);
        assert_eq!(f[IPV4_TTL as usize], 63);
        assert_eq!(f[IPV4_PROTO as usize], IPPROTO_TCP);
        assert_eq!(u32::from_be_bytes([f[26], f[27], f[28], f[29]]), 0xC0A80101);
        assert_eq!(u16::from_be_bytes([f[34], f[35]]), 443);
    }

    #[test]
    fn options_shift_l4() {
        let f = PacketBuilder::new()
            .eth(1, 2, ETHERTYPE_IPV4)
            .ipv4(1, 2, IPPROTO_UDP, 64)
            .ipv4_options(3)
            .udp(10, 20)
            .build();
        assert_eq!(f[IPV4_VER_IHL as usize], 0x48);
        let l4 = 14 + 4 * 8; // Ethernet + an 8-word IPv4 header
        assert_eq!(u16::from_be_bytes([f[l4], f[l4 + 1]]), 10);
        assert_eq!(f[IPV4_OPTS as usize], 68);
    }

    #[test]
    #[should_panic(expected = "40 option bytes")]
    fn too_many_options_panics() {
        let _ = PacketBuilder::new().ipv4_options(11);
    }

    #[test]
    fn frames_meet_minimum_size() {
        let f = PacketBuilder::new().build();
        assert_eq!(f.len(), MIN_FRAME);
    }
}
