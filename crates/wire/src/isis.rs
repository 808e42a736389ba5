//! IS-IS PDU codec.
//!
//! Implements the PDU set needed for point-to-point IS-IS as deployed in the
//! paper's topologies: p2p hellos (adjacency formation), link-state PDUs
//! with extended reachability TLVs (RFC 5305 wide metrics), and CSNP/PSNP
//! sequence-number PDUs for database synchronisation. LSP checksums use the
//! standard Fletcher algorithm.
//!
//! A router takes LSPs off the wire as [`StoredLsp`]s ([`receive`]): the
//! bytes it verified, which it floods on unchanged, and what SPF reads.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use mfv_types::Prefix;

use crate::DecodeError;

/// IS-IS protocol discriminator (first byte of every PDU).
pub const PROTO_DISCRIMINATOR: u8 = 0x83;

/// PDU type codes (level-2 variants).
pub const PDU_P2P_HELLO: u8 = 17;
pub const PDU_L2_LSP: u8 = 20;
pub const PDU_L2_CSNP: u8 = 25;
pub const PDU_L2_PSNP: u8 = 27;

/// TLV type codes.
pub const TLV_AREA: u8 = 1;
pub const TLV_LSP_ENTRIES: u8 = 9;
pub const TLV_EXT_IS_REACH: u8 = 22;
pub const TLV_PROTOCOLS: u8 = 129;
pub const TLV_IP_IFACE_ADDR: u8 = 132;
pub const TLV_EXT_IP_REACH: u8 = 135;
pub const TLV_HOSTNAME: u8 = 137;
pub const TLV_P2P_ADJ_STATE: u8 = 240;

/// NLPID for IPv4.
pub const NLPID_IPV4: u8 = 0xcc;

/// Largest wide metric TLV 22 carries (24 bits).
const MAX_IS_METRIC: u32 = 0xff_ffff;

/// Where an LSP PDU's id, checksum and TLVs start. The checksum covers
/// the id and sequence number before it and the TLVs after the flags byte.
const LSP_ID_AT: usize = 12;
const LSP_CHECKSUM_AT: usize = 24;
const LSP_TLVS_AT: usize = 27;

/// A 6-byte IS-IS system identifier.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct SystemId(pub [u8; 6]);

impl SystemId {
    /// Derives a system-id from an IPv4 address (the common operational
    /// convention: zero-padded loopback octets).
    pub fn from_ip(ip: Ipv4Addr) -> SystemId {
        let [a, b, c, d] = ip.octets();
        SystemId([0, 0, a, b, c, d])
    }
}

impl fmt::Debug for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for SystemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [b0, b1, b2, b3, b4, b5] = self.0;
        write!(f, "{b0:02x}{b1:02x}.{b2:02x}{b3:02x}.{b4:02x}{b5:02x}")
    }
}

impl FromStr for SystemId {
    type Err = DecodeError;

    /// Parses `xxxx.xxxx.xxxx` hex groups.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let hex: String = s.chars().filter(|c| *c != '.').collect();
        if hex.len() != 12 {
            return Err(DecodeError::new("isis", format!("bad system-id {s}")));
        }
        // Nibble-wise parse: a non-hex (or multi-byte) character fails
        // `hex_val` rather than tripping a slice boundary.
        let mut nibbles = hex.bytes().map(hex_val);
        let mut out = [0u8; 6];
        for chunk in out.iter_mut() {
            match (nibbles.next().flatten(), nibbles.next().flatten()) {
                (Some(hi), Some(lo)) => *chunk = (hi << 4) | lo,
                _ => return Err(DecodeError::new("isis", format!("bad system-id {s}"))),
            }
        }
        Ok(SystemId(out))
    }
}

/// An 8-byte LSP identifier: system-id + pseudonode + fragment.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct LspId {
    pub system: SystemId,
    pub pseudonode: u8,
    pub fragment: u8,
}

impl LspId {
    pub fn of(system: SystemId) -> LspId {
        LspId {
            system,
            pseudonode: 0,
            fragment: 0,
        }
    }

    fn encode(&self, out: &mut BytesMut) {
        out.extend_from_slice(&self.system.0);
        out.put_u8(self.pseudonode);
        out.put_u8(self.fragment);
    }

    fn decode(buf: &mut Bytes) -> Result<LspId, DecodeError> {
        if buf.len() < 8 {
            return Err(DecodeError::new("isis", "truncated LSP id"));
        }
        let mut sys = [0u8; 6];
        sys.copy_from_slice(&buf.split_to(6));
        Ok(LspId {
            system: SystemId(sys),
            pseudonode: buf.get_u8(),
            fragment: buf.get_u8(),
        })
    }
}

impl fmt::Debug for LspId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{:02x}-{:02x}",
            self.system, self.pseudonode, self.fragment
        )
    }
}

impl fmt::Display for LspId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}.{:02x}-{:02x}",
            self.system, self.pseudonode, self.fragment
        )
    }
}

/// An IS (router) neighbor entry in TLV 22.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IsNeighbor {
    pub neighbor: SystemId,
    pub pseudonode: u8,
    /// 24-bit wide metric.
    pub metric: u32,
}

/// An IPv4 reachability entry in TLV 135.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IpReach {
    pub metric: u32,
    pub prefix: Prefix,
    /// RFC 5305 up/down bit (set on routes leaked down a level).
    pub down: bool,
}

/// One entry of an LSP-entries TLV (CSNP/PSNP body).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LspEntry {
    pub lifetime: u16,
    pub lsp_id: LspId,
    pub seq: u32,
    pub checksum: u16,
}

/// P2P adjacency three-way state (TLV 240).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AdjState {
    Up,
    Initializing,
    Down,
}

impl AdjState {
    fn code(&self) -> u8 {
        match self {
            AdjState::Up => 0,
            AdjState::Initializing => 1,
            AdjState::Down => 2,
        }
    }

    fn from_code(c: u8) -> Option<AdjState> {
        match c {
            0 => Some(AdjState::Up),
            1 => Some(AdjState::Initializing),
            2 => Some(AdjState::Down),
            _ => None,
        }
    }
}

/// A typed IS-IS TLV. Unknown TLVs are preserved raw.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Tlv {
    /// Area addresses (each as raw AFI+area bytes).
    Area(Vec<Bytes>),
    /// NLPIDs supported.
    Protocols(Vec<u8>),
    /// IPv4 interface addresses.
    IpIfaceAddr(Vec<Ipv4Addr>),
    /// Three-way handshake state.
    P2pAdjState {
        state: AdjState,
        neighbor: Option<SystemId>,
    },
    /// Dynamic hostname.
    Hostname(String),
    /// Extended IS reachability (wide metrics).
    ExtIsReach(Vec<IsNeighbor>),
    /// Extended IPv4 reachability (wide metrics).
    ExtIpReach(Vec<IpReach>),
    /// LSP entries (CSNP/PSNP).
    LspEntries(Vec<LspEntry>),
    Unknown {
        type_code: u8,
        value: Bytes,
    },
}

impl Tlv {
    fn type_code(&self) -> u8 {
        match self {
            Tlv::Area(_) => TLV_AREA,
            Tlv::Protocols(_) => TLV_PROTOCOLS,
            Tlv::IpIfaceAddr(_) => TLV_IP_IFACE_ADDR,
            Tlv::P2pAdjState { .. } => TLV_P2P_ADJ_STATE,
            Tlv::Hostname(_) => TLV_HOSTNAME,
            Tlv::ExtIsReach(_) => TLV_EXT_IS_REACH,
            Tlv::ExtIpReach(_) => TLV_EXT_IP_REACH,
            Tlv::LspEntries(_) => TLV_LSP_ENTRIES,
            Tlv::Unknown { type_code, .. } => *type_code,
        }
    }
}

/// Writes each TLV straight into `out`, its length byte patched once the
/// value is written.
fn encode_tlvs(out: &mut BytesMut, tlvs: &[Tlv]) {
    for tlv in tlvs {
        out.put_u8(tlv.type_code());
        let len_pos = out.len();
        out.put_u8(0); // value length, patched below
        match tlv {
            Tlv::Area(areas) => {
                for a in areas {
                    out.put_u8(a.len() as u8);
                    out.extend_from_slice(a);
                }
            }
            Tlv::Protocols(nlpids) => out.extend_from_slice(nlpids),
            Tlv::IpIfaceAddr(addrs) => {
                for a in addrs {
                    out.put_u32(u32::from(*a));
                }
            }
            Tlv::P2pAdjState { state, neighbor } => {
                out.put_u8(state.code());
                // Extended circuit id (4 bytes, we use 0).
                out.put_u32(0);
                if let Some(n) = neighbor {
                    out.extend_from_slice(&n.0);
                    out.put_u32(0); // neighbor extended circuit id
                }
            }
            Tlv::Hostname(h) => out.extend_from_slice(h.as_bytes()),
            Tlv::ExtIsReach(neighbors) => {
                for n in neighbors {
                    out.extend_from_slice(&n.neighbor.0);
                    out.put_u8(n.pseudonode);
                    let m = n.metric.min(MAX_IS_METRIC);
                    out.put_u8((m >> 16) as u8);
                    out.put_u16((m & 0xffff) as u16);
                    out.put_u8(0); // no sub-TLVs
                }
            }
            Tlv::ExtIpReach(reaches) => {
                for r in reaches {
                    out.put_u32(r.metric);
                    let control = (r.prefix.len() & 0x3f) | if r.down { 0x80 } else { 0 };
                    out.put_u8(control);
                    let nbytes = (r.prefix.len() as usize).div_ceil(8);
                    let bits = r.prefix.network_bits().to_be_bytes();
                    out.extend_from_slice(bits.get(..nbytes).unwrap_or(&bits));
                }
            }
            Tlv::LspEntries(entries) => {
                for e in entries {
                    out.put_u16(e.lifetime);
                    e.lsp_id.encode(out);
                    out.put_u32(e.seq);
                    out.put_u16(e.checksum);
                }
            }
            Tlv::Unknown { value, .. } => out.extend_from_slice(value),
        }
        // A value past 255 bytes wraps its length (ROADMAP item 3): the
        // receiver rejects the PDU.
        let len = out.len() - len_pos - 1;
        patch_u8(out, len_pos, len as u8);
    }
}

fn decode_tlvs(buf: &mut Bytes) -> Result<Vec<Tlv>, DecodeError> {
    let err = |r: &str| DecodeError::new("isis", r);
    let mut out = Vec::new();
    while !buf.is_empty() {
        if buf.len() < 2 {
            return Err(err("truncated TLV header"));
        }
        let type_code = buf.get_u8();
        let len = buf.get_u8() as usize;
        if buf.len() < len {
            return Err(err("truncated TLV value"));
        }
        let mut v = buf.split_to(len);
        let tlv = match type_code {
            TLV_AREA => {
                let mut areas = Vec::new();
                while !v.is_empty() {
                    let alen = v.get_u8() as usize;
                    if v.len() < alen {
                        return Err(err("truncated area address"));
                    }
                    areas.push(v.split_to(alen));
                }
                Tlv::Area(areas)
            }
            TLV_PROTOCOLS => Tlv::Protocols(v.to_vec()),
            TLV_IP_IFACE_ADDR => {
                if !v.len().is_multiple_of(4) {
                    return Err(err("bad interface address TLV"));
                }
                let mut addrs = Vec::new();
                while !v.is_empty() {
                    addrs.push(Ipv4Addr::from(v.get_u32()));
                }
                Tlv::IpIfaceAddr(addrs)
            }
            TLV_P2P_ADJ_STATE => {
                if v.is_empty() {
                    return Err(err("empty adjacency state TLV"));
                }
                let state =
                    AdjState::from_code(v.get_u8()).ok_or_else(|| err("bad adjacency state"))?;
                let neighbor = if v.len() >= 10 {
                    v.advance(4); // our extended circuit id
                    let mut sys = [0u8; 6];
                    sys.copy_from_slice(&v.split_to(6));
                    Some(SystemId(sys))
                } else {
                    None
                };
                Tlv::P2pAdjState { state, neighbor }
            }
            TLV_HOSTNAME => {
                Tlv::Hostname(String::from_utf8(v.to_vec()).map_err(|_| err("bad hostname"))?)
            }
            TLV_EXT_IS_REACH => {
                let mut neighbors = Vec::new();
                while !v.is_empty() {
                    if v.len() < 11 {
                        return Err(err("truncated IS reach entry"));
                    }
                    let mut sys = [0u8; 6];
                    sys.copy_from_slice(&v.split_to(6));
                    let pseudonode = v.get_u8();
                    let hi = v.get_u8() as u32;
                    let lo = v.get_u16() as u32;
                    let subtlv_len = v.get_u8() as usize;
                    if v.len() < subtlv_len {
                        return Err(err("truncated IS reach sub-TLVs"));
                    }
                    v.advance(subtlv_len);
                    neighbors.push(IsNeighbor {
                        neighbor: SystemId(sys),
                        pseudonode,
                        metric: (hi << 16) | lo,
                    });
                }
                Tlv::ExtIsReach(neighbors)
            }
            TLV_EXT_IP_REACH => {
                let mut reaches = Vec::new();
                while !v.is_empty() {
                    if v.len() < 5 {
                        return Err(err("truncated IP reach entry"));
                    }
                    let metric = v.get_u32();
                    let control = v.get_u8();
                    let plen = control & 0x3f;
                    if plen > 32 {
                        return Err(err("IP reach prefix length > 32"));
                    }
                    let down = control & 0x80 != 0;
                    let nbytes = (plen as usize).div_ceil(8);
                    if v.len() < nbytes {
                        return Err(err("truncated IP reach prefix"));
                    }
                    let chunk = v.split_to(nbytes);
                    let mut bits = [0u8; 4];
                    for (slot, b) in bits.iter_mut().zip(chunk.iter()) {
                        *slot = *b;
                    }
                    reaches.push(IpReach {
                        metric,
                        prefix: Prefix::from_bits(u32::from_be_bytes(bits), plen),
                        down,
                    });
                }
                Tlv::ExtIpReach(reaches)
            }
            TLV_LSP_ENTRIES => {
                let mut entries = Vec::new();
                while !v.is_empty() {
                    if v.len() < 16 {
                        return Err(err("truncated LSP entry"));
                    }
                    let lifetime = v.get_u16();
                    let lsp_id = LspId::decode(&mut v)?;
                    let seq = v.get_u32();
                    let checksum = v.get_u16();
                    entries.push(LspEntry {
                        lifetime,
                        lsp_id,
                        seq,
                        checksum,
                    });
                }
                Tlv::LspEntries(entries)
            }
            _ => Tlv::Unknown {
                type_code,
                value: v,
            },
        };
        out.push(tlv);
    }
    Ok(out)
}

/// A point-to-point IS-IS hello.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct P2pHello {
    /// 1 = L1 only, 2 = L2 only, 3 = L1L2.
    pub circuit_type: u8,
    pub source: SystemId,
    pub hold_time_secs: u16,
    pub circuit_id: u8,
    pub tlvs: Vec<Tlv>,
}

impl P2pHello {
    /// The adjacency state TLV, if present.
    pub fn adj_state(&self) -> Option<(AdjState, Option<SystemId>)> {
        self.tlvs.iter().find_map(|t| match t {
            Tlv::P2pAdjState { state, neighbor } => Some((*state, *neighbor)),
            _ => None,
        })
    }
}

/// A link-state PDU.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lsp {
    pub lifetime_secs: u16,
    pub lsp_id: LspId,
    pub seq: u32,
    pub tlvs: Vec<Tlv>,
}

impl Lsp {
    pub fn hostname(&self) -> Option<&str> {
        self.tlvs.iter().find_map(|t| match t {
            Tlv::Hostname(h) => Some(h.as_str()),
            _ => None,
        })
    }

    pub fn is_neighbors(&self) -> impl Iterator<Item = &IsNeighbor> {
        self.tlvs.iter().flat_map(|t| match t {
            Tlv::ExtIsReach(v) => v.as_slice(),
            _ => &[],
        })
    }

    pub fn ip_reaches(&self) -> impl Iterator<Item = &IpReach> {
        self.tlvs.iter().flat_map(|t| match t {
            Tlv::ExtIpReach(v) => v.as_slice(),
            _ => &[],
        })
    }

    /// The PDU and its checksum, computed once over the bytes it writes.
    fn encode_checksummed(&self) -> (Bytes, u16) {
        let mut out = common_header(PDU_L2_LSP);
        let len_pos = out.len();
        out.put_u16(0); // pdu length, patched below
        out.put_u16(self.lifetime_secs);
        self.lsp_id.encode(&mut out);
        out.put_u32(self.seq);
        out.put_u16(0); // checksum, patched below
        out.put_u8(0x03); // flags: L2 IS
        encode_tlvs(&mut out, &self.tlvs);
        let total = out.len() as u16;
        patch_u16_be(&mut out, len_pos, total);
        let checksum = lsp_checksum(out.get(LSP_ID_AT..).unwrap_or_default());
        patch_u16_be(&mut out, LSP_CHECKSUM_AT, checksum);
        (out.freeze(), checksum)
    }
}

/// An LSP as a link-state database keeps it: the PDU bytes, checksummed
/// once — verified when they were received, computed when they were
/// encoded — and flooded on unchanged; the fields a sequence-numbers PDU
/// names it by; and what SPF reads of it. Built only by [`receive`] and
/// [`StoredLsp::encode`], so the three always describe one PDU.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StoredLsp {
    bytes: Bytes,
    entry: LspEntry,
    neighbors: Box<[IsNeighbor]>,
    prefixes: Box<[IpReach]>,
}

impl StoredLsp {
    /// Originates `lsp`: its one encoding and checksum.
    pub fn encode(lsp: &Lsp) -> StoredLsp {
        let (bytes, checksum) = lsp.encode_checksummed();
        StoredLsp::new(bytes, checksum, lsp)
    }

    /// Keeps what SPF reads of `lsp` beside its PDU.
    fn new(bytes: Bytes, checksum: u16, lsp: &Lsp) -> StoredLsp {
        StoredLsp {
            bytes,
            entry: LspEntry {
                lifetime: lsp.lifetime_secs,
                lsp_id: lsp.lsp_id,
                seq: lsp.seq,
                checksum,
            },
            // What the wire carries: wide metrics saturate at 24 bits.
            neighbors: lsp
                .is_neighbors()
                .map(|n| IsNeighbor {
                    metric: n.metric.min(MAX_IS_METRIC),
                    ..*n
                })
                .collect(),
            prefixes: lsp.ip_reaches().copied().collect(),
        }
    }

    /// The whole PDU, as it goes on the wire.
    pub fn bytes(&self) -> &Bytes {
        &self.bytes
    }

    /// Lifetime, LSP id, sequence number and checksum.
    pub fn entry(&self) -> LspEntry {
        self.entry
    }

    /// Extended IS reachability, in TLV order.
    pub fn neighbors(&self) -> &[IsNeighbor] {
        &self.neighbors
    }

    /// Extended IPv4 reachability, in TLV order.
    pub fn prefixes(&self) -> &[IpReach] {
        &self.prefixes
    }

    /// The dynamic hostname, read out of the bytes (an operator's `show`,
    /// not a protocol path).
    pub fn hostname(&self) -> Option<String> {
        let mut tlvs = Bytes::copy_from_slice(self.bytes.get(LSP_TLVS_AT..)?);
        let tlvs = decode_tlvs(&mut tlvs).ok()?;
        tlvs.into_iter().find_map(|t| match t {
            Tlv::Hostname(h) => Some(h),
            _ => None,
        })
    }
}

/// A PDU as a router takes it off the wire: an LSP stored, the rest typed
/// (never an [`IsisPdu::Lsp`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Received {
    Lsp(StoredLsp),
    Pdu(IsisPdu),
}

/// Decodes one frame. An LSP's checksum is verified over the bytes
/// received, and what SPF reads of it is kept beside those bytes.
pub fn receive(frame: Bytes) -> Result<Received, DecodeError> {
    let mut buf = frame.clone();
    match decode_common_header(&mut buf)? {
        PDU_L2_LSP => {
            let (lsp, checksum) = decode_lsp(&mut buf)?;
            Ok(Received::Lsp(StoredLsp::new(frame, checksum, &lsp)))
        }
        pdu_type => decode_body(pdu_type, &mut buf).map(Received::Pdu),
    }
}

/// A complete sequence-numbers PDU (database summary).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Csnp {
    pub source: SystemId,
    pub entries: Vec<LspEntry>,
}

/// A partial sequence-numbers PDU (explicit request/ack).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Psnp {
    pub source: SystemId,
    pub entries: Vec<LspEntry>,
}

/// Any IS-IS PDU.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum IsisPdu {
    P2pHello(P2pHello),
    Lsp(Lsp),
    Csnp(Csnp),
    Psnp(Psnp),
}

/// The Fletcher-16 checksum (ISO 8473 style, without the zero-adjustment
/// refinement — both ends of our wire use the same code) of the
/// concatenated `parts`, reduced modulo 255 once per block instead of per
/// byte: from sums below 255, 5,802 bytes of `0xff`
/// is the longest run after which `c1` still fits a `u32`.
fn fletcher16_of(parts: &[&[u8]]) -> u16 {
    let (mut c0, mut c1) = (0u32, 0u32);
    for block in parts.iter().flat_map(|part| part.chunks(5802)) {
        for &b in block {
            c0 += b as u32;
            c1 += c0;
        }
        c0 %= 255;
        c1 %= 255;
    }
    ((c1 as u16) << 8) | c0 as u16
}

/// The checksum of an LSP whose PDU from the LSP id on is `from_id`: the
/// id and sequence number, then the TLVs — not the lifetime before them,
/// the checksum itself or the flags.
fn lsp_checksum(from_id: &[u8]) -> u16 {
    let id_and_seq = from_id.get(..LSP_CHECKSUM_AT - LSP_ID_AT);
    let tlvs = from_id.get(LSP_TLVS_AT - LSP_ID_AT..);
    fletcher16_of(&[id_and_seq.unwrap_or_default(), tlvs.unwrap_or_default()])
}

/// Back-patches one byte reserved earlier by a placeholder `put_u8`.
/// A position outside the buffer (impossible by construction — every call
/// passes an offset previously returned by `out.len()`) is a no-op, so the
/// encoder can never panic.
fn patch_u8(out: &mut BytesMut, pos: usize, val: u8) {
    if let Some(b) = out.get_mut(pos) {
        *b = val;
    }
}

/// Back-patches a big-endian u16 reserved earlier by a placeholder
/// `put_u16`. Same no-panic contract as [`patch_u8`].
fn patch_u16_be(out: &mut BytesMut, pos: usize, val: u16) {
    if let Some(slot) = out.get_mut(pos..pos + 2) {
        slot.copy_from_slice(&val.to_be_bytes());
    }
}

/// The eight bytes every PDU starts with.
fn common_header(pdu_type: u8) -> BytesMut {
    let mut out = BytesMut::new();
    out.put_u8(PROTO_DISCRIMINATOR);
    out.put_u8(0); // length indicator (filled by implementations we skip)
    out.put_u8(1); // version/protocol id extension
    out.put_u8(0); // id length (0 = 6 bytes)
    out.put_u8(pdu_type);
    out.put_u8(1); // version
    out.put_u8(0); // reserved
    out.put_u8(0); // max area addresses (0 = 3)
    out
}

/// Reads the common header; returns the PDU type.
fn decode_common_header(buf: &mut Bytes) -> Result<u8, DecodeError> {
    let err = |r: &str| DecodeError::new("isis", r);
    if buf.len() < 8 {
        return Err(err("truncated common header"));
    }
    if buf.get_u8() != PROTO_DISCRIMINATOR {
        return Err(err("bad protocol discriminator"));
    }
    buf.advance(2); // length indicator, version
    let id_len = buf.get_u8();
    if id_len != 0 && id_len != 6 {
        return Err(err("unsupported id length"));
    }
    let pdu_type = buf.get_u8() & 0x1f;
    buf.advance(3); // version, reserved, max areas
    Ok(pdu_type)
}

/// Decodes an LSP and the checksum it carries, verified over the bytes as
/// received.
fn decode_lsp(buf: &mut Bytes) -> Result<(Lsp, u16), DecodeError> {
    if buf.len() < 19 {
        return Err(DecodeError::new("isis", "truncated LSP"));
    }
    let _pdu_len = buf.get_u16();
    let lifetime_secs = buf.get_u16();
    let computed = lsp_checksum(buf);
    let lsp_id = LspId::decode(buf)?;
    let seq = buf.get_u32();
    let checksum = buf.get_u16();
    let _flags = buf.get_u8();
    if computed != checksum {
        return Err(DecodeError::new("isis", "LSP checksum mismatch"));
    }
    let tlvs = decode_tlvs(buf)?;
    let lsp = Lsp {
        lifetime_secs,
        lsp_id,
        seq,
        tlvs,
    };
    Ok((lsp, checksum))
}

/// Decodes what follows the common header of a `pdu_type` PDU.
fn decode_body(pdu_type: u8, buf: &mut Bytes) -> Result<IsisPdu, DecodeError> {
    let err = |r: &str| DecodeError::new("isis", r);
    match pdu_type {
        PDU_P2P_HELLO => {
            if buf.len() < 12 {
                return Err(err("truncated hello"));
            }
            let circuit_type = buf.get_u8();
            let mut sys = [0u8; 6];
            sys.copy_from_slice(&buf.split_to(6));
            let hold_time_secs = buf.get_u16();
            let _pdu_len = buf.get_u16();
            let circuit_id = buf.get_u8();
            let tlvs = decode_tlvs(buf)?;
            Ok(IsisPdu::P2pHello(P2pHello {
                circuit_type,
                source: SystemId(sys),
                hold_time_secs,
                circuit_id,
                tlvs,
            }))
        }
        PDU_L2_LSP => decode_lsp(buf).map(|(lsp, _)| IsisPdu::Lsp(lsp)),
        PDU_L2_CSNP => {
            if buf.len() < 25 {
                return Err(err("truncated CSNP"));
            }
            let _pdu_len = buf.get_u16();
            let mut sys = [0u8; 6];
            sys.copy_from_slice(&buf.split_to(6));
            buf.advance(1 + 16); // circuit id + start/end range
            Ok(IsisPdu::Csnp(Csnp {
                source: SystemId(sys),
                entries: lsp_entries(decode_tlvs(buf)?),
            }))
        }
        PDU_L2_PSNP => {
            if buf.len() < 9 {
                return Err(err("truncated PSNP"));
            }
            let _pdu_len = buf.get_u16();
            let mut sys = [0u8; 6];
            sys.copy_from_slice(&buf.split_to(6));
            buf.advance(1); // circuit id
            Ok(IsisPdu::Psnp(Psnp {
                source: SystemId(sys),
                entries: lsp_entries(decode_tlvs(buf)?),
            }))
        }
        t => Err(err(&format!("unknown PDU type {t}"))),
    }
}

/// The entries of every LSP-entries TLV, in order.
fn lsp_entries(tlvs: Vec<Tlv>) -> Vec<LspEntry> {
    tlvs.into_iter()
        .flat_map(|t| match t {
            Tlv::LspEntries(e) => e,
            _ => Vec::new(),
        })
        .collect()
}

impl IsisPdu {
    pub fn encode(&self) -> Bytes {
        let (mut out, len_pos) = match self {
            IsisPdu::P2pHello(h) => {
                let mut out = common_header(PDU_P2P_HELLO);
                out.put_u8(h.circuit_type);
                out.extend_from_slice(&h.source.0);
                out.put_u16(h.hold_time_secs);
                let len_pos = out.len();
                out.put_u16(0); // pdu length, patched below
                out.put_u8(h.circuit_id);
                encode_tlvs(&mut out, &h.tlvs);
                (out, len_pos)
            }
            IsisPdu::Lsp(l) => return l.encode_checksummed().0,
            IsisPdu::Csnp(c) => {
                let mut out = common_header(PDU_L2_CSNP);
                let len_pos = out.len();
                out.put_u16(0);
                out.extend_from_slice(&c.source.0);
                out.put_u8(0); // circuit id
                               // Start/end LSP id range: full range.
                out.put_bytes(0x00, 8);
                out.put_bytes(0xff, 8);
                encode_tlvs(&mut out, &[Tlv::LspEntries(c.entries.clone())]);
                (out, len_pos)
            }
            IsisPdu::Psnp(p) => {
                let mut out = common_header(PDU_L2_PSNP);
                let len_pos = out.len();
                out.put_u16(0);
                out.extend_from_slice(&p.source.0);
                out.put_u8(0);
                encode_tlvs(&mut out, &[Tlv::LspEntries(p.entries.clone())]);
                (out, len_pos)
            }
        };
        let total = out.len() as u16;
        patch_u16_be(&mut out, len_pos, total);
        out.freeze()
    }

    pub fn decode(buf: &mut Bytes) -> Result<IsisPdu, DecodeError> {
        let pdu_type = decode_common_header(buf)?;
        decode_body(pdu_type, buf)
    }
}

/// Parses the area bytes out of an ISO NET string
/// (`49.0001.1010.1040.1030.00` → `[0x49, 0x00, 0x01]`).
pub fn net_area_bytes(net: &str) -> Option<Bytes> {
    let parts: Vec<&str> = net.split('.').collect();
    // NET = area (1+ groups) + 3 groups of system id + 1 selector.
    if parts.len() < 5 {
        return None;
    }
    let area_parts = parts.get(..parts.len().checked_sub(4)?)?;
    let mut out = Vec::new();
    for p in area_parts {
        if p.len() % 2 != 0 {
            return None;
        }
        // Nibble-wise parse: a non-hex (or multi-byte) character fails
        // `hex_val` rather than tripping a slice boundary.
        let mut nibbles = p.bytes().map(hex_val);
        while let Some(hi) = nibbles.next() {
            out.push((hi? << 4) | nibbles.next().flatten()?);
        }
    }
    Some(Bytes::from(out))
}

/// Value of one ASCII hex digit.
fn hex_val(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Parses the system-id out of an ISO NET string.
pub fn net_system_id(net: &str) -> Option<SystemId> {
    let parts: Vec<&str> = net.split('.').collect();
    if parts.len() < 5 {
        return None;
    }
    let start = parts.len().checked_sub(4)?;
    let sys = parts.get(start..start + 3)?.join(".");
    sys.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::option;
    use proptest::prelude::*;

    /// Standard Fletcher-16 checksum (ISO 8473 style, without the
    /// zero-adjustment refinement — both ends of our wire use the same code).
    fn fletcher16(data: &[u8]) -> u16 {
        fletcher16_of(&[data])
    }

    fn sys(n: u8) -> SystemId {
        SystemId([0, 0, 0, 0, 0, n])
    }

    fn roundtrip(pdu: IsisPdu) -> IsisPdu {
        let mut bytes = pdu.encode();
        let decoded = IsisPdu::decode(&mut bytes).unwrap();
        assert!(bytes.is_empty(), "decoder must consume the whole PDU");
        decoded
    }

    /// `fletcher16` as it was, reduced after every byte: the reference for
    /// the block-reduced sum.
    fn fletcher16_per_byte(data: &[u8]) -> u16 {
        let mut c0: u32 = 0;
        let mut c1: u32 = 0;
        for &b in data {
            c0 = (c0 + b as u32) % 255;
            c1 = (c1 + c0) % 255;
        }
        ((c1 as u16) << 8) | c0 as u16
    }

    /// `encode_tlvs` as it was, through a buffer per TLV: the reference for
    /// the in-place encoder.
    fn encode_tlvs_buffered(out: &mut BytesMut, tlvs: &[Tlv]) {
        for tlv in tlvs {
            let mut v = BytesMut::new();
            match tlv {
                Tlv::Area(areas) => {
                    for a in areas {
                        v.put_u8(a.len() as u8);
                        v.extend_from_slice(a);
                    }
                }
                Tlv::Protocols(nlpids) => v.extend_from_slice(nlpids),
                Tlv::IpIfaceAddr(addrs) => {
                    for a in addrs {
                        v.put_u32(u32::from(*a));
                    }
                }
                Tlv::P2pAdjState { state, neighbor } => {
                    v.put_u8(state.code());
                    v.put_u32(0);
                    if let Some(n) = neighbor {
                        v.extend_from_slice(&n.0);
                        v.put_u32(0);
                    }
                }
                Tlv::Hostname(h) => v.extend_from_slice(h.as_bytes()),
                Tlv::ExtIsReach(neighbors) => {
                    for n in neighbors {
                        v.extend_from_slice(&n.neighbor.0);
                        v.put_u8(n.pseudonode);
                        let m = n.metric.min(0xff_ffff);
                        v.put_u8((m >> 16) as u8);
                        v.put_u16((m & 0xffff) as u16);
                        v.put_u8(0);
                    }
                }
                Tlv::ExtIpReach(reaches) => {
                    for r in reaches {
                        v.put_u32(r.metric);
                        let control = (r.prefix.len() & 0x3f) | if r.down { 0x80 } else { 0 };
                        v.put_u8(control);
                        let nbytes = (r.prefix.len() as usize).div_ceil(8);
                        let bits = r.prefix.network_bits().to_be_bytes();
                        for b in bits.iter().take(nbytes) {
                            v.put_u8(*b);
                        }
                    }
                }
                Tlv::LspEntries(entries) => {
                    for e in entries {
                        v.put_u16(e.lifetime);
                        e.lsp_id.encode(&mut v);
                        v.put_u32(e.seq);
                        v.put_u16(e.checksum);
                    }
                }
                Tlv::Unknown { value, .. } => v.extend_from_slice(value),
            }
            out.put_u8(tlv.type_code());
            out.put_u8(v.len() as u8);
            out.extend_from_slice(&v);
        }
    }

    /// An LSP PDU as the buffered encoder and per-byte checksum built it.
    fn lsp_encoded_as_it_was(l: &Lsp) -> Vec<u8> {
        let mut body = BytesMut::new();
        l.lsp_id.encode(&mut body);
        body.put_u32(l.seq);
        encode_tlvs_buffered(&mut body, &l.tlvs);
        let mut out = vec![PROTO_DISCRIMINATOR, 0, 1, 0, PDU_L2_LSP, 1, 0, 0];
        out.extend_from_slice(&((LSP_TLVS_AT + body.len() - 12) as u16).to_be_bytes());
        out.extend_from_slice(&l.lifetime_secs.to_be_bytes());
        out.extend_from_slice(&body[..12]);
        out.extend_from_slice(&fletcher16_per_byte(&body).to_be_bytes());
        out.push(0x03);
        out.extend_from_slice(&body[12..]);
        out
    }

    fn arb_prefix() -> impl Strategy<Value = Prefix> {
        (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix::from_bits(bits, len))
    }

    /// Any TLV, long ones included: past 255 bytes a length byte wraps.
    fn arb_tlv() -> impl Strategy<Value = Tlv> {
        let bytes = |max| vec(any::<u8>(), 0..max).prop_map(Bytes::from);
        prop_oneof![
            vec(bytes(20), 0..4).prop_map(Tlv::Area),
            vec(any::<u8>(), 0..8).prop_map(Tlv::Protocols),
            vec(any::<u32>().prop_map(Ipv4Addr::from), 0..80).prop_map(Tlv::IpIfaceAddr),
            (0u8..3, option::of(any::<u8>())).prop_map(|(s, n)| Tlv::P2pAdjState {
                state: AdjState::from_code(s).unwrap(),
                neighbor: n.map(sys),
            }),
            "[a-z0-9-]{0,300}".prop_map(Tlv::Hostname),
            vec((any::<u8>(), any::<u8>(), any::<u32>()), 0..30).prop_map(|ns| {
                Tlv::ExtIsReach(
                    ns.into_iter()
                        .map(|(n, pseudonode, metric)| IsNeighbor {
                            neighbor: sys(n),
                            pseudonode,
                            metric,
                        })
                        .collect(),
                )
            }),
            vec((any::<u32>(), arb_prefix(), any::<bool>()), 0..40).prop_map(|rs| {
                Tlv::ExtIpReach(
                    rs.into_iter()
                        .map(|(metric, prefix, down)| IpReach {
                            metric,
                            prefix,
                            down,
                        })
                        .collect(),
                )
            }),
            vec(
                (any::<u16>(), any::<u8>(), any::<u32>(), any::<u16>()),
                0..20
            )
            .prop_map(|es| {
                Tlv::LspEntries(
                    es.into_iter()
                        .map(|(lifetime, n, seq, checksum)| LspEntry {
                            lifetime,
                            lsp_id: LspId::of(sys(n)),
                            seq,
                            checksum,
                        })
                        .collect(),
                )
            }),
            (200u8..=255, bytes(300))
                .prop_map(|(type_code, value)| Tlv::Unknown { type_code, value }),
        ]
    }

    fn arb_lsp() -> impl Strategy<Value = Lsp> {
        (
            any::<u16>(),
            any::<u8>(),
            any::<u8>(),
            any::<u32>(),
            vec(arb_tlv(), 0..6),
        )
            .prop_map(|(lifetime_secs, n, fragment, seq, tlvs)| Lsp {
                lifetime_secs,
                lsp_id: LspId {
                    system: sys(n),
                    pseudonode: 0,
                    fragment,
                },
                seq,
                tlvs,
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fletcher16_reduced_per_block_is_the_per_byte_sum(
            data in vec(any::<u8>(), 0..65_536),
        ) {
            prop_assert_eq!(fletcher16(&data), fletcher16_per_byte(&data));
            let (head, tail) = data.split_at(data.len() / 3);
            prop_assert_eq!(fletcher16_of(&[head, tail]), fletcher16_per_byte(&data));
        }

        #[test]
        fn in_place_tlvs_encode_as_buffered_ones_did(tlvs in vec(arb_tlv(), 0..6)) {
            let (mut in_place, mut buffered) = (BytesMut::new(), BytesMut::new());
            encode_tlvs(&mut in_place, &tlvs);
            encode_tlvs_buffered(&mut buffered, &tlvs);
            prop_assert_eq!(in_place, buffered);
        }

        #[test]
        fn lsps_encode_as_they_did(lsp in arb_lsp()) {
            let encoded = IsisPdu::Lsp(lsp.clone()).encode();
            prop_assert_eq!(encoded.to_vec(), lsp_encoded_as_it_was(&lsp));
        }
    }

    #[test]
    fn fletcher16_blocks_hold_their_worst_case() {
        // 0xff bytes grow the unreduced sums fastest; lengths around the
        // block size cross a reduction.
        for len in [0, 1, 5_801, 5_802, 5_803, 11_604, 65_536] {
            let ones = vec![0xff; len];
            assert_eq!(fletcher16(&ones), fletcher16_per_byte(&ones), "{len}");
        }
    }

    #[test]
    fn a_tlv_past_255_bytes_still_wraps_its_length() {
        let tlv = Tlv::Unknown {
            type_code: 250,
            value: Bytes::from(vec![7; 300]),
        };
        let mut out = BytesMut::new();
        encode_tlvs(&mut out, std::slice::from_ref(&tlv));
        assert_eq!(&out[..2], &[250, 44]);
        assert_eq!(out.len(), 302);
    }

    #[test]
    fn system_id_parse_display_roundtrip() {
        let s: SystemId = "1010.1040.1030".parse().unwrap();
        assert_eq!(s.to_string(), "1010.1040.1030");
        assert_eq!(s.0, [0x10, 0x10, 0x10, 0x40, 0x10, 0x30]);
        assert!("10.20".parse::<SystemId>().is_err());
    }

    #[test]
    fn system_id_from_ip() {
        let s = SystemId::from_ip(Ipv4Addr::new(2, 2, 2, 1));
        assert_eq!(s.0, [0, 0, 2, 2, 2, 1]);
    }

    #[test]
    fn hello_roundtrip() {
        let hello = P2pHello {
            circuit_type: 2,
            source: sys(1),
            hold_time_secs: 30,
            circuit_id: 1,
            tlvs: vec![
                Tlv::Area(vec![Bytes::from_static(&[0x49, 0x00, 0x01])]),
                Tlv::Protocols(vec![NLPID_IPV4]),
                Tlv::IpIfaceAddr(vec![Ipv4Addr::new(100, 64, 0, 1)]),
                Tlv::P2pAdjState {
                    state: AdjState::Initializing,
                    neighbor: None,
                },
            ],
        };
        match roundtrip(IsisPdu::P2pHello(hello.clone())) {
            IsisPdu::P2pHello(got) => assert_eq!(got, hello),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hello_adj_state_with_neighbor() {
        let hello = P2pHello {
            circuit_type: 2,
            source: sys(1),
            hold_time_secs: 30,
            circuit_id: 1,
            tlvs: vec![Tlv::P2pAdjState {
                state: AdjState::Up,
                neighbor: Some(sys(2)),
            }],
        };
        match roundtrip(IsisPdu::P2pHello(hello)) {
            IsisPdu::P2pHello(got) => {
                assert_eq!(got.adj_state(), Some((AdjState::Up, Some(sys(2)))));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lsp_roundtrip_with_reachability() {
        let lsp = Lsp {
            lifetime_secs: 1200,
            lsp_id: LspId::of(sys(1)),
            seq: 7,
            tlvs: vec![
                Tlv::Area(vec![Bytes::from_static(&[0x49, 0x00, 0x01])]),
                Tlv::Hostname("r1".to_string()),
                Tlv::ExtIsReach(vec![
                    IsNeighbor {
                        neighbor: sys(2),
                        pseudonode: 0,
                        metric: 10,
                    },
                    IsNeighbor {
                        neighbor: sys(3),
                        pseudonode: 0,
                        metric: 100,
                    },
                ]),
                Tlv::ExtIpReach(vec![
                    IpReach {
                        metric: 10,
                        prefix: "2.2.2.1/32".parse().unwrap(),
                        down: false,
                    },
                    IpReach {
                        metric: 20,
                        prefix: "100.64.0.0/31".parse().unwrap(),
                        down: true,
                    },
                ]),
            ],
        };
        match roundtrip(IsisPdu::Lsp(lsp.clone())) {
            IsisPdu::Lsp(got) => {
                assert_eq!(got, lsp);
                assert_eq!(got.hostname(), Some("r1"));
                assert_eq!(got.is_neighbors().count(), 2);
                assert_eq!(got.ip_reaches().count(), 2);
                assert!(got.ip_reaches().nth(1).unwrap().down);
            }
            other => panic!("{other:?}"),
        }
    }

    fn example_lsp() -> Lsp {
        Lsp {
            lifetime_secs: 1200,
            lsp_id: LspId::of(sys(1)),
            seq: 7,
            tlvs: vec![
                Tlv::Area(vec![Bytes::from_static(&[0x49, 0x00, 0x01])]),
                Tlv::Hostname("r1".to_string()),
                Tlv::ExtIsReach(vec![IsNeighbor {
                    neighbor: sys(2),
                    pseudonode: 0,
                    metric: u32::MAX,
                }]),
                Tlv::ExtIpReach(vec![IpReach {
                    metric: 10,
                    prefix: "2.2.2.1/32".parse().unwrap(),
                    down: false,
                }]),
            ],
        }
    }

    #[test]
    fn lsp_checksum_detects_corruption() {
        let encoded = IsisPdu::Lsp(example_lsp()).encode();
        // A flipped byte anywhere in the checksummed span — the LSP id and
        // sequence number, the checksum, the TLVs: all but the lifetime
        // before them and the flags byte. (Fletcher is arithmetic mod 255,
        // so no flip here turns 0x00 into 0xff, which it cannot tell apart.)
        let span = (LSP_ID_AT..encoded.len()).filter(|at| *at != LSP_TLVS_AT - 1);
        for at in span {
            for mask in [0x01, 0x0f, 0x80] {
                let mut corrupted = encoded.to_vec();
                corrupted[at] ^= mask;
                let corrupted = Bytes::from(corrupted);
                let e = IsisPdu::decode(&mut corrupted.clone()).unwrap_err();
                assert!(e.reason.contains("checksum"), "byte {at} ^ {mask:#x}: {e}");
                assert_eq!(receive(corrupted).unwrap_err(), e);
            }
        }
    }

    #[test]
    fn an_lsp_stored_at_origination_is_the_one_its_receivers_store() {
        let lsp = example_lsp();
        let stored = StoredLsp::encode(&lsp);
        let received = match receive(IsisPdu::Lsp(lsp.clone()).encode()).unwrap() {
            Received::Lsp(received) => received,
            other => panic!("{other:?}"),
        };
        assert_eq!(stored, received);
        assert_eq!(stored.neighbors()[0].metric, 0xff_ffff);
        assert_eq!(stored.hostname().as_deref(), Some("r1"));
        let entry = stored.entry();
        assert_eq!(
            (entry.lsp_id, entry.seq, entry.lifetime),
            (lsp.lsp_id, 7, 1200)
        );
        // Anything else comes through typed.
        let hello = IsisPdu::P2pHello(P2pHello {
            circuit_type: 2,
            source: sys(1),
            hold_time_secs: 30,
            circuit_id: 1,
            tlvs: vec![],
        });
        assert_eq!(receive(hello.encode()).unwrap(), Received::Pdu(hello));
    }

    #[test]
    fn csnp_psnp_roundtrip() {
        let entries = vec![
            LspEntry {
                lifetime: 1200,
                lsp_id: LspId::of(sys(1)),
                seq: 3,
                checksum: 77,
            },
            LspEntry {
                lifetime: 900,
                lsp_id: LspId::of(sys(2)),
                seq: 9,
                checksum: 88,
            },
        ];
        match roundtrip(IsisPdu::Csnp(Csnp {
            source: sys(1),
            entries: entries.clone(),
        })) {
            IsisPdu::Csnp(got) => assert_eq!(got.entries, entries),
            other => panic!("{other:?}"),
        }
        match roundtrip(IsisPdu::Psnp(Psnp {
            source: sys(2),
            entries: entries.clone(),
        })) {
            IsisPdu::Psnp(got) => assert_eq!(got.entries, entries),
            other => panic!("{other:?}"),
        }
    }

    /// Sixteen LSP entries are 256 bytes of TLV value; `encode_tlvs` writes
    /// the length as `v.len() as u8`, so it wraps (here to 0) and the
    /// receiver rejects the PDU as truncated. Database sync by CSNP has
    /// therefore never worked past 15 routers — flooding alone carries the
    /// LSDB — and it is every `vrouter.decode_errors` of a fault-free run.
    /// The fix (split into TLVs of at most 255 bytes; the decoder already
    /// merges repeats) moves pinned event counts, so it is ROADMAP item 3's.
    #[test]
    #[ignore = "ROADMAP item 3: TLV length truncation"]
    fn csnp_with_sixteen_entries_roundtrips() {
        let entries: Vec<LspEntry> = (1..=16)
            .map(|n| LspEntry {
                lifetime: 1200,
                lsp_id: LspId::of(sys(n)),
                seq: n as u32,
                checksum: 7,
            })
            .collect();
        match roundtrip(IsisPdu::Csnp(Csnp {
            source: sys(1),
            entries: entries.clone(),
        })) {
            IsisPdu::Csnp(got) => assert_eq!(got.entries, entries),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn big_metric_saturates_to_24_bits() {
        let lsp = Lsp {
            lifetime_secs: 1200,
            lsp_id: LspId::of(sys(1)),
            seq: 1,
            tlvs: vec![Tlv::ExtIsReach(vec![IsNeighbor {
                neighbor: sys(2),
                pseudonode: 0,
                metric: u32::MAX,
            }])],
        };
        match roundtrip(IsisPdu::Lsp(lsp)) {
            IsisPdu::Lsp(got) => {
                assert_eq!(got.is_neighbors().next().unwrap().metric, 0xff_ffff);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut empty = Bytes::new();
        assert!(IsisPdu::decode(&mut empty).is_err());
        let mut bad = Bytes::from_static(&[0x42; 30]);
        assert!(IsisPdu::decode(&mut bad).is_err());
    }

    #[test]
    fn net_parsing_helpers() {
        let net = "49.0001.1010.1040.1030.00";
        assert_eq!(net_area_bytes(net).unwrap().as_ref(), &[0x49, 0x00, 0x01]);
        assert_eq!(net_system_id(net).unwrap().to_string(), "1010.1040.1030");
        assert!(net_area_bytes("49.0001").is_none());
    }

    #[test]
    fn fletcher_known_values() {
        assert_eq!(fletcher16(&[]), 0);
        assert_eq!(fletcher16(&[0x01, 0x02]), {
            // c0: 1, then 3; c1: 1, then 4
            (4 << 8) | 3
        });
    }

    #[test]
    fn unknown_tlv_preserved() {
        let hello = P2pHello {
            circuit_type: 2,
            source: sys(1),
            hold_time_secs: 30,
            circuit_id: 1,
            tlvs: vec![Tlv::Unknown {
                type_code: 250,
                value: Bytes::from_static(&[1, 2, 3]),
            }],
        };
        match roundtrip(IsisPdu::P2pHello(hello.clone())) {
            IsisPdu::P2pHello(got) => assert_eq!(got.tlvs, hello.tlvs),
            other => panic!("{other:?}"),
        }
    }
}
