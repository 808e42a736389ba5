//! Property tests for the wire codecs: arbitrary messages must round-trip
//! bit-exactly, and the decoders must reject (never panic on) arbitrary
//! byte soup — these parsers face bytes produced by the *other* vendor's
//! implementation, so total safety matters.

use bytes::Bytes;
use proptest::prelude::*;
use std::net::Ipv4Addr;

use mfv_types::{AsNum, AsPath, AsPathSegment, Community, Origin, Prefix};
use mfv_wire::bgp::{BgpMsg, NotificationMsg, OpenMsg, PathAttr, UpdateMsg};
use mfv_wire::isis::{
    receive, AdjState, Csnp, IpReach, IsNeighbor, IsisPdu, Lsp, LspEntry, LspId, P2pHello, Psnp,
    Received, SystemId, Tlv,
};

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(bits, len)| Prefix::from_bits(bits, len))
}

fn arb_community() -> impl Strategy<Value = Community> {
    any::<u32>().prop_map(Community)
}

fn arb_as_path() -> impl Strategy<Value = AsPath> {
    proptest::collection::vec(
        (
            any::<bool>(),
            proptest::collection::vec(any::<u32>().prop_map(AsNum), 1..6),
        ),
        0..4,
    )
    .prop_map(|segs| {
        AsPath(
            segs.into_iter()
                .map(|(is_set, asns)| {
                    if is_set {
                        AsPathSegment::Set(asns)
                    } else {
                        AsPathSegment::Sequence(asns)
                    }
                })
                .collect(),
        )
    })
}

fn arb_attr() -> impl Strategy<Value = PathAttr> {
    prop_oneof![
        prop_oneof![
            Just(Origin::Igp),
            Just(Origin::Egp),
            Just(Origin::Incomplete)
        ]
        .prop_map(PathAttr::Origin),
        arb_as_path().prop_map(PathAttr::AsPath),
        any::<u32>().prop_map(|v| PathAttr::NextHop(Ipv4Addr::from(v))),
        any::<u32>().prop_map(PathAttr::Med),
        any::<u32>().prop_map(PathAttr::LocalPref),
        proptest::collection::vec(arb_community(), 0..8).prop_map(PathAttr::Communities),
        // Unknown optional-transitive attributes with arbitrary payloads.
        (
            // type codes above the well-known range
            100u8..=255,
            proptest::collection::vec(any::<u8>(), 0..40),
            any::<bool>(),
        )
            .prop_map(|(type_code, value, partial)| PathAttr::Unknown {
                flags: mfv_wire::bgp::FLAG_OPTIONAL
                    | mfv_wire::bgp::FLAG_TRANSITIVE
                    | if partial {
                        mfv_wire::bgp::FLAG_PARTIAL
                    } else {
                        0
                    },
                type_code,
                value: Bytes::from(value),
            }),
    ]
}

fn arb_update() -> impl Strategy<Value = UpdateMsg> {
    (
        proptest::collection::vec(arb_prefix(), 0..10),
        proptest::collection::vec(arb_attr(), 0..6),
        proptest::collection::vec(arb_prefix(), 0..10),
    )
        .prop_map(|(withdrawn, attrs, nlri)| UpdateMsg {
            withdrawn,
            attrs,
            nlri,
        })
}

/// An UPDATE, OPEN, NOTIFICATION or KEEPALIVE.
fn arb_bgp_msg() -> impl Strategy<Value = BgpMsg> {
    let open = (any::<u32>(), any::<u16>(), any::<u32>())
        .prop_map(|(asn, hold, id)| OpenMsg::new(AsNum(asn), hold, Ipv4Addr::from(id)));
    let notification = (
        any::<u8>(),
        any::<u8>(),
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(code, subcode, data)| NotificationMsg {
            code,
            subcode,
            data: Bytes::from(data),
        });
    prop_oneof![
        arb_update().prop_map(BgpMsg::Update),
        open.prop_map(BgpMsg::Open),
        notification.prop_map(BgpMsg::Notification),
        Just(BgpMsg::Keepalive),
    ]
}

fn arb_system_id() -> impl Strategy<Value = SystemId> {
    any::<[u8; 6]>().prop_map(SystemId)
}

fn arb_lsp() -> impl Strategy<Value = Lsp> {
    (
        any::<u16>(),
        arb_system_id(),
        any::<u8>(),
        any::<u32>(),
        proptest::collection::vec(
            prop_oneof![
                proptest::collection::vec((arb_system_id(), any::<u8>(), 0u32..0xff_ffff), 0..5)
                    .prop_map(|ns| Tlv::ExtIsReach(
                        ns.into_iter()
                            .map(|(neighbor, pseudonode, metric)| IsNeighbor {
                                neighbor,
                                pseudonode,
                                metric
                            })
                            .collect()
                    )),
                proptest::collection::vec((any::<u32>(), arb_prefix(), any::<bool>()), 0..5)
                    .prop_map(|rs| Tlv::ExtIpReach(
                        rs.into_iter()
                            .map(|(metric, prefix, down)| IpReach {
                                metric,
                                prefix,
                                down
                            })
                            .collect()
                    )),
                "[a-z][a-z0-9-]{0,14}".prop_map(Tlv::Hostname),
            ],
            0..4,
        ),
    )
        .prop_map(|(lifetime_secs, sys, fragment, seq, tlvs)| Lsp {
            lifetime_secs,
            lsp_id: LspId {
                system: sys,
                pseudonode: 0,
                fragment,
            },
            seq,
            tlvs,
        })
}

proptest! {
    #[test]
    fn bgp_update_roundtrip(update in arb_update()) {
        let mut bytes = BgpMsg::Update(update.clone()).encode().unwrap();
        let decoded = BgpMsg::decode(&mut bytes).unwrap();
        prop_assert!(bytes.is_empty());
        match decoded {
            BgpMsg::Update(got) => {
                prop_assert_eq!(got.withdrawn, update.withdrawn);
                prop_assert_eq!(got.nlri, update.nlri);
                prop_assert_eq!(got.attrs.len(), update.attrs.len());
                for (g, w) in got.attrs.iter().zip(update.attrs.iter()) {
                    match (g, w) {
                        (
                            PathAttr::Unknown { flags: gf, type_code: gt, value: gv },
                            PathAttr::Unknown { flags: wf, type_code: wt, value: wv },
                        ) => {
                            // Extended-length is framing, not identity.
                            prop_assert_eq!(gf & !mfv_wire::bgp::FLAG_EXTENDED_LEN,
                                            wf & !mfv_wire::bgp::FLAG_EXTENDED_LEN);
                            prop_assert_eq!(gt, wt);
                            prop_assert_eq!(gv, wv);
                        }
                        _ => prop_assert_eq!(g, w),
                    }
                }
            }
            other => prop_assert!(false, "wrong type {:?}", other),
        }
    }

    #[test]
    fn bgp_open_roundtrip(asn in any::<u32>(), hold in any::<u16>(), id in any::<u32>()) {
        let open = OpenMsg::new(AsNum(asn), hold, Ipv4Addr::from(id));
        let mut bytes = BgpMsg::Open(open.clone()).encode().unwrap();
        match BgpMsg::decode(&mut bytes).unwrap() {
            BgpMsg::Open(got) => prop_assert_eq!(got, open),
            other => prop_assert!(false, "wrong type {:?}", other),
        }
    }

    #[test]
    fn bgp_notification_roundtrip(code in any::<u8>(), sub in any::<u8>(), data in proptest::collection::vec(any::<u8>(), 0..64)) {
        let n = NotificationMsg { code, subcode: sub, data: Bytes::from(data) };
        let mut bytes = BgpMsg::Notification(n.clone()).encode().unwrap();
        match BgpMsg::decode(&mut bytes).unwrap() {
            BgpMsg::Notification(got) => prop_assert_eq!(got, n),
            other => prop_assert!(false, "wrong type {:?}", other),
        }
    }

    #[test]
    fn bgp_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut b = Bytes::from(data);
        let _ = BgpMsg::decode(&mut b);
    }

    // Hostile input, for every message type: each truncation of an encoded
    // message is rejected, and each single-byte flip is either rejected or
    // read as a message that re-encodes to itself. Decoding never panics.
    #[test]
    fn bgp_decoder_rejects_truncations(msg in arb_bgp_msg(), mask in 1u8..=255) {
        let frame = msg.encode().unwrap();
        for cut in 0..frame.len() {
            prop_assert!(BgpMsg::decode(&mut frame.slice(..cut)).is_err(), "{:?} cut at {}", msg, cut);
        }
        for at in 0..frame.len() {
            let mut flipped = frame.to_vec();
            flipped[at] ^= mask;
            let Ok(read) = BgpMsg::decode(&mut Bytes::from(flipped)) else {
                continue;
            };
            let again = read.encode().map(|mut f| BgpMsg::decode(&mut f));
            prop_assert_eq!(again, Ok(Ok(read)), "{:?} flipped at {}", msg, at);
        }
    }

    #[test]
    fn bgp_encode_length_field_is_honest(update in arb_update()) {
        // Encode must either fail loudly (EncodeError) or emit a frame whose
        // length field matches the actual byte count — never a wrapped
        // header. Every frame it emits must also decode.
        if let Ok(bytes) = BgpMsg::Update(update).encode() {
            let framed = u16::from_be_bytes([bytes[16], bytes[17]]) as usize;
            prop_assert_eq!(framed, bytes.len());
            let mut b = bytes;
            prop_assert!(BgpMsg::decode(&mut b).is_ok());
        }
    }

    #[test]
    fn bgp_open_never_silently_alters_asn(asn in any::<u32>()) {
        let open = OpenMsg::new(AsNum(asn), 90, Ipv4Addr::new(1, 1, 1, 1));
        let bytes = BgpMsg::Open(open).encode().unwrap();
        // The 2-byte "My AS" field is either the real ASN or AS_TRANS —
        // never a low-16-bits truncation (a different valid ASN).
        let as16 = u32::from(u16::from_be_bytes([bytes[20], bytes[21]]));
        if asn > u16::MAX as u32 {
            prop_assert_eq!(as16, 23456);
        } else {
            prop_assert_eq!(as16, asn);
        }
        // And the capability path recovers the full 4-byte ASN exactly.
        let mut b = bytes;
        match BgpMsg::decode(&mut b).unwrap() {
            BgpMsg::Open(got) => prop_assert_eq!(got.asn, AsNum(asn)),
            other => prop_assert!(false, "wrong type {:?}", other),
        }
    }

    #[test]
    fn isis_lsp_roundtrip(lsp in arb_lsp()) {
        let mut bytes = IsisPdu::Lsp(lsp.clone()).encode();
        let decoded = IsisPdu::decode(&mut bytes).unwrap();
        prop_assert!(bytes.is_empty());
        match decoded {
            IsisPdu::Lsp(got) => prop_assert_eq!(got, lsp),
            other => prop_assert!(false, "wrong type {:?}", other),
        }
    }

    #[test]
    fn isis_hello_roundtrip(
        sys in arb_system_id(),
        hold in any::<u16>(),
        state_code in 0u8..3,
        neighbor in proptest::option::of(arb_system_id()),
    ) {
        let state = match state_code {
            0 => AdjState::Up,
            1 => AdjState::Initializing,
            _ => AdjState::Down,
        };
        let hello = P2pHello {
            circuit_type: 2,
            source: sys,
            hold_time_secs: hold,
            circuit_id: 1,
            tlvs: vec![Tlv::P2pAdjState { state, neighbor }],
        };
        let mut bytes = IsisPdu::P2pHello(hello.clone()).encode();
        match IsisPdu::decode(&mut bytes).unwrap() {
            IsisPdu::P2pHello(got) => prop_assert_eq!(got, hello),
            other => prop_assert!(false, "wrong type {:?}", other),
        }
    }

    #[test]
    fn isis_csnp_roundtrip(
        sys in arb_system_id(),
        entries in proptest::collection::vec(
            (any::<u16>(), arb_system_id(), any::<u32>(), any::<u16>()),
            0..10,
        ),
    ) {
        let entries: Vec<LspEntry> = entries
            .into_iter()
            .map(|(lifetime, s, seq, checksum)| LspEntry {
                lifetime,
                lsp_id: LspId::of(s),
                seq,
                checksum,
            })
            .collect();
        let pdu = IsisPdu::Csnp(mfv_wire::isis::Csnp { source: sys, entries: entries.clone() });
        let mut bytes = pdu.encode();
        match IsisPdu::decode(&mut bytes).unwrap() {
            IsisPdu::Csnp(got) => prop_assert_eq!(got.entries, entries),
            other => prop_assert!(false, "wrong type {:?}", other),
        }
    }

    #[test]
    fn isis_decoder_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        let mut b = Bytes::from(data);
        let _ = IsisPdu::decode(&mut b);
    }

    // Each PDU kind from arbitrary fields, then every truncation and every
    // single-byte flip of its encoding — an LSP's also re-sealed with a
    // fresh checksum, so its TLVs are read too: `receive` never panics,
    // fails exactly where the typed decode fails and with its error, and
    // hands the engine what the typed decode reads. Both are held to the
    // decoder they replaced, and a typed PDU re-encodes to itself.
    #[test]
    fn receive_is_the_typed_decode(pdu in arb_pdu(), mask in 1u8..=255) {
        let frame = pdu.encode().to_vec();
        let lsp = matches!(pdu, IsisPdu::Lsp(_));
        let mut frames: Vec<Vec<u8>> = (0..=frame.len()).map(|n| frame[..n].to_vec()).collect();
        for at in 0..frame.len() {
            let mut flipped = frame.clone();
            flipped[at] ^= mask;
            frames.push(flipped);
        }
        if lsp {
            let sealed: Vec<Vec<u8>> = frames.iter().filter_map(|f| reseal(f)).collect();
            frames.extend(sealed);
        }
        for f in frames {
            let f = Bytes::from(f);
            let reference = reference::decode(f.clone());
            let typed = IsisPdu::decode(&mut f.clone());
            let received = receive(f.clone());
            prop_assert_eq!(typed.as_ref().err(), reference.as_ref().err(), "{:?}", f);
            prop_assert_eq!(received.as_ref().err(), typed.as_ref().err(), "{:?}", f);
            let (Ok(typed), Ok(received)) = (typed, received) else {
                continue;
            };
            prop_assert_eq!(Ok(&typed), reference.as_ref());
            prop_assert!(reads_as(&received, &typed, &f), "{:?}\n{:?}", received, typed);
            prop_assert_eq!(IsisPdu::decode(&mut typed.encode()), Ok(typed));
        }
    }
}

/// Any TLV, each value short enough for its length byte.
fn arb_isis_tlv() -> impl Strategy<Value = Tlv> {
    let bytes = |max| proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from);
    let sys = arb_system_id;
    prop_oneof![
        proptest::collection::vec(bytes(6), 0..3).prop_map(Tlv::Area),
        proptest::collection::vec(any::<u8>(), 0..4).prop_map(Tlv::Protocols),
        proptest::collection::vec(any::<u32>().prop_map(Ipv4Addr::from), 0..4)
            .prop_map(Tlv::IpIfaceAddr),
        (0u8..3, proptest::option::of(sys())).prop_map(|(s, neighbor)| Tlv::P2pAdjState {
            state: [AdjState::Up, AdjState::Initializing, AdjState::Down][usize::from(s)],
            neighbor,
        }),
        "[a-z0-9-]{0,20}".prop_map(Tlv::Hostname),
        proptest::collection::vec((sys(), any::<u8>(), 0u32..0x100_0000), 0..4).prop_map(|ns| {
            Tlv::ExtIsReach(
                ns.into_iter()
                    .map(|(neighbor, pseudonode, metric)| IsNeighbor {
                        neighbor,
                        pseudonode,
                        metric,
                    })
                    .collect(),
            )
        }),
        proptest::collection::vec((any::<u32>(), arb_prefix(), any::<bool>()), 0..4).prop_map(
            |rs| {
                let reach = |(metric, prefix, down)| IpReach {
                    metric,
                    prefix,
                    down,
                };
                Tlv::ExtIpReach(rs.into_iter().map(reach).collect())
            }
        ),
        arb_entries(4).prop_map(Tlv::LspEntries),
        (200u8..=255, bytes(20)).prop_map(|(type_code, value)| Tlv::Unknown { type_code, value }),
    ]
}

fn arb_entries(max: usize) -> impl Strategy<Value = Vec<LspEntry>> {
    let entry = (
        any::<u16>(),
        arb_system_id(),
        any::<[u8; 2]>(),
        any::<u32>(),
        any::<u16>(),
    );
    proptest::collection::vec(entry, 0..max).prop_map(|es| {
        es.into_iter()
            .map(
                |(lifetime, system, [pseudonode, fragment], seq, checksum)| LspEntry {
                    lifetime,
                    lsp_id: LspId {
                        system,
                        pseudonode,
                        fragment,
                    },
                    seq,
                    checksum,
                },
            )
            .collect()
    })
}

/// A hello, an LSP, a CSNP or a PSNP. Sixteen entries would wrap their
/// TLV's length (ROADMAP item 3), so a sequence-numbers PDU lists fewer.
fn arb_pdu() -> impl Strategy<Value = IsisPdu> {
    let tlvs = || proptest::collection::vec(arb_isis_tlv(), 0..5);
    prop_oneof![
        (any::<[u8; 2]>(), arb_system_id(), any::<u16>(), tlvs()).prop_map(
            |([circuit_type, circuit_id], source, hold_time_secs, tlvs)| {
                IsisPdu::P2pHello(P2pHello {
                    circuit_type,
                    source,
                    hold_time_secs,
                    circuit_id,
                    tlvs,
                })
            }
        ),
        (
            any::<u16>(),
            arb_system_id(),
            any::<[u8; 2]>(),
            any::<u32>(),
            tlvs()
        )
            .prop_map(
                |(lifetime_secs, system, [pseudonode, fragment], seq, tlvs)| {
                    IsisPdu::Lsp(Lsp {
                        lifetime_secs,
                        lsp_id: LspId {
                            system,
                            pseudonode,
                            fragment,
                        },
                        seq,
                        tlvs,
                    })
                }
            ),
        (arb_system_id(), arb_entries(16))
            .prop_map(|(source, entries)| IsisPdu::Csnp(Csnp { source, entries })),
        (arb_system_id(), arb_entries(16))
            .prop_map(|(source, entries)| IsisPdu::Psnp(Psnp { source, entries })),
    ]
}

/// `frame` with the checksum an LSP of its bytes carries, if it is long
/// enough to carry one.
fn reseal(frame: &[u8]) -> Option<Vec<u8>> {
    let mut sealed = frame.to_vec();
    sealed.get(..27)?;
    let checksum = reference::lsp_checksum(&sealed[12..]);
    sealed[24..26].copy_from_slice(&checksum.to_be_bytes());
    Some(sealed)
}

/// Whether what `receive` kept of `frame` is what the typed decode read.
fn reads_as(received: &Received, typed: &IsisPdu, frame: &Bytes) -> bool {
    match (received, typed) {
        (Received::Hello(h), IsisPdu::P2pHello(t)) => {
            let areas: Vec<&Bytes> = t
                .tlvs
                .iter()
                .flat_map(|tlv| match tlv {
                    Tlv::Area(areas) => areas.as_slice(),
                    _ => &[],
                })
                .collect();
            let first_addr = t.tlvs.iter().find_map(|tlv| match tlv {
                Tlv::IpIfaceAddr(addrs) => addrs.first().copied(),
                _ => None,
            });
            let probes = areas
                .iter()
                .map(|a| a.as_ref())
                .chain([&[0x49, 0, 1][..], &[]]);
            h.source == t.source
                && h.hold_time_secs == t.hold_time_secs
                && h.iface_addr == first_addr
                && h.adj_state == t.adj_state()
                && probes
                    .into_iter()
                    .all(|p| h.in_area(p) == areas.iter().any(|a| a.as_ref() == p))
        }
        (Received::Lsp(s), IsisPdu::Lsp(t)) => {
            let s = s.clone().store();
            let entry = LspEntry {
                lifetime: t.lifetime_secs,
                lsp_id: t.lsp_id,
                seq: t.seq,
                checksum: u16::from_be_bytes([frame[24], frame[25]]),
            };
            s.bytes() == frame
                && s.entry() == entry
                && s.neighbors().iter().eq(t.is_neighbors())
                && s.prefixes().iter().eq(t.ip_reaches())
                && s.hostname().as_deref() == t.hostname()
        }
        (Received::Csnp(s), IsisPdu::Csnp(Csnp { source, entries }))
        | (Received::Psnp(s), IsisPdu::Psnp(Psnp { source, entries })) => {
            s.source == *source && s.entries().eq(entries.iter().copied())
        }
        _ => false,
    }
}

/// The IS-IS decoder `receive` and the typed decode replaced, kept as
/// their oracle: every check, in its order, with its reason.
mod reference {
    use bytes::{Buf, Bytes};
    use mfv_types::Prefix;
    use mfv_wire::isis::*;
    use mfv_wire::DecodeError;
    use std::net::Ipv4Addr;

    fn err(r: &str) -> DecodeError {
        DecodeError::new("isis", r)
    }

    fn fletcher16(parts: &[&[u8]]) -> u16 {
        let (mut c0, mut c1) = (0u32, 0u32);
        for &b in parts.iter().flat_map(|p| p.iter()) {
            c0 = (c0 + b as u32) % 255;
            c1 = (c1 + c0) % 255;
        }
        ((c1 as u16) << 8) | c0 as u16
    }

    /// Over an LSP PDU from its id on: the id and sequence number, then the
    /// TLVs.
    pub fn lsp_checksum(from_id: &[u8]) -> u16 {
        fletcher16(&[
            from_id.get(..12).unwrap_or_default(),
            from_id.get(15..).unwrap_or_default(),
        ])
    }

    fn system(buf: &mut Bytes) -> SystemId {
        let mut sys = [0u8; 6];
        sys.copy_from_slice(&buf.split_to(6));
        SystemId(sys)
    }

    fn lsp_id(buf: &mut Bytes) -> LspId {
        LspId {
            system: system(buf),
            pseudonode: buf.get_u8(),
            fragment: buf.get_u8(),
        }
    }

    pub fn decode(mut buf: Bytes) -> Result<IsisPdu, DecodeError> {
        let buf = &mut buf;
        if buf.len() < 8 {
            return Err(err("truncated common header"));
        }
        if buf.get_u8() != PROTO_DISCRIMINATOR {
            return Err(err("bad protocol discriminator"));
        }
        buf.advance(2);
        let id_len = buf.get_u8();
        if id_len != 0 && id_len != 6 {
            return Err(err("unsupported id length"));
        }
        let pdu_type = buf.get_u8() & 0x1f;
        buf.advance(3);
        match pdu_type {
            PDU_P2P_HELLO => {
                if buf.len() < 12 {
                    return Err(err("truncated hello"));
                }
                let circuit_type = buf.get_u8();
                let source = system(buf);
                let hold_time_secs = buf.get_u16();
                buf.advance(2);
                let circuit_id = buf.get_u8();
                Ok(IsisPdu::P2pHello(P2pHello {
                    circuit_type,
                    source,
                    hold_time_secs,
                    circuit_id,
                    tlvs: tlvs(buf)?,
                }))
            }
            PDU_L2_LSP => {
                if buf.len() < 19 {
                    return Err(err("truncated LSP"));
                }
                buf.advance(2);
                let lifetime_secs = buf.get_u16();
                let computed = lsp_checksum(buf);
                let lsp_id = lsp_id(buf);
                let seq = buf.get_u32();
                let checksum = buf.get_u16();
                buf.advance(1);
                if computed != checksum {
                    return Err(err("LSP checksum mismatch"));
                }
                Ok(IsisPdu::Lsp(Lsp {
                    lifetime_secs,
                    lsp_id,
                    seq,
                    tlvs: tlvs(buf)?,
                }))
            }
            PDU_L2_CSNP => {
                if buf.len() < 25 {
                    return Err(err("truncated CSNP"));
                }
                buf.advance(2);
                let source = system(buf);
                buf.advance(17);
                let entries = entries(tlvs(buf)?);
                Ok(IsisPdu::Csnp(Csnp { source, entries }))
            }
            PDU_L2_PSNP => {
                if buf.len() < 9 {
                    return Err(err("truncated PSNP"));
                }
                buf.advance(2);
                let source = system(buf);
                buf.advance(1);
                let entries = entries(tlvs(buf)?);
                Ok(IsisPdu::Psnp(Psnp { source, entries }))
            }
            t => Err(err(&format!("unknown PDU type {t}"))),
        }
    }

    fn entries(tlvs: Vec<Tlv>) -> Vec<LspEntry> {
        let entries = tlvs.into_iter().map(|t| match t {
            Tlv::LspEntries(e) => e,
            _ => Vec::new(),
        });
        entries.flatten().collect()
    }

    fn tlvs(buf: &mut Bytes) -> Result<Vec<Tlv>, DecodeError> {
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
            out.push(match type_code {
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
                    let state = match v.get_u8() {
                        0 => AdjState::Up,
                        1 => AdjState::Initializing,
                        2 => AdjState::Down,
                        _ => return Err(err("bad adjacency state")),
                    };
                    let neighbor = (v.len() >= 10).then(|| {
                        v.advance(4);
                        system(&mut v)
                    });
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
                        let neighbor = system(&mut v);
                        let pseudonode = v.get_u8();
                        let hi = v.get_u8() as u32;
                        let lo = v.get_u16() as u32;
                        let subtlv_len = v.get_u8() as usize;
                        if v.len() < subtlv_len {
                            return Err(err("truncated IS reach sub-TLVs"));
                        }
                        v.advance(subtlv_len);
                        neighbors.push(IsNeighbor {
                            neighbor,
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
                        let nbytes = (plen as usize).div_ceil(8);
                        if v.len() < nbytes {
                            return Err(err("truncated IP reach prefix"));
                        }
                        let mut bits = [0u8; 4];
                        bits[..nbytes].copy_from_slice(&v.split_to(nbytes));
                        reaches.push(IpReach {
                            metric,
                            prefix: Prefix::from_bits(u32::from_be_bytes(bits), plen),
                            down: control & 0x80 != 0,
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
                        entries.push(LspEntry {
                            lifetime: v.get_u16(),
                            lsp_id: lsp_id(&mut v),
                            seq: v.get_u32(),
                            checksum: v.get_u16(),
                        });
                    }
                    Tlv::LspEntries(entries)
                }
                _ => Tlv::Unknown {
                    type_code,
                    value: v,
                },
            });
        }
        Ok(out)
    }
}
