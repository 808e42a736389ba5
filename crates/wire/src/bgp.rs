//! BGP-4 message codec.
//!
//! Follows RFC 4271 framing: 16-byte all-ones marker, 2-byte length, 1-byte
//! type. AS numbers are 4 bytes everywhere (both emulated vendors are
//! 4-octet-AS capable, negotiated via capability 65 in OPEN). Unknown path
//! attributes are preserved verbatim so optional-transitive attributes
//! propagate through routers that do not understand them — the behaviour
//! that enables the paper's cross-vendor crash scenario (A3).

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;

use mfv_types::{AsNum, AsPath, AsPathSegment, Community, Origin, Prefix};

use crate::{DecodeError, EncodeError};

/// BGP message type codes.
pub const TYPE_OPEN: u8 = 1;
pub const TYPE_UPDATE: u8 = 2;
pub const TYPE_NOTIFICATION: u8 = 3;
pub const TYPE_KEEPALIVE: u8 = 4;

/// Path attribute type codes.
pub const ATTR_ORIGIN: u8 = 1;
pub const ATTR_AS_PATH: u8 = 2;
pub const ATTR_NEXT_HOP: u8 = 3;
pub const ATTR_MED: u8 = 4;
pub const ATTR_LOCAL_PREF: u8 = 5;
pub const ATTR_COMMUNITIES: u8 = 8;

/// Attribute flag bits.
pub const FLAG_OPTIONAL: u8 = 0x80;
pub const FLAG_TRANSITIVE: u8 = 0x40;
pub const FLAG_PARTIAL: u8 = 0x20;
pub const FLAG_EXTENDED_LEN: u8 = 0x10;

/// A decoded path attribute. Well-known attributes are structured; anything
/// else is carried as raw bytes with its original flags.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PathAttr {
    Origin(Origin),
    AsPath(AsPath),
    NextHop(Ipv4Addr),
    Med(u32),
    LocalPref(u32),
    Communities(Vec<Community>),
    /// An attribute this implementation does not interpret. `transitive`
    /// attributes must be propagated (with the partial bit set); others are
    /// dropped at the first hop that does not understand them.
    Unknown {
        flags: u8,
        type_code: u8,
        value: Bytes,
    },
}

impl PathAttr {
    /// Attribute type code on the wire.
    pub fn type_code(&self) -> u8 {
        match self {
            PathAttr::Origin(_) => ATTR_ORIGIN,
            PathAttr::AsPath(_) => ATTR_AS_PATH,
            PathAttr::NextHop(_) => ATTR_NEXT_HOP,
            PathAttr::Med(_) => ATTR_MED,
            PathAttr::LocalPref(_) => ATTR_LOCAL_PREF,
            PathAttr::Communities(_) => ATTR_COMMUNITIES,
            PathAttr::Unknown { type_code, .. } => *type_code,
        }
    }
}

/// A BGP OPEN message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OpenMsg {
    pub version: u8,
    pub asn: AsNum,
    pub hold_time_secs: u16,
    pub bgp_id: Ipv4Addr,
    /// Capability codes advertised (we use 65 = 4-octet AS).
    pub capabilities: Vec<u8>,
}

impl OpenMsg {
    pub fn new(asn: AsNum, hold_time_secs: u16, bgp_id: Ipv4Addr) -> OpenMsg {
        OpenMsg {
            version: 4,
            asn,
            hold_time_secs,
            bgp_id,
            capabilities: vec![65],
        }
    }
}

/// A BGP UPDATE message.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct UpdateMsg {
    pub withdrawn: Vec<Prefix>,
    pub attrs: Vec<PathAttr>,
    pub nlri: Vec<Prefix>,
}

impl UpdateMsg {
    /// A pure withdrawal.
    pub fn withdraw(prefixes: Vec<Prefix>) -> UpdateMsg {
        UpdateMsg {
            withdrawn: prefixes,
            attrs: Vec::new(),
            nlri: Vec::new(),
        }
    }

    pub fn attr(&self, type_code: u8) -> Option<&PathAttr> {
        self.attrs.iter().find(|a| a.type_code() == type_code)
    }

    pub fn origin(&self) -> Option<Origin> {
        match self.attr(ATTR_ORIGIN) {
            Some(PathAttr::Origin(o)) => Some(*o),
            _ => None,
        }
    }

    pub fn as_path(&self) -> Option<&AsPath> {
        match self.attr(ATTR_AS_PATH) {
            Some(PathAttr::AsPath(p)) => Some(p),
            _ => None,
        }
    }

    pub fn next_hop(&self) -> Option<Ipv4Addr> {
        match self.attr(ATTR_NEXT_HOP) {
            Some(PathAttr::NextHop(nh)) => Some(*nh),
            _ => None,
        }
    }

    pub fn med(&self) -> Option<u32> {
        match self.attr(ATTR_MED) {
            Some(PathAttr::Med(m)) => Some(*m),
            _ => None,
        }
    }

    pub fn local_pref(&self) -> Option<u32> {
        match self.attr(ATTR_LOCAL_PREF) {
            Some(PathAttr::LocalPref(lp)) => Some(*lp),
            _ => None,
        }
    }

    pub fn communities(&self) -> Vec<Community> {
        match self.attr(ATTR_COMMUNITIES) {
            Some(PathAttr::Communities(cs)) => cs.clone(),
            _ => Vec::new(),
        }
    }
}

/// A BGP NOTIFICATION (fatal error; closes the session).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NotificationMsg {
    pub code: u8,
    pub subcode: u8,
    pub data: Bytes,
}

/// Any BGP message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BgpMsg {
    Open(OpenMsg),
    Update(UpdateMsg),
    Notification(NotificationMsg),
    Keepalive,
}

/// Maximum BGP message body (RFC 4271: 4096-byte messages are the protocol
/// limit, but both emulated vendors accept "jumbo" frames up to the framing
/// limit — the u16 length field minus the 19-byte header).
pub const MAX_BODY_LEN: usize = u16::MAX as usize - 19;

/// Maximum capability bytes in one OPEN optional parameter: the parameter
/// length is a u8 and the capabilities TLV costs 2 bytes of it.
pub const MAX_CAPS_LEN: usize = u8::MAX as usize - 2;

impl BgpMsg {
    /// Encodes the message with full RFC 4271 framing.
    ///
    /// Fails with [`EncodeError`] when any length field would overflow its
    /// wire width (message body > [`MAX_BODY_LEN`], capabilities >
    /// [`MAX_CAPS_LEN`], withdrawn/attribute blocks > 65535 bytes, AS_PATH
    /// segments > 255 ASNs). Truncating instead — which an earlier version
    /// did via `as u16`/`as u8` casts — emits a frame whose length field
    /// disagrees with its contents, and the *peer's* decoder misparses it.
    pub fn encode(&self) -> Result<Bytes, EncodeError> {
        let err = |r: String| EncodeError::new("bgp", r);
        let mut body = BytesMut::new();
        let msg_type = match self {
            BgpMsg::Open(open) => {
                body.put_u8(open.version);
                // 2-byte AS field: AS_TRANS when the real ASN doesn't fit.
                let as16 = if open.asn.0 > u16::MAX as u32 {
                    23456
                } else {
                    open.asn.0 as u16
                };
                body.put_u16(as16);
                body.put_u16(open.hold_time_secs);
                body.put_u32(u32::from(open.bgp_id));
                // Optional parameters: one capabilities param (type 2).
                let mut caps = BytesMut::new();
                for &code in &open.capabilities {
                    caps.put_u8(code);
                    if code == 65 {
                        caps.put_u8(4);
                        caps.put_u32(open.asn.0);
                    } else {
                        caps.put_u8(0);
                    }
                }
                if caps.len() > MAX_CAPS_LEN {
                    return Err(err(format!(
                        "OPEN capabilities {} bytes exceed the {MAX_CAPS_LEN}-byte parameter",
                        caps.len()
                    )));
                }
                if caps.is_empty() {
                    body.put_u8(0);
                } else {
                    body.put_u8((caps.len() + 2) as u8);
                    body.put_u8(2); // param type: capabilities
                    body.put_u8(caps.len() as u8);
                    body.extend_from_slice(&caps);
                }
                TYPE_OPEN
            }
            BgpMsg::Update(update) => {
                let mut wd = BytesMut::new();
                for p in &update.withdrawn {
                    encode_nlri(&mut wd, p);
                }
                if wd.len() > u16::MAX as usize {
                    return Err(err(format!(
                        "withdrawn routes {} bytes exceed the u16 length field",
                        wd.len()
                    )));
                }
                body.put_u16(wd.len() as u16);
                body.extend_from_slice(&wd);

                let mut attrs = BytesMut::new();
                for a in &update.attrs {
                    encode_attr(&mut attrs, a)?;
                }
                if attrs.len() > u16::MAX as usize {
                    return Err(err(format!(
                        "path attributes {} bytes exceed the u16 length field",
                        attrs.len()
                    )));
                }
                body.put_u16(attrs.len() as u16);
                body.extend_from_slice(&attrs);

                for p in &update.nlri {
                    encode_nlri(&mut body, p);
                }
                TYPE_UPDATE
            }
            BgpMsg::Notification(n) => {
                body.put_u8(n.code);
                body.put_u8(n.subcode);
                body.extend_from_slice(&n.data);
                TYPE_NOTIFICATION
            }
            BgpMsg::Keepalive => TYPE_KEEPALIVE,
        };

        if body.len() > MAX_BODY_LEN {
            return Err(err(format!(
                "body {} bytes exceeds the {MAX_BODY_LEN}-byte frame limit",
                body.len()
            )));
        }
        let mut out = BytesMut::with_capacity(19 + body.len());
        out.put_bytes(0xff, 16);
        out.put_u16(19 + body.len() as u16);
        out.put_u8(msg_type);
        out.extend_from_slice(&body);
        Ok(out.freeze())
    }

    /// Decodes one framed message.
    pub fn decode(buf: &mut Bytes) -> Result<BgpMsg, DecodeError> {
        let err = |r: &str| DecodeError::new("bgp", r);
        if buf.len() < 19 {
            return Err(err("truncated header"));
        }
        let marker = buf.split_to(16);
        if marker.iter().any(|&b| b != 0xff) {
            return Err(err("bad marker"));
        }
        let len = buf.get_u16() as usize;
        // 18 bytes (marker + length) are already consumed; type + body remain.
        if len < 19 || buf.len() < len - 18 {
            return Err(err("bad length"));
        }
        let msg_type = buf.get_u8();
        let mut body = buf.split_to(len - 19);

        match msg_type {
            TYPE_OPEN => {
                if body.len() < 10 {
                    return Err(err("truncated OPEN"));
                }
                let version = body.get_u8();
                let as16 = body.get_u16();
                let hold_time_secs = body.get_u16();
                let bgp_id = Ipv4Addr::from(body.get_u32());
                let opt_len = body.get_u8() as usize;
                if body.len() < opt_len {
                    return Err(err("truncated OPEN params"));
                }
                let mut params = body.split_to(opt_len);
                let mut capabilities = Vec::new();
                // The 2-byte field is authoritative only for 2-byte speakers.
                // A capability-65 value below overrides it; if the peer sent
                // AS_TRANS (23456) *without* the 4-octet-AS capability we keep
                // AS_TRANS verbatim, as real routers do — inventing any other
                // ASN here would change best-path tie-breaks cross-vendor.
                let mut asn = AsNum(as16 as u32);
                while params.len() >= 2 {
                    let ptype = params.get_u8();
                    let plen = params.get_u8() as usize;
                    if params.len() < plen {
                        return Err(err("truncated OPEN param"));
                    }
                    let mut pval = params.split_to(plen);
                    if ptype == 2 {
                        while pval.len() >= 2 {
                            let code = pval.get_u8();
                            let clen = pval.get_u8() as usize;
                            if pval.len() < clen {
                                return Err(err("truncated capability"));
                            }
                            let mut cval = pval.split_to(clen);
                            capabilities.push(code);
                            if code == 65 && clen == 4 {
                                asn = AsNum(cval.get_u32());
                            }
                        }
                    }
                }
                Ok(BgpMsg::Open(OpenMsg {
                    version,
                    asn,
                    hold_time_secs,
                    bgp_id,
                    capabilities,
                }))
            }
            TYPE_UPDATE => {
                if body.len() < 4 {
                    return Err(err("truncated UPDATE"));
                }
                let wd_len = body.get_u16() as usize;
                if body.len() < wd_len {
                    return Err(err("truncated withdrawn routes"));
                }
                let mut wd = body.split_to(wd_len);
                let mut withdrawn = Vec::new();
                while !wd.is_empty() {
                    withdrawn.push(decode_nlri(&mut wd)?);
                }
                if body.len() < 2 {
                    return Err(err("missing attr length"));
                }
                let attr_len = body.get_u16() as usize;
                if body.len() < attr_len {
                    return Err(err("truncated attributes"));
                }
                let mut ab = body.split_to(attr_len);
                let mut attrs = Vec::new();
                while !ab.is_empty() {
                    attrs.push(decode_attr(&mut ab)?);
                }
                let mut nlri = Vec::new();
                while !body.is_empty() {
                    nlri.push(decode_nlri(&mut body)?);
                }
                Ok(BgpMsg::Update(UpdateMsg {
                    withdrawn,
                    attrs,
                    nlri,
                }))
            }
            TYPE_NOTIFICATION => {
                if body.len() < 2 {
                    return Err(err("truncated NOTIFICATION"));
                }
                let code = body.get_u8();
                let subcode = body.get_u8();
                Ok(BgpMsg::Notification(NotificationMsg {
                    code,
                    subcode,
                    data: body,
                }))
            }
            TYPE_KEEPALIVE => Ok(BgpMsg::Keepalive),
            t => Err(err(&format!("unknown message type {t}"))),
        }
    }
}

fn encode_nlri(out: &mut BytesMut, p: &Prefix) {
    out.put_u8(p.len());
    let bits = p.network_bits().to_be_bytes();
    let nbytes = (p.len() as usize).div_ceil(8);
    #[expect(
        clippy::indexing_slicing,
        reason = "W1: Prefix guarantees len <= 32, so nbytes <= 4 == bits.len()"
    )]
    out.extend_from_slice(&bits[..nbytes]);
}

fn decode_nlri(buf: &mut Bytes) -> Result<Prefix, DecodeError> {
    let err = |r: &str| DecodeError::new("bgp", r);
    if buf.is_empty() {
        return Err(err("empty NLRI"));
    }
    let len = buf.get_u8();
    if len > 32 {
        return Err(err("NLRI prefix length > 32"));
    }
    let nbytes = (len as usize).div_ceil(8);
    if buf.len() < nbytes {
        return Err(err("truncated NLRI"));
    }
    let mut bits = [0u8; 4];
    #[expect(
        clippy::indexing_slicing,
        reason = "W1: len > 32 rejected above with DecodeError, so nbytes <= 4"
    )]
    bits[..nbytes].copy_from_slice(&buf.split_to(nbytes));
    Ok(Prefix::from_bits(u32::from_be_bytes(bits), len))
}

fn encode_attr(out: &mut BytesMut, attr: &PathAttr) -> Result<(), EncodeError> {
    let err = |r: String| EncodeError::new("bgp", r);
    let mut value = BytesMut::new();
    let flags;
    match attr {
        PathAttr::Origin(o) => {
            flags = FLAG_TRANSITIVE;
            value.put_u8(o.code());
        }
        PathAttr::AsPath(path) => {
            flags = FLAG_TRANSITIVE;
            for seg in &path.0 {
                let (seg_type, asns) = match seg {
                    AsPathSegment::Set(a) => (1u8, a),
                    AsPathSegment::Sequence(a) => (2u8, a),
                };
                if asns.len() > u8::MAX as usize {
                    return Err(err(format!(
                        "AS_PATH segment with {} ASNs exceeds the u8 count field",
                        asns.len()
                    )));
                }
                value.put_u8(seg_type);
                value.put_u8(asns.len() as u8);
                for a in asns {
                    value.put_u32(a.0);
                }
            }
        }
        PathAttr::NextHop(nh) => {
            flags = FLAG_TRANSITIVE;
            value.put_u32(u32::from(*nh));
        }
        PathAttr::Med(m) => {
            flags = FLAG_OPTIONAL;
            value.put_u32(*m);
        }
        PathAttr::LocalPref(lp) => {
            flags = FLAG_TRANSITIVE;
            value.put_u32(*lp);
        }
        PathAttr::Communities(cs) => {
            flags = FLAG_OPTIONAL | FLAG_TRANSITIVE;
            for c in cs {
                value.put_u32(c.0);
            }
        }
        PathAttr::Unknown {
            flags: f, value: v, ..
        } => {
            flags = *f;
            value.extend_from_slice(v);
        }
    }
    if value.len() > u16::MAX as usize {
        return Err(err(format!(
            "attribute {} value {} bytes exceeds the extended u16 length field",
            attr.type_code(),
            value.len()
        )));
    }
    let extended = value.len() > 255;
    out.put_u8(flags | if extended { FLAG_EXTENDED_LEN } else { 0 });
    out.put_u8(attr.type_code());
    if extended {
        out.put_u16(value.len() as u16);
    } else {
        out.put_u8(value.len() as u8);
    }
    out.extend_from_slice(&value);
    Ok(())
}

fn decode_attr(buf: &mut Bytes) -> Result<PathAttr, DecodeError> {
    let err = |r: &str| DecodeError::new("bgp", r);
    if buf.len() < 3 {
        return Err(err("truncated attribute header"));
    }
    let flags = buf.get_u8();
    let type_code = buf.get_u8();
    let len = if flags & FLAG_EXTENDED_LEN != 0 {
        if buf.len() < 2 {
            return Err(err("truncated extended length"));
        }
        buf.get_u16() as usize
    } else {
        buf.get_u8() as usize
    };
    if buf.len() < len {
        return Err(err("truncated attribute value"));
    }
    let mut value = buf.split_to(len);

    match type_code {
        ATTR_ORIGIN => {
            if value.len() != 1 {
                return Err(err("bad ORIGIN length"));
            }
            let o = Origin::from_code(value.get_u8()).ok_or_else(|| err("bad ORIGIN"))?;
            Ok(PathAttr::Origin(o))
        }
        ATTR_AS_PATH => {
            let mut segs = Vec::new();
            while !value.is_empty() {
                if value.len() < 2 {
                    return Err(err("truncated AS_PATH segment"));
                }
                let seg_type = value.get_u8();
                let count = value.get_u8() as usize;
                if value.len() < count * 4 {
                    return Err(err("truncated AS_PATH ases"));
                }
                let mut asns = Vec::with_capacity(count);
                for _ in 0..count {
                    asns.push(AsNum(value.get_u32()));
                }
                segs.push(match seg_type {
                    1 => AsPathSegment::Set(asns),
                    2 => AsPathSegment::Sequence(asns),
                    t => return Err(err(&format!("bad AS_PATH segment type {t}"))),
                });
            }
            Ok(PathAttr::AsPath(AsPath(segs)))
        }
        ATTR_NEXT_HOP => {
            if value.len() != 4 {
                return Err(err("bad NEXT_HOP length"));
            }
            Ok(PathAttr::NextHop(Ipv4Addr::from(value.get_u32())))
        }
        ATTR_MED => {
            if value.len() != 4 {
                return Err(err("bad MED length"));
            }
            Ok(PathAttr::Med(value.get_u32()))
        }
        ATTR_LOCAL_PREF => {
            if value.len() != 4 {
                return Err(err("bad LOCAL_PREF length"));
            }
            Ok(PathAttr::LocalPref(value.get_u32()))
        }
        ATTR_COMMUNITIES => {
            if !value.len().is_multiple_of(4) {
                return Err(err("bad COMMUNITIES length"));
            }
            let mut cs = Vec::with_capacity(value.len() / 4);
            while !value.is_empty() {
                cs.push(Community(value.get_u32()));
            }
            Ok(PathAttr::Communities(cs))
        }
        _ => Ok(PathAttr::Unknown {
            flags,
            type_code,
            value,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl PathAttr {
        /// Is this attribute transitive (must be propagated even if not
        /// understood)?
        fn is_transitive(&self) -> bool {
            match self {
                PathAttr::Unknown { flags, .. } => flags & FLAG_TRANSITIVE != 0,
                // All structured attributes we implement are well-known or
                // optional-transitive.
                _ => true,
            }
        }
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn roundtrip(msg: BgpMsg) -> BgpMsg {
        let mut bytes = msg.encode().unwrap();
        let decoded = BgpMsg::decode(&mut bytes).unwrap();
        assert!(bytes.is_empty(), "decoder must consume the whole frame");
        decoded
    }

    #[test]
    fn keepalive_roundtrip() {
        assert_eq!(roundtrip(BgpMsg::Keepalive), BgpMsg::Keepalive);
    }

    #[test]
    fn open_roundtrip_2byte_as() {
        let open = OpenMsg::new(AsNum(65001), 90, Ipv4Addr::new(2, 2, 2, 1));
        match roundtrip(BgpMsg::Open(open.clone())) {
            BgpMsg::Open(got) => assert_eq!(got, open),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn open_roundtrip_4byte_as_uses_as_trans() {
        let open = OpenMsg::new(AsNum(400_000), 180, Ipv4Addr::new(1, 1, 1, 1));
        let encoded = BgpMsg::Open(open.clone()).encode().unwrap();
        // The 2-byte field (offset 19+1) must hold AS_TRANS.
        assert_eq!(u16::from_be_bytes([encoded[20], encoded[21]]), 23456);
        let mut b = encoded;
        match BgpMsg::decode(&mut b).unwrap() {
            BgpMsg::Open(got) => assert_eq!(got.asn, AsNum(400_000)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_roundtrip_full_attrs() {
        let update = UpdateMsg {
            withdrawn: vec![p("10.0.0.0/8"), p("192.168.1.0/24")],
            attrs: vec![
                PathAttr::Origin(Origin::Igp),
                PathAttr::AsPath(AsPath::sequence([AsNum(65001), AsNum(65002)])),
                PathAttr::NextHop(Ipv4Addr::new(100, 64, 0, 1)),
                PathAttr::Med(50),
                PathAttr::LocalPref(200),
                PathAttr::Communities(vec![Community::new(65001, 100), Community::new(65001, 666)]),
            ],
            nlri: vec![p("203.0.113.0/24"), p("0.0.0.0/0"), p("2.2.2.1/32")],
        };
        match roundtrip(BgpMsg::Update(update.clone())) {
            BgpMsg::Update(got) => assert_eq!(got, update),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_accessors() {
        let update = UpdateMsg {
            withdrawn: vec![],
            attrs: vec![
                PathAttr::Origin(Origin::Egp),
                PathAttr::NextHop(Ipv4Addr::new(9, 9, 9, 9)),
                PathAttr::LocalPref(300),
            ],
            nlri: vec![p("10.0.0.0/8")],
        };
        assert_eq!(update.origin(), Some(Origin::Egp));
        assert_eq!(update.next_hop(), Some(Ipv4Addr::new(9, 9, 9, 9)));
        assert_eq!(update.local_pref(), Some(300));
        assert_eq!(update.med(), None);
        assert!(update.communities().is_empty());
    }

    #[test]
    fn unknown_transitive_attr_roundtrips_verbatim() {
        // An "unusual but valid" optional-transitive attribute — the paper's
        // cross-vendor crash trigger. It must survive encode/decode intact.
        let odd = PathAttr::Unknown {
            flags: FLAG_OPTIONAL | FLAG_TRANSITIVE | FLAG_PARTIAL,
            type_code: 213,
            value: Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef]),
        };
        assert!(odd.is_transitive());
        let update = UpdateMsg {
            withdrawn: vec![],
            attrs: vec![
                PathAttr::Origin(Origin::Igp),
                PathAttr::NextHop(Ipv4Addr::new(1, 2, 3, 4)),
                odd.clone(),
            ],
            nlri: vec![p("10.0.0.0/8")],
        };
        match roundtrip(BgpMsg::Update(update)) {
            BgpMsg::Update(got) => assert_eq!(got.attrs[2], odd),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn extended_length_attribute() {
        let big = PathAttr::Unknown {
            flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
            type_code: 99,
            value: Bytes::from(vec![7u8; 300]),
        };
        let update = UpdateMsg {
            withdrawn: vec![],
            attrs: vec![big.clone()],
            nlri: vec![],
        };
        match roundtrip(BgpMsg::Update(update)) {
            BgpMsg::Update(got) => match &got.attrs[0] {
                PathAttr::Unknown { flags, value, .. } => {
                    // Extended-length bit is a framing detail, not identity.
                    assert_eq!(*flags & !FLAG_EXTENDED_LEN, FLAG_OPTIONAL | FLAG_TRANSITIVE);
                    assert_eq!(value.len(), 300);
                }
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn notification_roundtrip() {
        let n = NotificationMsg {
            code: 6,
            subcode: 2,
            data: Bytes::from_static(b"administrative shutdown"),
        };
        match roundtrip(BgpMsg::Notification(n.clone())) {
            BgpMsg::Notification(got) => assert_eq!(got, n),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn decode_rejects_bad_marker() {
        let mut bytes = BgpMsg::Keepalive.encode().unwrap().to_vec();
        bytes[3] = 0x00;
        let mut b = Bytes::from(bytes);
        assert!(BgpMsg::decode(&mut b).is_err());
    }

    #[test]
    fn decode_rejects_truncation() {
        let bytes = BgpMsg::Update(UpdateMsg {
            withdrawn: vec![],
            attrs: vec![PathAttr::Origin(Origin::Igp)],
            nlri: vec![p("10.0.0.0/8")],
        })
        .encode()
        .unwrap();
        for cut in [1, 10, 18, bytes.len() - 1] {
            let mut b = bytes.slice(..cut);
            assert!(BgpMsg::decode(&mut b).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_overlong_prefix() {
        // Craft an UPDATE whose NLRI claims a /40.
        let mut body = BytesMut::new();
        body.put_u16(0); // withdrawn len
        body.put_u16(0); // attr len
        body.put_u8(40); // bogus prefix length
        body.put_bytes(0, 5);
        let mut frame = BytesMut::new();
        frame.put_bytes(0xff, 16);
        frame.put_u16(19 + body.len() as u16);
        frame.put_u8(TYPE_UPDATE);
        frame.extend_from_slice(&body);
        let mut b = frame.freeze();
        let e = BgpMsg::decode(&mut b).unwrap_err();
        assert!(e.reason.contains("length > 32"));
    }

    #[test]
    fn nlri_length_is_minimal() {
        // A /8 must use exactly 1 byte of prefix data.
        let update = UpdateMsg {
            withdrawn: vec![],
            attrs: vec![],
            nlri: vec![p("10.0.0.0/8")],
        };
        let encoded = BgpMsg::Update(update).encode().unwrap();
        // header 19 + wd_len 2 + attr_len 2 + nlri (1 + 1)
        assert_eq!(encoded.len(), 19 + 2 + 2 + 2);
    }

    #[test]
    fn oversize_body_is_an_encode_error_not_a_truncation() {
        // ~65 KiB of attribute value pushes the body past MAX_BODY_LEN. The
        // old encoder wrapped `19 + body.len() as u16` and emitted a frame
        // whose length field lied; now it must refuse.
        let update = UpdateMsg {
            withdrawn: vec![],
            attrs: vec![PathAttr::Unknown {
                flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
                type_code: 99,
                value: Bytes::from(vec![0u8; MAX_BODY_LEN]),
            }],
            nlri: vec![],
        };
        let e = BgpMsg::Update(update).encode().unwrap_err();
        assert_eq!(e.proto, "bgp");
        assert!(e.reason.contains("exceed"), "{e}");
    }

    #[test]
    fn oversize_attr_block_is_an_encode_error() {
        // Two ~40 KiB attributes fit the frame check individually but blow
        // the u16 "total path attribute length" field.
        let big = |code: u8| PathAttr::Unknown {
            flags: FLAG_OPTIONAL | FLAG_TRANSITIVE,
            type_code: code,
            value: Bytes::from(vec![0u8; 40_000]),
        };
        let update = UpdateMsg {
            withdrawn: vec![],
            attrs: vec![big(98), big(99)],
            nlri: vec![],
        };
        let e = BgpMsg::Update(update).encode().unwrap_err();
        assert!(e.reason.contains("path attributes"), "{e}");
    }

    #[test]
    fn oversize_capabilities_are_an_encode_error() {
        // >253 bytes of capabilities overflow the u8 optional-parameter
        // length; the old encoder wrapped `(caps.len() + 2) as u8`.
        let mut open = OpenMsg::new(AsNum(65001), 90, Ipv4Addr::new(1, 1, 1, 1));
        open.capabilities = (0..200).map(|i| if i == 0 { 65 } else { 200 }).collect();
        let e = BgpMsg::Open(open).encode().unwrap_err();
        assert!(e.reason.contains("capabilities"), "{e}");
    }

    #[test]
    fn oversize_as_path_segment_is_an_encode_error() {
        let update = UpdateMsg {
            withdrawn: vec![],
            attrs: vec![PathAttr::AsPath(AsPath::sequence(
                (0..300).map(|i| AsNum(65000 + i)),
            ))],
            nlri: vec![],
        };
        let e = BgpMsg::Update(update).encode().unwrap_err();
        assert!(e.reason.contains("AS_PATH"), "{e}");
    }

    #[test]
    fn asn_70000_roundtrips_via_as_trans() {
        let open = OpenMsg::new(AsNum(70_000), 90, Ipv4Addr::new(3, 3, 3, 3));
        let encoded = BgpMsg::Open(open).encode().unwrap();
        // 70_000 & 0xffff == 4464: the old truncation emitted a *different
        // valid ASN*. The field must hold AS_TRANS instead.
        assert_eq!(u16::from_be_bytes([encoded[20], encoded[21]]), 23456);
        let mut b = encoded;
        match BgpMsg::decode(&mut b).unwrap() {
            BgpMsg::Open(got) => assert_eq!(got.asn, AsNum(70_000)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn as_trans_without_capability_decodes_verbatim() {
        // A 2-byte-only speaker sending AS_TRANS with no capability 65: we
        // must keep 23456 rather than invent an ASN.
        let mut body = BytesMut::new();
        body.put_u8(4); // version
        body.put_u16(23456);
        body.put_u16(90);
        body.put_u32(u32::from(Ipv4Addr::new(5, 5, 5, 5)));
        body.put_u8(0); // no optional parameters
        let mut frame = BytesMut::new();
        frame.put_bytes(0xff, 16);
        frame.put_u16(19 + body.len() as u16);
        frame.put_u8(TYPE_OPEN);
        frame.extend_from_slice(&body);
        let mut b = frame.freeze();
        match BgpMsg::decode(&mut b).unwrap() {
            BgpMsg::Open(got) => {
                assert_eq!(got.asn, AsNum(23456));
                assert!(got.capabilities.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn default_route_nlri() {
        let update = UpdateMsg {
            withdrawn: vec![],
            attrs: vec![],
            nlri: vec![p("0.0.0.0/0")],
        };
        match roundtrip(BgpMsg::Update(update.clone())) {
            BgpMsg::Update(got) => assert_eq!(got, update),
            other => panic!("{other:?}"),
        }
    }
}
