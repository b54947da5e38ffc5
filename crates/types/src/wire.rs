//! Compact binary wire codec.
//!
//! All persistent and transmitted structures implement [`Wire`]. The
//! encoding is deliberately simple and deterministic — the same struct
//! always encodes to the same bytes, because ledger byte-equality across
//! replicas is what Merkle roots commit to (§3.1: "It is important for the
//! primary to order the evidence to ensure that replicas agree on the
//! ledger"). Sizes measured for Tab. 1 / §6.4 are sizes of this encoding.
//!
//! Conventions: little-endian integers; `Vec<T>` as `u32` count + elements;
//! byte strings as `u32` length + bytes; `Option<T>` as presence byte + T;
//! enums as a `u8` tag + variant fields.
//!
//! # A layout is one list
//!
//! The leaves — integers, `bool`, byte strings, `Option`, pairs, digests,
//! signatures, nonces, keys and Merkle paths — are written by hand below.
//! Every protocol type above them states its layout once, as an ordered
//! field list, and `wire_struct!` / `wire_enum!` generate `encode`,
//! `decode` and the exact `encoded_len` from that one list:
//!
//! ```text
//! wire_struct!(Prepare { view, seq, replica, nonce_commit, pp_digest, sig });
//! wire_enum!(LedgerEntry {
//!     0 => Genesis { config },
//!     1 => Evidence { seq, prepares: seq },
//!     3 => PrePrepare(pp),
//!     // …
//! });
//! ```
//!
//! Fields are encoded in list order, each through its own [`Wire`] impl.
//! A field marked `: seq` is a sequence and goes through [`encode_seq`] /
//! [`decode_seq`] instead — `Vec<u8>` is a byte string, not a sequence, so
//! a `Vec<T>` field says which it is. An enum variant is unit, one-field
//! tuple or struct, behind its `u8` tag; a tag absent from the list (a
//! reserved one included) decodes to `BadTag` naming the type. A list must
//! name every field and every variant — the generated destructuring and
//! `match` do not compile otherwise — so the one thing left to get wrong
//! is order, which `tests/wire_properties.rs` pins byte for byte.

use ia_ccf_crypto::{Digest, Nonce, NonceCommitment, Signature, DIGEST_LEN, NONCE_LEN, SIGNATURE_LEN};

/// Decoding error. Encoding is infallible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the structure was complete.
    UnexpectedEnd,
    /// An enum tag byte had no corresponding variant.
    BadTag { context: &'static str, tag: u8 },
    /// A length prefix exceeded sanity limits.
    BadLength(u64),
    /// Bytes remained after the top-level structure was decoded.
    TrailingBytes(usize),
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEnd => write!(f, "unexpected end of input"),
            CodecError::BadTag { context, tag } => write!(f, "bad tag {tag} for {context}"),
            CodecError::BadLength(l) => write!(f, "implausible length {l}"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Upper bound on any single length prefix; rejects absurd allocations from
/// corrupt or hostile input before they happen.
const MAX_LEN: u64 = 256 * 1024 * 1024;

/// A bounds-checked cursor over an input buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEnd);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
}

/// Deterministic binary encoding/decoding.
pub trait Wire: Sized {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// Decode a value, consuming bytes from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;

    /// Exact size of the encoding in bytes, by arithmetic: framing layers
    /// reserve from it before encoding, and Tab. 1's sizes are read from it.
    fn encoded_len(&self) -> usize;

    /// Encode into a caller-owned reusable scratch buffer, clearing it
    /// first; returns the encoded bytes. The scratch keeps its capacity
    /// across calls, so steady-state hot-path sends never reallocate.
    fn encode_scratch<'a>(&self, scratch: &'a mut Vec<u8>) -> &'a [u8] {
        scratch.clear();
        self.encode(scratch);
        scratch
    }

    /// Encode to a fresh buffer of exactly the encoding's size.
    fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf
    }

    /// Decode from a complete buffer, rejecting trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if r.remaining() > 0 {
            return Err(CodecError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }
}

/// A signing-payload buffer: the domain byte, with room for the `len`
/// bytes of the fields that follow it.
pub(crate) fn signing_buffer(domain: u8, len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(1 + len);
    buf.push(domain);
    buf
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("size checked")))
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

impl_wire_int!(u8, u16, u32, u64, i64);

impl Wire for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(*self as u8);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { context: "bool", tag }),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for Vec<u8> {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = u32::decode(r)? as u64;
        if len > MAX_LEN {
            return Err(CodecError::BadLength(len));
        }
        Ok(r.take(len as usize)?.to_vec())
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        (self.len() as u32).encode(buf);
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = Vec::<u8>::decode(r)?;
        String::from_utf8(bytes).map_err(|_| CodecError::BadTag { context: "utf8", tag: 0 })
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(CodecError::BadTag { context: "option", tag }),
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            None => 1,
            Some(v) => 1 + v.encoded_len(),
        }
    }
}

/// Generic sequences. `Vec<u8>` has a dedicated byte-string impl above, so
/// this is implemented for non-`u8` element types via a helper.
pub fn encode_seq<T: Wire>(items: &[T], buf: &mut Vec<u8>) {
    (items.len() as u32).encode(buf);
    for item in items {
        item.encode(buf);
    }
}

/// Decode a sequence written by [`encode_seq`].
pub fn decode_seq<T: Wire>(r: &mut Reader<'_>) -> Result<Vec<T>, CodecError> {
    let len = u32::decode(r)? as u64;
    if len > MAX_LEN / 8 {
        return Err(CodecError::BadLength(len));
    }
    let mut out = Vec::with_capacity(len.min(4096) as usize);
    for _ in 0..len {
        out.push(T::decode(r)?);
    }
    Ok(out)
}

/// Exact encoded size of a sequence written by [`encode_seq`].
pub fn encoded_len_seq<T: Wire>(items: &[T]) -> usize {
    4 + items.iter().map(Wire::encoded_len).sum::<usize>()
}

impl Wire for Digest {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = r.take(DIGEST_LEN)?;
        Ok(Digest::from_slice(bytes).expect("length taken"))
    }
    fn encoded_len(&self) -> usize {
        DIGEST_LEN
    }
}

impl Wire for Signature {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = r.take(SIGNATURE_LEN)?;
        let mut out = [0u8; SIGNATURE_LEN];
        out.copy_from_slice(bytes);
        Ok(Signature(out))
    }
    fn encoded_len(&self) -> usize {
        SIGNATURE_LEN
    }
}

impl Wire for Nonce {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = r.take(NONCE_LEN)?;
        let mut out = [0u8; NONCE_LEN];
        out.copy_from_slice(bytes);
        Ok(Nonce(out))
    }
    fn encoded_len(&self) -> usize {
        NONCE_LEN
    }
}

impl Wire for NonceCommitment {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(NonceCommitment(Digest::decode(r)?))
    }
    fn encoded_len(&self) -> usize {
        DIGEST_LEN
    }
}

impl Wire for ia_ccf_crypto::PublicKey {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let bytes = r.take(ia_ccf_crypto::PUBLIC_KEY_LEN)?;
        let mut out = [0u8; ia_ccf_crypto::PUBLIC_KEY_LEN];
        out.copy_from_slice(bytes);
        Ok(ia_ccf_crypto::PublicKey(out))
    }
    fn encoded_len(&self) -> usize {
        ia_ccf_crypto::PUBLIC_KEY_LEN
    }
}

impl Wire for ia_ccf_merkle::MerklePath {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.index.encode(buf);
        self.tree_len.encode(buf);
        encode_seq(&self.siblings, buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(ia_ccf_merkle::MerklePath {
            index: u64::decode(r)?,
            tree_len: u64::decode(r)?,
            siblings: decode_seq(r)?,
        })
    }
    fn encoded_len(&self) -> usize {
        8 + 8 + encoded_len_seq(&self.siblings)
    }
}

// Newtype ids.
macro_rules! impl_wire_newtype {
    ($($outer:ty => $inner:ty),*) => {$(
        impl Wire for $outer {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.0.encode(buf);
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
                Ok(Self(<$inner>::decode(r)?))
            }
            fn encoded_len(&self) -> usize {
                std::mem::size_of::<$inner>()
            }
        }
    )*};
}

use crate::ids::{ClientId, LedgerIdx, MemberId, ProcId, ReplicaBitmap, ReplicaId, SeqNum, View};

impl_wire_newtype!(
    ReplicaId => u32,
    ClientId => u64,
    MemberId => u32,
    View => u64,
    SeqNum => u64,
    LedgerIdx => u64,
    ProcId => u16,
    ReplicaBitmap => u64
);

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

/// One field of a `wire_struct!` / `wire_enum!` list, bound by
/// reference: through its own [`Wire`] impl, or as a sequence when marked
/// `seq`.
macro_rules! wire_field {
    (encode $buf:ident, $f:ident) => { $crate::wire::Wire::encode($f, $buf) };
    (encode $buf:ident, $f:ident, seq) => { $crate::wire::encode_seq($f, $buf) };
    (decode $r:ident) => { $crate::wire::Wire::decode($r)? };
    (decode $r:ident, seq) => { $crate::wire::decode_seq($r)? };
    (len $f:ident) => { $crate::wire::Wire::encoded_len($f) };
    (len $f:ident, seq) => { $crate::wire::encoded_len_seq($f) };
}

/// `impl Wire` for a struct from its fields in wire order (module docs):
/// `wire_struct!(Reply { view, seq, replica, sig, nonce, req_ids: seq })`.
macro_rules! wire_struct {
    ($ty:ident { $($f:ident $(: $m:ident)?),* $(,)? }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                let $ty { $($f),* } = self;
                $(wire_field!(encode buf, $f $(, $m)?);)*
            }
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::CodecError> {
                Ok($ty { $($f: wire_field!(decode r $(, $m)?)),* })
            }
            fn encoded_len(&self) -> usize {
                let $ty { $($f),* } = self;
                0 $(+ wire_field!(len $f $(, $m)?))*
            }
        }
    };
}

/// `impl Wire` for an enum from its tagged variants (module docs): unit
/// (`20 => FetchLedgerTip`), one-field tuple (`2 => Prepare(p)`) or struct
/// (`17 => FetchEvidenceResponse { prepares: seq, commits: seq }`).
macro_rules! wire_enum {
    (@decode $r:ident, $ty:ident::$v:ident) => { $ty::$v };
    (@decode $r:ident, $ty:ident::$v:ident ($x:ident)) => {
        $ty::$v($crate::wire::Wire::decode($r)?)
    };
    (@decode $r:ident, $ty:ident::$v:ident { $($f:ident $(: $m:ident)?),* }) => {
        $ty::$v { $($f: wire_field!(decode $r $(, $m)?)),* }
    };
    ($ty:ident {
        $($tag:literal => $v:ident $(($x:ident))? $({ $($f:ident $(: $m:ident)?),* $(,)? })?),*
        $(,)?
    }) => {
        impl $crate::wire::Wire for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {
                    $($ty::$v $(($x))? $({ $($f),* })? => {
                        buf.push($tag);
                        $($crate::wire::Wire::encode($x, buf);)?
                        $($(wire_field!(encode buf, $f $(, $m)?);)*)?
                    })*
                }
            }
            fn decode(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::wire::CodecError> {
                match r.u8()? {
                    $($tag => Ok(wire_enum!(@decode r, $ty::$v $(($x))? $({ $($f $(: $m)?),* })?)),)*
                    tag => Err($crate::wire::CodecError::BadTag { context: stringify!($ty), tag }),
                }
            }
            fn encoded_len(&self) -> usize {
                1 + match self {
                    $($ty::$v $(($x))? $({ $($f),* })? => {
                        0 $(+ $crate::wire::Wire::encoded_len($x))?
                            $($(+ wire_field!(len $f $(, $m)?))*)?
                    })*
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrips() {
        for v in [0u64, 1, 0xdead_beef, u64::MAX] {
            assert_eq!(u64::from_bytes(&v.to_bytes()).unwrap(), v);
        }
        assert_eq!(u16::from_bytes(&513u16.to_bytes()).unwrap(), 513);
    }

    #[test]
    fn byte_string_roundtrip() {
        let v = b"hello world".to_vec();
        assert_eq!(Vec::<u8>::from_bytes(&v.to_bytes()).unwrap(), v);
        assert_eq!(Vec::<u8>::from_bytes(&Vec::new().to_bytes()).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn option_roundtrip() {
        let some: Option<u32> = Some(7);
        let none: Option<u32> = None;
        assert_eq!(Option::<u32>::from_bytes(&some.to_bytes()).unwrap(), some);
        assert_eq!(Option::<u32>::from_bytes(&none.to_bytes()).unwrap(), none);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 5u32.to_bytes();
        bytes.push(0xff);
        assert_eq!(u32::from_bytes(&bytes), Err(CodecError::TrailingBytes(1)));
    }

    #[test]
    fn truncated_input_rejected() {
        let bytes = 5u64.to_bytes();
        assert_eq!(u64::from_bytes(&bytes[..7]), Err(CodecError::UnexpectedEnd));
    }

    #[test]
    fn absurd_length_rejected() {
        let mut bytes = Vec::new();
        (u32::MAX).encode(&mut bytes); // length prefix of ~4 GiB
        assert!(matches!(Vec::<u8>::from_bytes(&bytes), Err(CodecError::BadLength(_))));
    }

    #[test]
    fn digest_signature_nonce_roundtrip() {
        let d = ia_ccf_crypto::hash_bytes(b"d");
        // UFCS: `Digest` also has inherent `from_bytes`/`as_bytes`.
        assert_eq!(<Digest as Wire>::from_bytes(&Wire::to_bytes(&d)).unwrap(), d);

        let kp = ia_ccf_crypto::KeyPair::from_label("w");
        let sig = kp.sign(b"m");
        assert_eq!(Signature::from_bytes(&Wire::to_bytes(&sig)).unwrap(), sig);

        let n = Nonce([7u8; 16]);
        assert_eq!(Nonce::from_bytes(&Wire::to_bytes(&n)).unwrap(), n);
    }

    #[test]
    fn seq_helpers_roundtrip() {
        let xs = vec![View(1), View(2), View(300)];
        let mut buf = Vec::new();
        encode_seq(&xs, &mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_seq::<View>(&mut r).unwrap(), xs);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn encoded_len_is_exact_for_primitives() {
        assert_eq!(7u64.encoded_len(), 7u64.to_bytes().len());
        assert_eq!(true.encoded_len(), 1);
        let v = b"payload".to_vec();
        assert_eq!(v.encoded_len(), v.to_bytes().len());
        let s = String::from("héllo");
        assert_eq!(s.encoded_len(), Wire::to_bytes(&s).len());
        let some: Option<Vec<u8>> = Some(b"x".to_vec());
        assert_eq!(some.encoded_len(), some.to_bytes().len());
        let none: Option<Vec<u8>> = None;
        assert_eq!(none.encoded_len(), 1);
        let pair = (View(3), b"ab".to_vec());
        assert_eq!(pair.encoded_len(), pair.to_bytes().len());
    }

    #[test]
    fn string_encoding_matches_byte_string() {
        // The direct String encode path must produce byte-identical output
        // to encoding the equivalent Vec<u8> (ledger compatibility).
        let s = String::from("governance");
        assert_eq!(Wire::to_bytes(&s), s.as_bytes().to_vec().to_bytes());
        assert_eq!(String::from_bytes(&Wire::to_bytes(&s)).unwrap(), s);
    }

    #[test]
    fn encode_scratch_reuses_capacity() {
        let mut scratch = Vec::new();
        let first = 0xAABBCCDDu32;
        assert_eq!(first.encode_scratch(&mut scratch), first.to_bytes());
        let cap = scratch.capacity();
        let second = 1u32;
        assert_eq!(second.encode_scratch(&mut scratch), second.to_bytes());
        assert_eq!(scratch.capacity(), cap, "no realloc for same-size encodes");
    }

    #[test]
    fn merkle_path_roundtrip() {
        let p = ia_ccf_merkle::MerklePath {
            index: 3,
            tree_len: 9,
            siblings: vec![ia_ccf_crypto::hash_bytes(b"a"), ia_ccf_crypto::hash_bytes(b"b")],
        };
        assert_eq!(ia_ccf_merkle::MerklePath::from_bytes(&p.to_bytes()).unwrap(), p);
    }
}
