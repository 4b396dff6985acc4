//! The one little-endian byte codec every on-disk format reads and writes
//! through: a checked [`Reader`], the matching [`Put`] writers on
//! `Vec<u8>`, and the [`seal`] / [`unseal`] frame — bytes, then the
//! FNV-1a 64 of those bytes — that walk-corpus shards (`V2WS`) and token
//! counts (`V2WC`), checkpoint sections (`V2VC`), the `.v2s` header
//! (`V2VE`), HNSW snapshots (`V2VH`) and WAL records (`V2WL`) all use.
//!
//! Every length the reader derives from a count is checked arithmetic, so
//! a file whose checksum holds but whose counts are absurd is an
//! [`Error`], never an overflow panic or a huge allocation.

use crate::hash::{fnv1a64, FNV_OFFSET};
use std::fmt;

/// Why bytes could not be decoded. Each format's error type wraps it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Error {
    /// A read ran past the end; `at` is where it started.
    Truncated { at: usize },
    /// A length computed from on-disk counts does not fit in `usize`.
    Overflow,
    /// Bytes were left after the last field.
    Trailing(usize),
    /// A sealed frame's trailer disagrees with its bytes.
    Checksum { stored: u64, computed: u64 },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Truncated { at } => write!(f, "truncated at byte {at}"),
            Error::Overflow => write!(f, "length overflows"),
            Error::Trailing(n) => write!(f, "{n} trailing bytes"),
            Error::Checksum { stored, computed } => {
                write!(f, "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})")
            }
        }
    }
}

impl std::error::Error for Error {}

/// For readers whose errors are plain strings.
impl From<Error> for String {
    fn from(e: Error) -> String {
        e.to_string()
    }
}

/// A fixed-width number and its little-endian encoding.
pub trait Le: Copy {
    const WIDTH: usize;
    fn decode(raw: &[u8]) -> Self;
    fn encode(self, out: &mut Vec<u8>);
}

macro_rules! le {
    ($($t:ident $($many:ident)?),*) => {
        $(impl Le for $t {
            const WIDTH: usize = size_of::<$t>();
            #[inline]
            fn decode(raw: &[u8]) -> $t {
                $t::from_le_bytes(raw.try_into().expect("callers pass exactly WIDTH bytes"))
            }
            #[inline]
            fn encode(self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        })*
        impl<'a> Reader<'a> {
            $(#[inline]
            pub fn $t(&mut self) -> Result<$t, Error> {
                Ok($t::decode(self.take(<$t>::WIDTH)?))
            }
            $(/// `n` consecutive values from one bounds-checked slice.
            #[inline]
            pub fn $many(&mut self, n: usize) -> Result<impl Iterator<Item = $t> + 'a, Error> {
                let raw = self.take(n.checked_mul(<$t>::WIDTH).ok_or(Error::Overflow)?)?;
                Ok(raw.chunks_exact(<$t>::WIDTH).map(<$t>::decode))
            })?)*
        }
    };
}

le!(u8, u32 u32s, u64 u64s, f32 f32s, f64 f64s);

/// A little-endian cursor over a byte slice; every read is bounds-checked.
/// The reads are `#[inline]`: the hot decoders call them per element from
/// other crates, and the release profile has no LTO.
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], Error> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        let out = &self.bytes[self.pos..end.ok_or(Error::Truncated { at: self.pos })?];
        self.pos += n;
        Ok(out)
    }

    #[inline]
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    /// A `u64` count or length that must fit in `usize`.
    #[inline]
    pub fn usize(&mut self) -> Result<usize, Error> {
        usize::try_from(self.u64()?).map_err(|_| Error::Overflow)
    }

    /// Ends the read, refusing bytes left over.
    pub fn finish(self) -> Result<(), Error> {
        match self.bytes.len() - self.pos {
            0 => Ok(()),
            n => Err(Error::Trailing(n)),
        }
    }
}

/// Little-endian writers on `Vec<u8>`, the inverse of [`Reader`]'s reads.
pub trait Put {
    fn put<T: Le>(&mut self, v: T);
    fn put_all<T: Le>(&mut self, vs: &[T]);
}

impl Put for Vec<u8> {
    fn put<T: Le>(&mut self, v: T) {
        v.encode(self);
    }

    fn put_all<T: Le>(&mut self, vs: &[T]) {
        self.reserve(vs.len() * T::WIDTH);
        vs.iter().for_each(|&v| v.encode(self));
    }
}

/// Closes the frame that starts at `buf[from]`: appends the FNV-1a 64 of
/// `buf[from..]` and returns it.
pub fn seal(buf: &mut Vec<u8>, from: usize) -> u64 {
    let sum = fnv1a64(FNV_OFFSET, &buf[from..]);
    buf.put(sum);
    sum
}

/// The body of a sealed frame, once its trailing checksum is verified.
pub fn unseal(frame: &[u8]) -> Result<&[u8], Error> {
    let at = frame.len().checked_sub(8).ok_or(Error::Truncated { at: 0 })?;
    let (body, trailer) = frame.split_at(at);
    let (stored, computed) = (u64::decode(trailer), fnv1a64(FNV_OFFSET, body));
    if stored == computed {
        Ok(body)
    } else {
        Err(Error::Checksum { stored, computed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_read_matches_its_write() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"MAGC");
        buf.put(7u8);
        buf.put(0xDEAD_BEEFu32);
        buf.put(u64::MAX - 1);
        buf.put(-0.0f32);
        buf.put(f64::MIN_POSITIVE);
        buf.put_all(&[1u32, 2, 3]);
        buf.put_all(&[4u64, 5]);
        buf.put_all(&[0.5f32, f32::NAN]);
        assert_eq!(buf.len(), 4 + 1 + 4 + 8 + 4 + 8 + 12 + 16 + 8);

        let mut r = Reader::new(&buf);
        assert_eq!(&r.array::<4>().unwrap(), b"MAGC");
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.usize().unwrap(), (u64::MAX - 1) as usize);
        assert_eq!(r.f32().unwrap().to_bits(), (-0.0f32).to_bits());
        assert_eq!(r.f64().unwrap(), f64::MIN_POSITIVE);
        assert_eq!(r.u32s(3).unwrap().collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(r.u64s(2).unwrap().collect::<Vec<_>>(), [4, 5]);
        let floats: Vec<u32> = r.f32s(2).unwrap().map(f32::to_bits).collect();
        assert_eq!(floats, [0.5f32.to_bits(), f32::NAN.to_bits()]);
        assert_eq!(r.pos(), buf.len());
        r.finish().unwrap();
    }

    #[test]
    fn short_reads_and_leftovers_are_errors() {
        let mut r = Reader::new(&[1, 2, 3]);
        assert_eq!(r.u32(), Err(Error::Truncated { at: 0 }));
        assert_eq!(r.u8(), Ok(1), "a failed read consumes nothing");
        assert_eq!(r.finish(), Err(Error::Trailing(2)));
        assert_eq!(Reader::new(&[]).finish(), Ok(()));
    }

    #[test]
    fn huge_counts_are_errors_before_any_allocation() {
        let mut r = Reader::new(&[0; 16]);
        assert_eq!(r.u64s(usize::MAX / 4).err(), Some(Error::Overflow));
        assert_eq!(r.f32s(1 << 62).err(), Some(Error::Overflow));
        assert_eq!(r.u32s(5).err(), Some(Error::Truncated { at: 0 }));
        r.take(usize::MAX).unwrap_err();
        assert_eq!(r.u32s(4).unwrap().count(), 4);
    }

    #[test]
    fn seal_appends_the_checksum_unseal_verifies() {
        let mut buf = b"head".to_vec();
        let sum = seal(&mut buf, 4);
        assert_eq!(sum, FNV_OFFSET, "an empty frame hashes to the offset basis");
        buf.extend_from_slice(b"body");
        let sum = seal(&mut buf, 0);
        assert_eq!(sum, fnv1a64(FNV_OFFSET, &buf[..16]));
        assert_eq!(unseal(&buf).unwrap(), &buf[..16]);

        let mut bad = buf.clone();
        bad[2] ^= 1;
        assert!(matches!(unseal(&bad), Err(Error::Checksum { .. })));
        assert_eq!(unseal(&buf[..7]), Err(Error::Truncated { at: 0 }));
        let err = unseal(&bad).unwrap_err().to_string();
        assert!(err.starts_with("checksum mismatch (stored 0x"), "{err}");
    }
}
