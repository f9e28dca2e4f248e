//! The compact, versioned binary wire format for mergeable state.
//!
//! The distributed tier ships sampler digests between processes (workers →
//! coordinator) as byte payloads over TCP. This module defines the codec
//! those payloads use: hand-rolled, dependency-free, and *strict* — every
//! decoder validates the invariants of the type it produces (a
//! [`Window`] whose end precedes its start, a [`StratumSample`] claiming
//! more items than population, a hostile length prefix) and reports
//! [`SaError::Wire`] instead of panicking or over-allocating.
//!
//! Encoding rules:
//!
//! * unsigned integers (`u32`/`u64`/`usize`) — LEB128 varints, at most 10
//!   bytes, minimal length enforced on decode;
//! * signed integers (`i64`, event times, window bounds) — zigzag-mapped
//!   varints, so small magnitudes of either sign stay short;
//! * `f64` — the raw IEEE-754 bits, little-endian, so samples and
//!   statistics round-trip *bit-identically* (the distributed acceptance
//!   test depends on this: decode-then-merge must equal merging the
//!   originals);
//! * sequences — a varint length (checked against the bytes actually
//!   remaining before any allocation) followed by the elements;
//! * options — a one-byte presence tag.
//!
//! Versioning lives one layer up, in the frame header (`sa-net`): a frame
//! carries the format version for its whole payload, so individual values
//! stay tag-free and compact.
//!
//! # Declaring a layout
//!
//! A type whose layout is a plain field sequence or a tag table declares it
//! once, with [`wire_struct!`](crate::wire_struct) or
//! [`wire_enum!`](crate::wire_enum): one field list (or tag table) writes
//! both the encoder and the decoder, so the two halves cannot drift apart
//! and a field added to the type without a place in the layout does not
//! compile. New layouts use the macros. A hand-written codec is the
//! exception and says why at its site — today: the primitives and
//! containers the macros compose, newtypes read through accessors, types
//! built through validating constructors, and generic containers that
//! check order across elements.

use crate::budget::{Confidence, SizingDirective};
use crate::error::SaError;
use crate::item::{EventTime, StratumId};
use crate::result::{ApproxResult, ErrorBound, WindowResult};
use crate::sample::{StratifiedSample, StratumSample};
use crate::seed::RunSeed;
use crate::session::IngestCounters;
use crate::window::{Window, WindowSpec};

/// Serializes a value into the workspace wire format.
///
/// Implementations append to the output buffer; composite types encode
/// field-by-field in declaration order. Encoding is total — it cannot fail
/// — because every in-memory value of an encodable type is representable.
pub trait WireEncode {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Encodes into a fresh buffer.
    fn to_wire_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Deserializes a value from the workspace wire format.
///
/// Decoding is strict: input that is truncated, non-minimal, out of range,
/// or violates the target type's invariants yields [`SaError::Wire`].
/// Decoders never panic and never allocate more than the input could
/// possibly describe.
pub trait WireDecode: Sized {
    /// Reads one value from the reader.
    ///
    /// # Errors
    ///
    /// Returns [`SaError::Wire`] on malformed input.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError>;

    /// Decodes a value that must span the *entire* byte slice; trailing
    /// bytes are an error (a digest with junk appended is not the digest).
    ///
    /// # Errors
    ///
    /// Returns [`SaError::Wire`] on malformed input or trailing bytes.
    fn from_wire_bytes(bytes: &[u8]) -> Result<Self, SaError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// A bounds-checked cursor over an encoded byte slice.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SaError> {
        if n > self.remaining() {
            return Err(SaError::Wire(format!(
                "truncated input: needed {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one raw byte.
    ///
    /// # Errors
    ///
    /// Returns [`SaError::Wire`] if the input is exhausted.
    pub fn read_u8(&mut self) -> Result<u8, SaError> {
        Ok(self.take(1)?[0])
    }

    /// Reads `n` raw bytes as a slice borrowed from the input — the bulk
    /// path for opaque payloads (nested snapshot state, UTF-8 strings)
    /// whose length was already bounds-checked by [`WireReader::read_len`].
    ///
    /// # Errors
    ///
    /// Returns [`SaError::Wire`] if fewer than `n` bytes remain.
    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], SaError> {
        self.take(n)
    }

    /// Reads a LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`SaError::Wire`] on truncation, a value exceeding 64 bits,
    /// or a non-minimal encoding.
    pub fn read_varint(&mut self) -> Result<u64, SaError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8().map_err(|_| {
                SaError::Wire("truncated varint: input ended mid-value".to_string())
            })?;
            if shift == 63 && byte > 0x01 {
                return Err(SaError::Wire("varint overflows 64 bits".to_string()));
            }
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift != 0 {
                    return Err(SaError::Wire("non-minimal varint encoding".to_string()));
                }
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a zigzag-encoded signed varint.
    ///
    /// # Errors
    ///
    /// Propagates [`WireReader::read_varint`] failures.
    pub fn read_zigzag(&mut self) -> Result<i64, SaError> {
        let z = self.read_varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Reads a little-endian IEEE-754 double, bit-exact.
    ///
    /// # Errors
    ///
    /// Returns [`SaError::Wire`] if fewer than 8 bytes remain.
    pub fn read_f64(&mut self) -> Result<f64, SaError> {
        Ok(f64::from_bits(self.read_u64_le()?))
    }

    /// Reads a fixed-width little-endian `u64` — used for full-entropy
    /// words (RNG state) where a varint would cost more than it saves.
    ///
    /// # Errors
    ///
    /// Returns [`SaError::Wire`] if fewer than 8 bytes remain.
    pub fn read_u64_le(&mut self) -> Result<u64, SaError> {
        let bytes = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a sequence-length prefix, rejecting any length that exceeds
    /// the bytes actually remaining — the guard that makes a hostile
    /// length prefix harmless (no allocation ever exceeds the input size).
    ///
    /// # Errors
    ///
    /// Returns [`SaError::Wire`] on a malformed varint or an impossible
    /// length.
    pub fn read_len(&mut self) -> Result<usize, SaError> {
        let n = self.read_varint()?;
        let n = usize::try_from(n)
            .map_err(|_| SaError::Wire(format!("length prefix {n} exceeds address space")))?;
        if n > self.remaining() {
            return Err(SaError::Wire(format!(
                "length prefix {n} exceeds the {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Asserts the input was fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`SaError::Wire`] if bytes remain.
    pub fn finish(self) -> Result<(), SaError> {
        if self.remaining() != 0 {
            return Err(SaError::Wire(format!(
                "{} trailing bytes after value",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Appends a LEB128 varint.
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends a zigzag-encoded signed varint.
pub fn put_zigzag(out: &mut Vec<u8>, v: i64) {
    put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Appends a fixed-width little-endian `u64` (see
/// [`WireReader::read_u64_le`]).
pub fn put_u64_le(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Writes both codec halves of a struct from one field list, in wire order.
///
/// `wire_struct!(Type { a, b, c })` encodes `self.a`, `self.b`, `self.c`
/// in list order through [`WireEncode`] and decodes
/// `Type { a: WireDecode::decode(r)?, … }`; each field's type comes from
/// the struct definition, and Rust evaluates struct-literal fields in the
/// order written, so the list *is* the layout. A field followed by
/// `with path` goes through `path::encode` / `path::decode` instead
/// (serde's `with`; [`bytes`] is the one codec of that kind). A trailing
/// `check f` runs `f: fn(&Type) -> bool` on the decoded value and turns
/// `false` into [`SaError::Wire`].
///
/// ```
/// use sa_types::{wire_struct, WireDecode, WireEncode};
///
/// #[derive(Debug, PartialEq)]
/// struct Span {
///     lo: u64,
///     hi: u64,
/// }
/// wire_struct!(Span { lo, hi } check |s| s.lo <= s.hi);
///
/// let span = Span { lo: 1, hi: 300 };
/// assert_eq!(span.to_wire_bytes(), [1, 0xAC, 0x02]);
/// assert_eq!(Span::from_wire_bytes(&span.to_wire_bytes()).unwrap(), span);
/// assert!(Span::from_wire_bytes(&[2, 1]).is_err()); // lo > hi
/// ```
///
/// A struct field missing from the list is a compile error, so a field
/// cannot be added without a place in the layout:
///
/// ```compile_fail,E0063
/// use sa_types::wire_struct;
///
/// struct Span {
///     lo: u64,
///     hi: u64,
/// }
/// wire_struct!(Span { lo });
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident $(with $($codec:ident)::+)?),* $(,)? } $(check $check:expr)?) => {
        impl $crate::WireEncode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $($crate::__wire_field!(encode out, &self.$field $(, $($codec)::+)?);)*
            }
        }
        impl $crate::WireDecode for $ty {
            fn decode(r: &mut $crate::WireReader<'_>) -> Result<Self, $crate::SaError> {
                let value = $ty {
                    $($field: $crate::__wire_field!(decode r $field $(with $($codec)::+)?),)*
                };
                $crate::__wire_field!(check $ty value $($check)?);
                Ok(value)
            }
        }
    };
}

/// Writes both codec halves of an enum from one explicit `u8` tag table.
///
/// Each entry maps a tag to a unit (`4 => Everything`), tuple
/// (`1 => Fraction(f)`) or struct (`0 => HelloJoin { worker, wants_results }`)
/// variant; the tag byte comes first, then the variant's fields in the order
/// listed, each as in [`wire_struct!`](crate::wire_struct) (including
/// `with`). An unknown tag, or a decoded value that fails the optional
/// trailing `check`, is [`SaError::Wire`].
///
/// ```
/// use sa_types::{wire_enum, WireDecode, WireEncode};
///
/// #[derive(Debug, PartialEq)]
/// enum Shape {
///     Dot,
///     Circle(u64),
///     Rect { w: u64, h: u64 },
/// }
/// wire_enum!(Shape { 0 => Dot, 1 => Circle(r), 2 => Rect { w, h } });
///
/// assert_eq!(Shape::Rect { w: 3, h: 4 }.to_wire_bytes(), [2, 3, 4]);
/// assert_eq!(Shape::from_wire_bytes(&[1, 9]).unwrap(), Shape::Circle(9));
/// assert!(Shape::from_wire_bytes(&[3]).is_err()); // unknown tag
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident {
        $($tag:literal => $variant:ident
            $(($($bind:ident),* $(,)?))?
            $({ $($field:ident $(with $($codec:ident)::+)?),* $(,)? })?
        ),* $(,)?
    } $(check $check:expr)?) => {
        impl $crate::WireEncode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(($($bind),*))? $({ $($field),* })? => {
                        out.push($tag);
                        $($($crate::__wire_field!(encode out, $bind);)*)?
                        $($($crate::__wire_field!(encode out, $field $(, $($codec)::+)?);)*)?
                    })*
                }
            }
        }
        impl $crate::WireDecode for $ty {
            fn decode(r: &mut $crate::WireReader<'_>) -> Result<Self, $crate::SaError> {
                let value = match r.read_u8()? {
                    $($tag => $ty::$variant
                        $(($($crate::__wire_field!(decode r $bind)),*))?
                        $({ $($field: $crate::__wire_field!(decode r $field $(with $($codec)::+)?)),* })?,)*
                    tag => {
                        return Err($crate::SaError::Wire(format!(
                            concat!("unknown ", stringify!($ty), " tag {}"),
                            tag
                        )))
                    }
                };
                $crate::__wire_field!(check $ty value $($check)?);
                Ok(value)
            }
        }
    };
}

/// One field's half of a codec, for [`wire_struct!`](crate::wire_struct)
/// and [`wire_enum!`](crate::wire_enum); not for direct use.
#[doc(hidden)]
#[macro_export]
macro_rules! __wire_field {
    (encode $out:ident, $value:expr, $($codec:ident)::+) => { $($codec)::+::encode($value, $out) };
    (encode $out:ident, $value:expr) => { $crate::WireEncode::encode($value, $out) };
    (decode $r:ident $name:ident with $($codec:ident)::+) => { $($codec)::+::decode($r)? };
    (decode $r:ident $name:ident) => { $crate::WireDecode::decode($r)? };
    (check $ty:ident $value:ident $($check:expr)?) => {$(
        let valid: fn(&$ty) -> bool = $check;
        if !valid(&$value) {
            return Err($crate::SaError::Wire(
                concat!("decoded ", stringify!($ty), " fails `", stringify!($check), "`").to_string(),
            ));
        }
    )?};
}

/// The bulk codec for opaque byte payloads (nested sealed snapshots,
/// engine state), used as `field with bytes`: a varint length, then the
/// raw bytes copied in one piece. The bytes are those `Vec<u8>`'s own
/// codec writes; only the decoder differs, reading the payload as one
/// slice instead of byte by byte.
pub mod bytes {
    use super::{put_varint, SaError, WireReader};

    /// Appends the length prefix and the bytes.
    pub fn encode(bytes: &[u8], out: &mut Vec<u8>) {
        put_varint(out, bytes.len() as u64);
        out.extend_from_slice(bytes);
    }

    /// Reads a length-prefixed payload; the length is checked against the
    /// input before anything is allocated.
    ///
    /// # Errors
    ///
    /// Returns [`SaError::Wire`] on a malformed or impossible length.
    pub fn decode(r: &mut WireReader<'_>) -> Result<Vec<u8>, SaError> {
        let len = r.read_len()?;
        Ok(r.read_bytes(len)?.to_vec())
    }
}

// ---- primitive impls -------------------------------------------------------
//
// Hand-written: these are the encoding rules above (varints, zigzag, raw
// IEEE bits, length prefixes, presence tags) that every declared layout
// composes.

impl WireEncode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl WireDecode for bool {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        match r.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(SaError::Wire(format!("invalid bool tag {t}"))),
        }
    }
}

impl WireEncode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl WireDecode for u8 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        r.read_u8()
    }
}

impl WireEncode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(*self));
    }
}

impl WireDecode for u32 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        let v = r.read_varint()?;
        u32::try_from(v).map_err(|_| SaError::Wire(format!("value {v} exceeds u32 range")))
    }
}

impl WireEncode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self);
    }
}

impl WireDecode for u64 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        r.read_varint()
    }
}

impl WireEncode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, *self as u64);
    }
}

impl WireDecode for usize {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        let v = r.read_varint()?;
        usize::try_from(v).map_err(|_| SaError::Wire(format!("value {v} exceeds usize range")))
    }
}

impl WireEncode for i64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_zigzag(out, *self);
    }
}

impl WireDecode for i64 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        r.read_zigzag()
    }
}

impl WireEncode for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
}

impl WireDecode for f64 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        r.read_f64()
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(SaError::Wire(format!("invalid option tag {t}"))),
        }
    }
}

impl<T: WireEncode> WireEncode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        for v in self {
            v.encode(out);
        }
    }
}

impl<T: WireDecode> WireDecode for Vec<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        // Every element of every wire type occupies at least one byte, so a
        // length prefix larger than the remaining input is provably hostile
        // and read_len rejects it before this Vec ever allocates.
        let len = r.read_len()?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl WireEncode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
}

impl WireDecode for String {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        let len = r.read_len()?;
        let bytes = r.read_bytes(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| SaError::Wire("string payload is not valid utf-8".to_string()))
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

// ---- domain impls ----------------------------------------------------------

// Hand-written: a newtype, encoded as the `u32` inside it.
impl WireEncode for StratumId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl WireDecode for StratumId {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        Ok(StratumId(u32::decode(r)?))
    }
}

// Hand-written: a newtype read through its accessor.
impl WireEncode for EventTime {
    fn encode(&self, out: &mut Vec<u8>) {
        put_zigzag(out, self.as_millis());
    }
}

impl WireDecode for EventTime {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        Ok(EventTime::from_millis(r.read_zigzag()?))
    }
}

// Hand-written: a newtype read through its accessor.
impl WireEncode for RunSeed {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.value());
    }
}

impl WireDecode for RunSeed {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        Ok(RunSeed::new(r.read_varint()?))
    }
}

// Hand-written: built through its validating constructor.
impl WireEncode for Window {
    fn encode(&self, out: &mut Vec<u8>) {
        self.start.encode(out);
        self.end.encode(out);
    }
}

impl WireDecode for Window {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        let start = EventTime::decode(r)?;
        let end = EventTime::decode(r)?;
        if end <= start {
            return Err(SaError::Wire(format!(
                "window end {end} not after start {start}"
            )));
        }
        Ok(Window::new(start, end))
    }
}

// Hand-written: built through its validating constructor.
impl WireEncode for WindowSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        put_zigzag(out, self.size_millis());
        put_zigzag(out, self.slide_millis());
    }
}

impl WireDecode for WindowSpec {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        let size = r.read_zigzag()?;
        let slide = r.read_zigzag()?;
        if size <= 0 || slide <= 0 || slide > size {
            return Err(SaError::Wire(format!(
                "invalid window spec: size {size}ms slide {slide}ms"
            )));
        }
        Ok(WindowSpec::sliding_millis(size, slide))
    }
}

wire_enum!(Confidence { 0 => P68, 1 => P95, 2 => P997 });

// Hand-written: built through its validating constructor.
impl WireEncode for ErrorBound {
    fn encode(&self, out: &mut Vec<u8>) {
        self.margin().encode(out);
        self.confidence().encode(out);
    }
}

impl WireDecode for ErrorBound {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        let margin = r.read_f64()?;
        let confidence = Confidence::decode(r)?;
        if !(margin >= 0.0 && margin.is_finite()) {
            return Err(SaError::Wire(format!(
                "error margin {margin} not a non-negative finite number"
            )));
        }
        Ok(ErrorBound::new(margin, confidence))
    }
}

wire_struct!(ApproxResult {
    value,
    bound,
    sample_size,
    population_size
});

// Sealed snapshots store these tags (engine sampler pools), so the table
// is fixed at 1–4 for as long as `SNAPSHOT_VERSION` is 3.
wire_enum!(SizingDirective {
    1 => Fraction(f),
    2 => PerStratum(n),
    3 => SharedTotal(n),
    4 => Everything,
} check SizingDirective::is_valid);

wire_struct!(WindowResult {
    window,
    sum,
    mean,
    sum_by_stratum,
    mean_by_stratum,
    degraded,
    lost_items,
});

wire_struct!(IngestCounters {
    ingested,
    dropped_late
});

// Hand-written: generic, and checks its item count against its population.
impl<V: WireEncode> WireEncode for StratumSample<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.stratum.encode(out);
        put_varint(out, self.population);
        self.capacity.encode(out);
        self.items.encode(out);
    }
}

impl<V: WireDecode> WireDecode for StratumSample<V> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        let stratum = StratumId::decode(r)?;
        let population = r.read_varint()?;
        let capacity = usize::decode(r)?;
        let items = Vec::<V>::decode(r)?;
        if items.len() as u64 > population {
            return Err(SaError::Wire(format!(
                "stratum {stratum} claims {} sampled of population {population}",
                items.len()
            )));
        }
        Ok(StratumSample {
            stratum,
            items,
            population,
            capacity,
        })
    }
}

// Hand-written: generic, and enforces ascending stratum order across elements.
impl<V: WireEncode> WireEncode for StratifiedSample<V> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.num_strata() as u64);
        for s in self.iter() {
            s.encode(out);
        }
    }
}

impl<V: WireDecode> WireDecode for StratifiedSample<V> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, SaError> {
        let len = r.read_len()?;
        let mut out = StratifiedSample::new();
        let mut last: Option<StratumId> = None;
        for _ in 0..len {
            let s = StratumSample::<V>::decode(r)?;
            // The canonical form is strictly ascending stratum order —
            // what every encoder in this workspace produces. Enforcing it
            // here keeps decode O(n) honest (each push appends) and makes
            // the encoding of a sample unique.
            if let Some(prev) = last {
                if s.stratum <= prev {
                    return Err(SaError::Wire(format!(
                        "strata out of order: {} after {prev}",
                        s.stratum
                    )));
                }
            }
            last = Some(s.stratum);
            out.push(s);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_wire_bytes();
        let back = T::from_wire_bytes(&bytes).expect("roundtrip decode");
        assert_eq!(&back, v, "roundtrip through {} bytes", bytes.len());
    }

    #[test]
    fn primitives_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX] {
            roundtrip(&v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MIN, i64::MAX] {
            roundtrip(&v);
        }
        for v in [0.0f64, -0.0, 1.5, f64::INFINITY, f64::MIN_POSITIVE] {
            roundtrip(&v);
        }
        roundtrip(&true);
        roundtrip(&Some(42u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&vec![1u64, 2, 3]);
    }

    #[test]
    fn nan_bits_survive() {
        let bits = 0x7FF8_0000_DEAD_BEEFu64;
        let v = f64::from_bits(bits);
        let back = f64::from_wire_bytes(&v.to_wire_bytes()).unwrap();
        assert_eq!(back.to_bits(), bits);
    }

    #[test]
    fn domain_types_roundtrip() {
        roundtrip(&StratumId(7));
        roundtrip(&EventTime::from_millis(-12_345));
        roundtrip(&RunSeed::new(0xDEAD_BEEF));
        roundtrip(&Window::new(
            EventTime::from_millis(-500),
            EventTime::from_millis(1_500),
        ));
        roundtrip(&WindowSpec::sliding_secs(10, 5));
        roundtrip(&Confidence::P997);
        roundtrip(&ErrorBound::new(2.5, Confidence::P95));
        roundtrip(&ApproxResult::new(
            100.0,
            ErrorBound::new(3.0, Confidence::P95),
            60,
            100,
        ));
        roundtrip(&IngestCounters {
            ingested: 10,
            dropped_late: 2,
        });
        roundtrip(&String::from("aggregated"));
        roundtrip(&String::new());
        let sample: StratifiedSample<f64> = [
            StratumSample::new(StratumId(0), vec![1.0, 2.0], 10, 4),
            StratumSample::new(StratumId(3), vec![-0.5], 1, 4),
        ]
        .into_iter()
        .collect();
        roundtrip(&sample);
    }

    #[test]
    fn directive_codec_roundtrips_every_variant() {
        for (tag, d) in [
            (1, SizingDirective::Fraction(0.25)),
            (2, SizingDirective::PerStratum(7)),
            (3, SizingDirective::SharedTotal(1_000)),
            (4, SizingDirective::Everything),
        ] {
            let bytes = d.to_wire_bytes();
            assert_eq!(bytes[0], tag, "{d:?}");
            assert_eq!(SizingDirective::from_wire_bytes(&bytes).unwrap(), d);
        }
        for bad in [
            SizingDirective::Fraction(0.0),
            SizingDirective::Fraction(-0.5),
            SizingDirective::Fraction(1.5),
            SizingDirective::Fraction(f64::NAN),
            SizingDirective::PerStratum(0),
            SizingDirective::SharedTotal(0),
        ] {
            let bytes = bad.to_wire_bytes();
            assert!(
                matches!(
                    SizingDirective::from_wire_bytes(&bytes),
                    Err(SaError::Wire(_))
                ),
                "{bad:?}"
            );
        }
        for tag in [0, 5, 9] {
            assert!(matches!(
                SizingDirective::from_wire_bytes(&[tag]),
                Err(SaError::Wire(_))
            ));
        }
    }

    #[test]
    fn window_result_codec_roundtrips_bit_exact() {
        let result = |v: f64| ApproxResult::new(v, ErrorBound::new(0.5, Confidence::P95), 3, 10);
        let w = WindowResult {
            window: Window::new(EventTime::from_secs(0), EventTime::from_secs(10)),
            sum: result(10.125),
            mean: result(1.0125),
            sum_by_stratum: vec![(StratumId(0), result(4.0)), (StratumId(1), result(6.125))],
            mean_by_stratum: vec![(StratumId(0), result(2.0))],
            degraded: true,
            lost_items: 512,
        };
        let back = WindowResult::from_wire_bytes(&w.to_wire_bytes()).unwrap();
        assert_eq!(back, w);
        assert_eq!(back.sum.value.to_bits(), w.sum.value.to_bits());
    }

    #[test]
    fn truncation_is_an_error_never_a_panic() {
        let sample: StratifiedSample<f64> =
            [StratumSample::new(StratumId(1), vec![1.0, 2.0, 3.0], 9, 3)]
                .into_iter()
                .collect();
        let bytes = sample.to_wire_bytes();
        for cut in 0..bytes.len() {
            let err = StratifiedSample::<f64>::from_wire_bytes(&bytes[..cut]);
            assert!(matches!(err, Err(SaError::Wire(_))), "cut at {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u64.to_wire_bytes();
        bytes.push(0);
        assert!(matches!(
            u64::from_wire_bytes(&bytes),
            Err(SaError::Wire(_))
        ));
    }

    #[test]
    fn hostile_length_prefix_never_allocates() {
        // A Vec<f64> claiming u64::MAX - 1 elements in a 10-byte input.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, u64::MAX - 1);
        let err = Vec::<f64>::from_wire_bytes(&bytes);
        assert!(matches!(err, Err(SaError::Wire(_))));
    }

    #[test]
    fn varint_overflow_and_nonminimal_rejected() {
        // 11 continuation bytes: overflows 64 bits.
        let overlong = [0xFFu8; 11];
        assert!(matches!(
            WireReader::new(&overlong).read_varint(),
            Err(SaError::Wire(_))
        ));
        // 0x80 0x00 is a non-minimal encoding of 0.
        assert!(matches!(
            WireReader::new(&[0x80, 0x00]).read_varint(),
            Err(SaError::Wire(_))
        ));
    }

    #[test]
    fn invalid_invariants_rejected() {
        // Window with end <= start.
        let mut bytes = Vec::new();
        EventTime::from_millis(10).encode(&mut bytes);
        EventTime::from_millis(10).encode(&mut bytes);
        assert!(matches!(
            Window::from_wire_bytes(&bytes),
            Err(SaError::Wire(_))
        ));
        // WindowSpec with slide > size.
        let mut bytes = Vec::new();
        put_zigzag(&mut bytes, 5);
        put_zigzag(&mut bytes, 10);
        assert!(matches!(
            WindowSpec::from_wire_bytes(&bytes),
            Err(SaError::Wire(_))
        ));
        // StratumSample claiming more items than population.
        let mut bytes = Vec::new();
        StratumId(0).encode(&mut bytes);
        put_varint(&mut bytes, 1); // population 1
        2usize.encode(&mut bytes); // capacity
        vec![1.0f64, 2.0].encode(&mut bytes); // 2 items
        assert!(matches!(
            StratumSample::<f64>::from_wire_bytes(&bytes),
            Err(SaError::Wire(_))
        ));
        // ErrorBound with a NaN margin.
        let mut bytes = Vec::new();
        f64::NAN.encode(&mut bytes);
        Confidence::P95.encode(&mut bytes);
        assert!(matches!(
            ErrorBound::from_wire_bytes(&bytes),
            Err(SaError::Wire(_))
        ));
        // Unknown confidence tag.
        assert!(matches!(
            Confidence::from_wire_bytes(&[9]),
            Err(SaError::Wire(_))
        ));
        // A string whose bytes are not valid UTF-8.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 2);
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(matches!(
            String::from_wire_bytes(&bytes),
            Err(SaError::Wire(_))
        ));
        // Strata out of canonical order.
        let mut bytes = Vec::new();
        put_varint(&mut bytes, 2);
        StratumSample::new(StratumId(5), vec![1.0], 1, 1).encode(&mut bytes);
        StratumSample::new(StratumId(2), vec![1.0], 1, 1).encode(&mut bytes);
        assert!(matches!(
            StratifiedSample::<f64>::from_wire_bytes(&bytes),
            Err(SaError::Wire(_))
        ));
    }

    proptest! {
        /// Unsigned varints round-trip at every magnitude.
        #[test]
        fn varint_roundtrips(v in any::<u64>()) {
            let mut bytes = Vec::new();
            put_varint(&mut bytes, v);
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(r.read_varint().unwrap(), v);
            prop_assert_eq!(r.remaining(), 0);
        }

        /// Zigzag varints round-trip for both signs.
        #[test]
        fn zigzag_roundtrips(v in any::<i64>()) {
            let mut bytes = Vec::new();
            put_zigzag(&mut bytes, v);
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(r.read_zigzag().unwrap(), v);
        }

        /// f64 round-trips preserve the exact bit pattern.
        #[test]
        fn f64_roundtrips_bit_exact(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            let back = f64::from_wire_bytes(&v.to_wire_bytes()).unwrap();
            prop_assert_eq!(back.to_bits(), bits);
        }

        /// Arbitrary stratified samples round-trip exactly, and random
        /// mutilation of the payload never panics the decoder.
        #[test]
        fn stratified_sample_roundtrips(
            pops in proptest::collection::vec(0u64..50, 0..6),
            cap in 1usize..8,
            seed in any::<u64>(),
        ) {
            let mut sample: StratifiedSample<f64> = StratifiedSample::new();
            for (i, &pop) in pops.iter().enumerate() {
                let n = (pop as usize).min(cap);
                let items: Vec<f64> = (0..n).map(|k| (seed ^ k as u64) as f64).collect();
                sample.push(StratumSample::new(StratumId(i as u32), items, pop, cap));
            }
            let bytes = sample.to_wire_bytes();
            let back = StratifiedSample::<f64>::from_wire_bytes(&bytes).unwrap();
            prop_assert_eq!(back, sample);
            // Truncate at a pseudo-random point: must error, not panic.
            if !bytes.is_empty() {
                let cut = (seed as usize) % bytes.len();
                prop_assert!(StratifiedSample::<f64>::from_wire_bytes(&bytes[..cut]).is_err());
            }
        }
    }
}
