//! The frame payload codec: a compact, self-describing binary rendering
//! of the `serde` stand-in's [`Content`] tree. The tag table is in the
//! crate docs.
//!
//! Decoding returns the identical tree for every encoding, and an error,
//! never a panic, for anything else: lengths and counts are checked
//! against the bytes left before any allocation, nesting is capped at
//! [`MAX_DEPTH`], and unknown tags, invalid UTF-8, varints wider than 64
//! bits and trailing bytes are rejected.

use serde::Content;

/// Deepest container nesting a payload may carry — serde_json's
/// recursion limit. Bounds the decoder's stack on hostile input.
pub(crate) const MAX_DEPTH: usize = 128;

/// Largest up-front reservation for a `Seq` or `Map`. A declared count
/// beyond it grows the vector only as elements actually decode, so a
/// chain of nested containers that each claim the whole payload cannot
/// reserve memory out of proportion to the bytes received.
const PREALLOC_LIMIT: usize = 1024;

const NULL: u8 = 0;
const FALSE: u8 = 1;
const TRUE: u8 = 2;
/// Zigzag varint.
const INT: u8 = 3;
/// Varint.
const UINT: u8 = 4;
/// IEEE-754 bits, 8 bytes little-endian.
const FLOAT: u8 = 5;
/// Varint byte length, UTF-8.
const STR: u8 = 6;
/// Varint count, that many nodes.
const SEQ: u8 = 7;
/// Varint count, that many (varint key length, UTF-8 key, node).
const MAP: u8 = 8;
/// Varint length, raw bytes: a `Seq` of `I64`s that all lie in
/// `0..=255`, so a state vector travels as its own bytes.
const BYTES: u8 = 9;

/// Appends the encoding of `content` to `out`.
pub(crate) fn encode(content: &Content, out: &mut Vec<u8>) {
    match content {
        Content::Null => out.push(NULL),
        Content::Bool(false) => out.push(FALSE),
        Content::Bool(true) => out.push(TRUE),
        Content::I64(v) => {
            out.push(INT);
            put_varint(out, ((v << 1) ^ (v >> 63)) as u64);
        }
        Content::U64(v) => {
            out.push(UINT);
            put_varint(out, *v);
        }
        Content::F64(v) => {
            out.push(FLOAT);
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        Content::Str(s) => {
            out.push(STR);
            put_str(out, s);
        }
        Content::Seq(items) if items.iter().all(|c| matches!(c, Content::I64(0..=255))) => {
            out.push(BYTES);
            put_varint(out, items.len() as u64);
            out.extend(items.iter().map(|c| match c {
                Content::I64(b) => *b as u8,
                _ => unreachable!("checked to be a byte above"),
            }));
        }
        Content::Seq(items) => {
            out.push(SEQ);
            put_varint(out, items.len() as u64);
            for item in items {
                encode(item, out);
            }
        }
        Content::Map(entries) => {
            out.push(MAP);
            put_varint(out, entries.len() as u64);
            for (key, value) in entries {
                put_str(out, key);
                encode(value, out);
            }
        }
    }
}

/// Decodes exactly one node spanning all of `bytes`.
///
/// # Errors
///
/// A description of the first malformation, with its byte offset.
pub(crate) fn decode(bytes: &[u8]) -> Result<Content, String> {
    let mut reader = Reader { bytes, pos: 0 };
    let content = reader.node(0)?;
    if reader.pos != bytes.len() {
        return Err(format!(
            "{} trailing bytes after the payload's value at byte {}",
            bytes.len() - reader.pos,
            reader.pos
        ));
    }
    Ok(content)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// The depth inside a container opened at byte `at`, or an error past
/// [`MAX_DEPTH`].
fn nest(depth: usize, at: usize) -> Result<usize, String> {
    if depth >= MAX_DEPTH {
        return Err(format!(
            "container at byte {at} nests deeper than {MAX_DEPTH} levels"
        ));
    }
    Ok(depth + 1)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if n > self.remaining() {
            return Err(format!(
                "truncated payload: {n} bytes wanted at byte {}, {} left",
                self.pos,
                self.remaining()
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn byte(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn varint(&mut self) -> Result<u64, String> {
        let start = self.pos;
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.byte()?;
            let bits = u64::from(b & 0x7f);
            if shift == 63 && bits > 1 {
                break;
            }
            value |= bits << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(format!("varint at byte {start} overflows 64 bits"))
    }

    /// A length or count of items that each take at least `min_size`
    /// bytes, checked against the bytes left.
    fn len(&mut self, min_size: usize) -> Result<usize, String> {
        let start = self.pos;
        let n = self.varint()?;
        match usize::try_from(n) {
            Ok(n) if n <= self.remaining() / min_size => Ok(n),
            _ => Err(format!(
                "length {n} at byte {start} exceeds the {} bytes left",
                self.remaining()
            )),
        }
    }

    fn str(&mut self) -> Result<String, String> {
        let n = self.len(1)?;
        let start = self.pos;
        let raw = self.take(n)?;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|e| format!("invalid UTF-8 in the string at byte {start}: {e}"))
    }

    fn node(&mut self, depth: usize) -> Result<Content, String> {
        let at = self.pos;
        Ok(match self.byte()? {
            NULL => Content::Null,
            FALSE => Content::Bool(false),
            TRUE => Content::Bool(true),
            INT => {
                let z = self.varint()?;
                Content::I64((z >> 1) as i64 ^ -((z & 1) as i64))
            }
            UINT => Content::U64(self.varint()?),
            FLOAT => {
                let raw = self.take(8)?;
                Content::F64(f64::from_bits(u64::from_le_bytes(
                    raw.try_into().expect("took 8 bytes"),
                )))
            }
            STR => Content::Str(self.str()?),
            BYTES => {
                let n = self.len(1)?;
                Content::Seq(
                    self.take(n)?
                        .iter()
                        .map(|&b| Content::I64(i64::from(b)))
                        .collect(),
                )
            }
            SEQ => {
                let depth = nest(depth, at)?;
                let n = self.len(1)?;
                let mut items = Vec::with_capacity(n.min(PREALLOC_LIMIT));
                for _ in 0..n {
                    items.push(self.node(depth)?);
                }
                Content::Seq(items)
            }
            MAP => {
                let depth = nest(depth, at)?;
                let n = self.len(2)?;
                let mut entries = Vec::with_capacity(n.min(PREALLOC_LIMIT));
                for _ in 0..n {
                    let key = self.str()?;
                    entries.push((key, self.node(depth)?));
                }
                Content::Map(entries)
            }
            tag => return Err(format!("unknown payload tag {tag} at byte {at}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ints(values: &[i64]) -> Content {
        Content::Seq(values.iter().map(|&v| Content::I64(v)).collect())
    }

    fn roundtrip(content: &Content) -> Vec<u8> {
        let mut bytes = Vec::new();
        encode(content, &mut bytes);
        let back = decode(&bytes).expect("decodes");
        assert_eq!(&back, content, "encoding {bytes:?}");
        bytes
    }

    #[test]
    fn byte_run_boundaries_keep_the_exact_tree() {
        assert_eq!(roundtrip(&Content::Seq(Vec::new())), [BYTES, 0]);
        assert_eq!(roundtrip(&ints(&[0, 255])), [BYTES, 2, 0, 255]);
        // One element outside 0..=255 keeps the whole sequence generic.
        assert_eq!(roundtrip(&ints(&[255, 256]))[0], SEQ);
        assert_eq!(roundtrip(&ints(&[-1]))[0], SEQ);
        let mixed = Content::Seq(vec![Content::I64(1), Content::Str("a".into())]);
        assert_eq!(roundtrip(&mixed)[0], SEQ);
        // A U64 is never a byte, even when small.
        assert_eq!(roundtrip(&Content::Seq(vec![Content::U64(7)]))[0], SEQ);
    }

    #[test]
    fn scalars_keep_their_variant_and_bits() {
        roundtrip(&Content::U64(i64::MAX as u64 + 1));
        roundtrip(&Content::U64(u64::MAX));
        for v in [0, 1, -1, i64::MIN, i64::MAX] {
            roundtrip(&Content::I64(v));
        }
        roundtrip(&Content::Null);
        roundtrip(&Content::Bool(false));
        roundtrip(&Content::Bool(true));
        roundtrip(&Content::Str("é 日本 \"\0".into()));
        // `PartialEq` on f64 cannot see -0.0 vs 0.0 or NaN: compare bits.
        for v in [-0.0, f64::NAN, f64::INFINITY, 1.5] {
            let mut bytes = Vec::new();
            encode(&Content::F64(v), &mut bytes);
            match decode(&bytes).expect("decodes") {
                Content::F64(back) => assert_eq!(back.to_bits(), v.to_bits()),
                other => panic!("{v} came back as {other:?}"),
            }
        }
    }

    #[test]
    fn nested_maps_keep_their_order() {
        let inner = Content::Map(vec![
            ("z".into(), ints(&[1, 2, 3])),
            ("a".into(), Content::Map(Vec::new())),
        ]);
        roundtrip(&Content::Map(vec![
            ("outer".into(), inner.clone()),
            ("".into(), Content::Seq(vec![inner, Content::Null])),
        ]));
    }

    #[test]
    fn nesting_is_capped() {
        let mut deep = Content::Null;
        for _ in 0..MAX_DEPTH {
            deep = Content::Seq(vec![deep]);
        }
        roundtrip(&deep);
        let mut deeper = Vec::new();
        encode(&Content::Seq(vec![deep]), &mut deeper);
        assert!(decode(&deeper).unwrap_err().contains("deeper than 128"));
    }

    #[test]
    fn malformed_payloads_are_errors() {
        let cases: &[(&[u8], &str)] = &[
            (&[], "truncated"),
            (&[42], "unknown payload tag 42"),
            (&[NULL, NULL], "trailing"),
            (&[STR, 2, 0xff, 0xfe], "invalid UTF-8"),
            (&[MAP, 1, 1, 0xc3, NULL], "invalid UTF-8"),
            (&[FLOAT, 0, 0], "truncated"),
            // Declared lengths larger than the payload fail before any
            // allocation.
            (&[BYTES, 0xff, 0xff, 0xff, 0xff, 0x0f], "exceeds"),
            (&[SEQ, 3, NULL, NULL], "exceeds"),
            (&[MAP, 2, 0, NULL], "exceeds"),
            (&[INT, 0x80, 0x80], "truncated"),
            (
                &[
                    UINT, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02,
                ],
                "overflows",
            ),
            (
                &[
                    UINT, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00,
                ],
                "overflows",
            ),
        ];
        for (bytes, want) in cases {
            let err = decode(bytes).expect_err("malformed");
            assert!(err.contains(want), "{bytes:?}: `{err}` lacks `{want}`");
        }
        // The largest varint still decodes.
        roundtrip(&Content::U64(u64::MAX));
    }
}
