//! Compact binary codec for value tuples.
//!
//! Key-value stores hold opaque byte payloads; the mediator serializes the
//! value columns of a fragment record into one buffer on `put` and decodes
//! on `get`. The format is a tag byte per value followed by a fixed or
//! length-prefixed body — small and allocation-light, mirroring how real
//! deployments pack records into Redis/Voldemort values.

use estocada_pivot::Value;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Decoding failure (corrupt or truncated buffer).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Human-readable reason.
    pub reason: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.reason)
    }
}

impl std::error::Error for DecodeError {}

const TAG_NULL: u8 = 0;
const TAG_FALSE: u8 = 1;
const TAG_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_DOUBLE: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_ID: u8 = 6;
const TAG_ARRAY: u8 = 7;
const TAG_OBJECT: u8 = 8;

/// Encode a tuple of values into one buffer.
pub fn encode_tuple(values: &[Value]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 * values.len());
    put_len(&mut buf, values.len());
    for v in values {
        encode_value(v, &mut buf);
    }
    buf
}

/// Decode a tuple previously written by [`encode_tuple`].
pub fn decode_tuple(mut buf: &[u8]) -> Result<Vec<Value>, DecodeError> {
    let n = take_len(&mut buf).map_err(|_| DecodeError {
        reason: "missing tuple header",
    })?;
    let mut out = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        out.push(decode_value(&mut buf)?);
    }
    if !buf.is_empty() {
        return Err(DecodeError {
            reason: "trailing bytes",
        });
    }
    Ok(out)
}

/// Lengths and counts are little-endian `u32`s.
fn put_len(buf: &mut Vec<u8>, n: usize) {
    buf.extend_from_slice(&(n as u32).to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_len(buf, s.len());
    buf.extend_from_slice(s.as_bytes());
}

fn encode_value(v: &Value, buf: &mut Vec<u8>) {
    match v {
        Value::Null => buf.push(TAG_NULL),
        Value::Bool(false) => buf.push(TAG_FALSE),
        Value::Bool(true) => buf.push(TAG_TRUE),
        Value::Int(i) => {
            buf.push(TAG_INT);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Double(d) => {
            buf.push(TAG_DOUBLE);
            buf.extend_from_slice(&d.to_le_bytes());
        }
        Value::Str(s) => {
            buf.push(TAG_STR);
            put_str(buf, s);
        }
        Value::Id(i) => {
            buf.push(TAG_ID);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Value::Array(items) => {
            buf.push(TAG_ARRAY);
            put_len(buf, items.len());
            for item in items.iter() {
                encode_value(item, buf);
            }
        }
        Value::Object(fields) => {
            buf.push(TAG_OBJECT);
            put_len(buf, fields.len());
            for (k, fv) in fields.iter() {
                put_str(buf, k);
                encode_value(fv, buf);
            }
        }
    }
}

/// Split the next `n` bytes off the front of the cursor.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], DecodeError> {
    if buf.len() < n {
        return Err(DecodeError {
            reason: "truncated body",
        });
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn take_array<const N: usize>(buf: &mut &[u8]) -> Result<[u8; N], DecodeError> {
    let mut out = [0; N];
    out.copy_from_slice(take(buf, N)?);
    Ok(out)
}

fn take_len(buf: &mut &[u8]) -> Result<usize, DecodeError> {
    Ok(u32::from_le_bytes(take_array(buf)?) as usize)
}

fn take_str<'a>(buf: &mut &'a [u8]) -> Result<&'a str, DecodeError> {
    let n = take_len(buf)?;
    std::str::from_utf8(take(buf, n)?).map_err(|_| DecodeError {
        reason: "invalid utf-8",
    })
}

fn decode_value(buf: &mut &[u8]) -> Result<Value, DecodeError> {
    let [tag] = take_array(buf).map_err(|_| DecodeError {
        reason: "missing tag",
    })?;
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_INT => Ok(Value::Int(i64::from_le_bytes(take_array(buf)?))),
        TAG_DOUBLE => Ok(Value::Double(f64::from_le_bytes(take_array(buf)?))),
        TAG_ID => Ok(Value::Id(u64::from_le_bytes(take_array(buf)?))),
        TAG_STR => Ok(Value::str(take_str(buf)?)),
        TAG_ARRAY => {
            let n = take_len(buf)?;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(decode_value(buf)?);
            }
            Ok(Value::Array(Arc::new(items)))
        }
        TAG_OBJECT => {
            let n = take_len(buf)?;
            let mut fields = BTreeMap::new();
            for _ in 0..n {
                let k: Arc<str> = take_str(buf)?.into();
                fields.insert(k, decode_value(buf)?);
            }
            Ok(Value::Object(Arc::new(fields)))
        }
        _ => Err(DecodeError {
            reason: "unknown tag",
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(values: Vec<Value>) {
        let buf = encode_tuple(&values);
        let back = decode_tuple(&buf).unwrap();
        assert_eq!(values, back);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(vec![
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Double(2.75),
            Value::str("héllo"),
            Value::Id(7),
        ]);
    }

    #[test]
    fn nested_round_trip() {
        round_trip(vec![Value::object([
            ("items", Value::array([Value::Int(1), Value::str("x")])),
            ("user", Value::object([("id", Value::Int(3))])),
        ])]);
    }

    #[test]
    fn empty_tuple_round_trips() {
        round_trip(vec![]);
    }

    #[test]
    fn truncated_buffer_errors() {
        let buf = encode_tuple(&[Value::Int(1)]);
        assert!(decode_tuple(&buf[..buf.len() - 1]).is_err());
        assert!(decode_tuple(&buf[..2]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut v = encode_tuple(&[Value::Int(1)]).to_vec();
        v.push(0);
        assert!(decode_tuple(&v).is_err());
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut v = encode_tuple(&[Value::Int(1)]).to_vec();
        v[4] = 99; // clobber the tag
        assert!(decode_tuple(&v).is_err());
    }
}
