//! Trace records and their JSON-lines codec.
//!
//! Experiments can persist their request streams and replay them, so
//! analytic and simulated runs see byte-identical workloads. The binary
//! format for long traces is [`crate::events`] (`.events`); this module
//! holds the [`TraceRecord`] both formats carry and the **JSON lines**
//! codec for human inspection — greppable, diffable, slow. It is
//! hand-rolled (four flat numeric fields) so the workspace carries no
//! JSON dependency.

use crate::catalog::ItemId;
use std::io::{self, BufRead, Write};

/// One request in a trace.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceRecord {
    /// Request time (seconds).
    pub time: f64,
    /// Issuing client.
    pub client: u32,
    /// Referenced item.
    pub item: ItemId,
    /// Item size (size-units).
    pub size: f64,
}

impl TraceRecord {
    pub fn new(time: f64, client: u32, item: ItemId, size: f64) -> Self {
        TraceRecord { time, client, item, size }
    }

    /// Renders the record as one JSON object (field order fixed; floats in
    /// Rust `{:?}` form, which always carries a decimal point or exponent).
    fn to_json(self) -> String {
        format!(
            "{{\"time\":{:?},\"client\":{},\"item\":{},\"size\":{:?}}}",
            self.time, self.client, self.item.0, self.size
        )
    }

    /// Parses one JSON object with exactly the four record fields, in any
    /// order, with optional whitespace. Duplicate fields are rejected: a
    /// record like `{"time":1.0,"time":2.0,...}` is corrupt input, not a
    /// last-wins override.
    fn from_json(s: &str) -> Result<Self, String> {
        let body = s
            .trim()
            .strip_prefix('{')
            .and_then(|r| r.strip_suffix('}'))
            .ok_or_else(|| format!("not a JSON object: {s:?}"))?;
        let (mut time, mut client, mut item, mut size) = (None, None, None, None);
        fn set<T>(slot: &mut Option<T>, value: T, key: &str) -> Result<(), String> {
            if slot.is_some() {
                return Err(format!("duplicate field {key:?}"));
            }
            *slot = Some(value);
            Ok(())
        }
        for field in body.split(',') {
            let (key, value) =
                field.split_once(':').ok_or_else(|| format!("malformed field: {field:?}"))?;
            let key = key
                .trim()
                .strip_prefix('"')
                .and_then(|k| k.strip_suffix('"'))
                .ok_or_else(|| format!("malformed key: {key:?}"))?;
            let value = value.trim();
            match key {
                "time" => set(&mut time, value.parse::<f64>().map_err(|e| e.to_string())?, key)?,
                "client" => {
                    set(&mut client, value.parse::<u32>().map_err(|e| e.to_string())?, key)?
                }
                "item" => set(&mut item, value.parse::<u64>().map_err(|e| e.to_string())?, key)?,
                "size" => set(&mut size, value.parse::<f64>().map_err(|e| e.to_string())?, key)?,
                other => return Err(format!("unknown field {other:?}")),
            }
        }
        Ok(TraceRecord {
            time: time.ok_or("missing field \"time\"")?,
            client: client.ok_or("missing field \"client\"")?,
            item: ItemId(item.ok_or("missing field \"item\"")?),
            size: size.ok_or("missing field \"size\"")?,
        })
    }
}

/// Streams records as JSON lines.
pub struct TraceWriter<W: Write> {
    out: W,
    written: usize,
}

impl<W: Write> TraceWriter<W> {
    pub fn new(out: W) -> Self {
        TraceWriter { out, written: 0 }
    }

    /// Writes one record as a JSON line. Non-finite time or size is an
    /// error: `{:?}` would render `inf`/`NaN`, which is not JSON (and
    /// diverges from `simcore::json::render`, which nulls non-finite).
    pub fn write(&mut self, rec: &TraceRecord) -> io::Result<()> {
        if !rec.time.is_finite() {
            return Err(io::Error::other(format!("non-finite time {:?}", rec.time)));
        }
        if !rec.size.is_finite() {
            return Err(io::Error::other(format!("non-finite size {:?}", rec.size)));
        }
        self.out.write_all(rec.to_json().as_bytes())?;
        self.out.write_all(b"\n")?;
        self.written += 1;
        Ok(())
    }

    pub fn written(&self) -> usize {
        self.written
    }

    pub fn into_inner(self) -> W {
        self.out
    }
}

/// Reads JSON-lines records.
pub struct TraceReader<R: BufRead> {
    input: R,
    line: String,
}

impl<R: BufRead> TraceReader<R> {
    pub fn new(input: R) -> Self {
        TraceReader { input, line: String::new() }
    }

    /// Next record; `Ok(None)` at end of input.
    pub fn read(&mut self) -> io::Result<Option<TraceRecord>> {
        loop {
            self.line.clear();
            if self.input.read_line(&mut self.line)? == 0 {
                return Ok(None);
            }
            let trimmed = self.line.trim();
            if trimmed.is_empty() {
                continue;
            }
            return TraceRecord::from_json(trimmed).map(Some).map_err(io::Error::other);
        }
    }

    /// Reads all remaining records.
    pub fn read_all(&mut self) -> io::Result<Vec<TraceRecord>> {
        let mut out = Vec::new();
        while let Some(rec) = self.read()? {
            out.push(rec);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<TraceRecord> {
        vec![
            TraceRecord::new(0.5, 0, ItemId(10), 1.5),
            TraceRecord::new(1.25, 3, ItemId(7), 0.25),
            TraceRecord::new(2.0, 1, ItemId(u64::MAX), 100.0),
        ]
    }

    #[test]
    fn json_roundtrip() {
        let records = sample_records();
        let mut writer = TraceWriter::new(Vec::new());
        for r in &records {
            writer.write(r).unwrap();
        }
        assert_eq!(writer.written(), 3);
        let bytes = writer.into_inner();
        let mut reader = TraceReader::new(&bytes[..]);
        let back = reader.read_all().unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn json_skips_blank_lines() {
        let text = "\n{\"time\":1.0,\"client\":2,\"item\":3,\"size\":4.0}\n\n";
        let mut reader = TraceReader::new(text.as_bytes());
        let recs = reader.read_all().unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].item, ItemId(3));
    }

    #[test]
    fn json_accepts_reordered_fields_and_whitespace() {
        let text = "{ \"size\": 4.0, \"item\": 3, \"client\": 2, \"time\": 1.0 }\n";
        let mut reader = TraceReader::new(text.as_bytes());
        let recs = reader.read_all().unwrap();
        assert_eq!(recs, vec![TraceRecord::new(1.0, 2, ItemId(3), 4.0)]);
    }

    #[test]
    fn json_rejects_garbage() {
        let mut reader = TraceReader::new("not json\n".as_bytes());
        assert!(reader.read().is_err());
        let mut reader = TraceReader::new("{\"time\":1.0}\n".as_bytes());
        assert!(reader.read().is_err(), "missing fields must error");
    }

    #[test]
    fn json_write_rejects_non_finite_time() {
        let mut writer = TraceWriter::new(Vec::new());
        let rec = TraceRecord::new(f64::INFINITY, 0, ItemId(1), 1.0);
        let err = writer.write(&rec).unwrap_err();
        assert!(err.to_string().contains("non-finite time"), "{err}");
        assert_eq!(writer.written(), 0);
        assert!(writer.into_inner().is_empty(), "nothing may reach the sink");
    }

    #[test]
    fn json_write_rejects_nan_size() {
        let mut writer = TraceWriter::new(Vec::new());
        let rec = TraceRecord::new(1.0, 0, ItemId(1), f64::NAN);
        let err = writer.write(&rec).unwrap_err();
        assert!(err.to_string().contains("non-finite size"), "{err}");
        assert_eq!(writer.written(), 0);
    }

    #[test]
    fn json_rejects_duplicate_fields() {
        let text = "{\"time\":1.0,\"time\":2.0,\"client\":2,\"item\":3,\"size\":4.0}\n";
        let mut reader = TraceReader::new(text.as_bytes());
        let err = reader.read().unwrap_err();
        assert!(err.to_string().contains("duplicate field \"time\""), "{err}");
        let text = "{\"time\":1.0,\"client\":2,\"item\":3,\"size\":4.0,\"size\":4.0}\n";
        let mut reader = TraceReader::new(text.as_bytes());
        let err = reader.read().unwrap_err();
        assert!(err.to_string().contains("duplicate field \"size\""), "{err}");
    }
}
