//! Packet traces: recorded input sequences with a tiny line-based file
//! format (no serializer dependency).

use cioq_model::{ModelError, Packet, PacketId, PortId, SlotId, SwitchConfig, Value};
use std::io::{self, BufRead, Write};

/// An input sequence σ: packets sorted by arrival slot, the order *within*
/// a slot being the arrival order of the paper's arrival phase (ids are
/// assigned in that order and strictly increase through the trace).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    packets: Vec<Packet>,
}

/// Errors when reading a trace file.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A malformed line (1-based line number and description).
    Parse(usize, String),
    /// Semantically invalid trace (unsorted, bad ports, ...).
    Model(ModelError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace io error: {e}"),
            TraceError::Parse(line, msg) => write!(f, "trace parse error at line {line}: {msg}"),
            TraceError::Model(e) => write!(f, "trace invalid: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> Self {
        TraceError::Io(e)
    }
}

impl Trace {
    /// Build a trace from `(slot, input, output, value)` tuples; sorts
    /// stably by slot (preserving intra-slot arrival order) and assigns ids.
    pub fn from_tuples(tuples: impl IntoIterator<Item = (SlotId, PortId, PortId, Value)>) -> Self {
        let mut raw: Vec<_> = tuples.into_iter().collect();
        raw.sort_by_key(|&(slot, ..)| slot);
        let packets = raw
            .into_iter()
            .enumerate()
            .map(|(id, (slot, input, output, value))| {
                Packet::new(PacketId(id as u64), value, slot, input, output)
            })
            .collect();
        Trace { packets }
    }

    /// Wrap already-built packets. Returns an error if they are not sorted
    /// by arrival slot.
    pub fn from_packets(packets: Vec<Packet>) -> Result<Self, ModelError> {
        let mut seen: SlotId = 0;
        for p in &packets {
            if p.arrival < seen {
                return Err(ModelError::UnsortedTrace {
                    slot: p.arrival,
                    seen,
                });
            }
            seen = p.arrival;
        }
        Ok(Trace { packets })
    }

    /// All packets in arrival order.
    #[inline]
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Number of packets.
    #[inline]
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the trace is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Total offered value.
    pub fn total_value(&self) -> u128 {
        self.packets.iter().map(|p| p.value as u128).sum()
    }

    /// Last arrival slot (`None` for an empty trace).
    pub fn last_slot(&self) -> Option<SlotId> {
        self.packets.last().map(|p| p.arrival)
    }

    /// Number of arrival slots needed to play the whole trace.
    pub fn arrival_slots(&self) -> SlotId {
        self.last_slot().map_or(0, |s| s + 1)
    }

    /// Validate every packet against a switch configuration.
    pub fn validate_for(&self, config: &SwitchConfig) -> Result<(), ModelError> {
        self.packets
            .iter()
            .try_for_each(|p| config.validate_packet(p))
    }

    /// Write the trace in the `cioq-trace v1` line format:
    /// a header, then one `slot input output value` line per packet.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        writeln!(w, "cioq-trace v1 {}", self.packets.len())?;
        for p in &self.packets {
            writeln!(w, "{} {} {} {}", p.arrival, p.input.0, p.output.0, p.value)?;
        }
        Ok(())
    }

    /// Read a trace written by [`Self::write_to`], through
    /// [`TraceReader`]'s line loop. The header's packet count says how many
    /// lines to expect, never how much to reserve.
    pub fn read_from(r: &mut impl BufRead) -> Result<Self, TraceError> {
        let mut reader = TraceReader::new(r)?;
        let mut tuples = Vec::new();
        while let Some(tuple) = reader.next_line()? {
            tuples.push(tuple);
        }
        // from_tuples sorts stably by slot, so a hand-edited file keeps its
        // intra-slot order.
        Ok(Trace::from_tuples(tuples))
    }
}

/// Parse the `cioq-trace v1 <count>` header line; returns the count.
fn read_header(r: &mut impl BufRead) -> Result<usize, TraceError> {
    let mut header = String::new();
    r.read_line(&mut header)?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("cioq-trace") || parts.next() != Some("v1") {
        return Err(TraceError::Parse(1, "bad header".into()));
    }
    parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| TraceError::Parse(1, "bad packet count".into()))
}

/// Parse one `slot input output value` line. A port that does not fit a
/// [`PortId`] or a zero value is a parse error here — `PortId::from` and
/// `Packet::new` only `debug_assert` those, and a release build would
/// silently wrap the port onto another one.
fn parse_line(line: &str, lineno: usize) -> Result<(SlotId, PortId, PortId, Value), TraceError> {
    let mut f = line.split_whitespace();
    let mut field = |what: &str| -> Result<u64, TraceError> {
        f.next()
            .and_then(|x| x.parse().ok())
            .ok_or_else(|| TraceError::Parse(lineno, format!("bad {what}")))
    };
    let slot = field("slot")?;
    let mut port = |what: &str| -> Result<PortId, TraceError> {
        let x = field(what)?;
        let port = u16::try_from(x)
            .map_err(|_| TraceError::Parse(lineno, format!("{what} port {x} out of range")))?;
        Ok(PortId(port))
    };
    let (input, output) = (port("input")?, port("output")?);
    let value = field("value")?;
    if value == 0 {
        return Err(TraceError::Parse(lineno, "packet of value 0".into()));
    }
    Ok((slot, input, output, value))
}

/// Incremental reader over the `cioq-trace v1` line format: yields one
/// packet at a time without materialising the trace, for streaming replay
/// (its [`Iterator`] is what [`crate::stream::replay`] feeds). Unlike
/// [`Trace::read_from`] it cannot sort, so an out-of-order file is an
/// error.
#[derive(Debug)]
pub struct TraceReader<R> {
    r: R,
    remaining: usize,
    lineno: usize,
    next_id: u64,
    prev_slot: SlotId,
    line: String,
}

impl<R: BufRead> TraceReader<R> {
    /// Parse the header and position the reader at the first packet line.
    pub fn new(mut r: R) -> Result<Self, TraceError> {
        let remaining = read_header(&mut r)?;
        Ok(TraceReader {
            r,
            remaining,
            lineno: 1,
            next_id: 0,
            prev_slot: 0,
            line: String::new(),
        })
    }

    /// Packets not yet read.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Read the next packet, or `None` at the end of the trace. Ids are
    /// assigned in file order, matching [`Trace::from_tuples`] on a
    /// sorted file.
    pub fn next_packet(&mut self) -> Result<Option<Packet>, TraceError> {
        let Some((slot, input, output, value)) = self.next_line()? else {
            return Ok(None);
        };
        if slot < self.prev_slot {
            return Err(TraceError::Model(ModelError::UnsortedTrace {
                slot,
                seen: self.prev_slot,
            }));
        }
        self.prev_slot = slot;
        let id = self.next_id;
        self.next_id += 1;
        Ok(Some(Packet::new(PacketId(id), value, slot, input, output)))
    }

    /// Read and parse the next `slot input output value` line, or `None`
    /// once the header's count of lines is read; a file that ends sooner
    /// is an error.
    fn next_line(&mut self) -> Result<Option<(SlotId, PortId, PortId, Value)>, TraceError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.lineno += 1;
        self.line.clear();
        if self.r.read_line(&mut self.line)? == 0 {
            return Err(TraceError::Parse(
                self.lineno,
                "unexpected end of file".into(),
            ));
        }
        let tuple = parse_line(&self.line, self.lineno)?;
        self.remaining -= 1;
        Ok(Some(tuple))
    }
}

/// A replay file's packets for [`crate::stream::feed`]: a malformed line
/// panics, as [`TraceReader::next_packet`] would return its error.
impl<R: BufRead> Iterator for TraceReader<R> {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        self.next_packet()
            .unwrap_or_else(|e| panic!("replay stream: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_tuples_sorts_and_assigns_ids() {
        let t = Trace::from_tuples([
            (2, PortId(0), PortId(1), 5),
            (0, PortId(1), PortId(0), 3),
            (0, PortId(0), PortId(0), 4),
        ]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.packets()[0].arrival, 0);
        assert_eq!(
            t.packets()[0].value,
            3,
            "stable sort keeps intra-slot order"
        );
        assert_eq!(t.packets()[2].arrival, 2);
        let ids: Vec<_> = t.packets().iter().map(|p| p.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(t.arrival_slots(), 3);
        assert_eq!(t.total_value(), 12);
    }

    #[test]
    fn from_packets_rejects_unsorted() {
        let p0 = Packet::new(PacketId(0), 1, 5, PortId(0), PortId(0));
        let p1 = Packet::new(PacketId(1), 1, 3, PortId(0), PortId(0));
        assert!(Trace::from_packets(vec![p0, p1]).is_err());
    }

    #[test]
    fn file_roundtrip() {
        let t = Trace::from_tuples([
            (0, PortId(0), PortId(1), 5),
            (1, PortId(1), PortId(0), 1),
            (7, PortId(2), PortId(2), 9),
        ]);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let back = Trace::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn read_rejects_garbage() {
        let mut bad = "not-a-trace\n".as_bytes();
        assert!(matches!(
            Trace::read_from(&mut bad),
            Err(TraceError::Parse(1, _))
        ));
        let mut truncated = "cioq-trace v1 2\n0 0 0 1\n".as_bytes();
        assert!(matches!(
            Trace::read_from(&mut truncated),
            Err(TraceError::Parse(3, _))
        ));
    }

    #[test]
    fn validate_for_checks_ports() {
        let t = Trace::from_tuples([(0, PortId(5), PortId(0), 1)]);
        let cfg = SwitchConfig::cioq(2, 4, 1);
        assert!(t.validate_for(&cfg).is_err());
    }

    #[test]
    fn incremental_reader_matches_bulk_read() {
        let t = Trace::from_tuples([
            (0, PortId(0), PortId(1), 5),
            (1, PortId(1), PortId(0), 1),
            (7, PortId(2), PortId(2), 9),
        ]);
        let mut buf = Vec::new();
        t.write_to(&mut buf).unwrap();
        let mut rd = TraceReader::new(buf.as_slice()).unwrap();
        assert_eq!(rd.remaining(), 3);
        let mut got = Vec::new();
        while let Some(p) = rd.next_packet().unwrap() {
            got.push(p);
        }
        assert_eq!(got, t.packets());
        assert_eq!(rd.remaining(), 0);
    }

    #[test]
    fn incremental_reader_rejects_unsorted_files() {
        let file = "cioq-trace v1 2\n5 0 0 1\n3 0 0 1\n";
        let mut rd = TraceReader::new(file.as_bytes()).unwrap();
        assert!(rd.next_packet().unwrap().is_some());
        assert!(matches!(
            rd.next_packet(),
            Err(TraceError::Model(ModelError::UnsortedTrace { .. }))
        ));
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.arrival_slots(), 0);
        assert_eq!(t.last_slot(), None);
    }

    /// Hostile files: both readers answer `Err`, never a panic, a wrapped
    /// port or a reservation sized by the header.
    #[test]
    fn hostile_files_are_errors_from_both_readers() {
        fn drain(file: &str) -> Result<(), TraceError> {
            let mut rd = TraceReader::new(file.as_bytes())?;
            while rd.next_packet()?.is_some() {}
            Ok(())
        }
        let huge_count = format!("cioq-trace v1 {}\n0 0 0 1\n", usize::MAX);
        let cases = [
            (huge_count.as_str(), 3, "end of file"),
            ("cioq-trace v1 1\n0 65536 0 1\n", 2, "input port 65536"),
            ("cioq-trace v1 1\n0 0 65536 1\n", 2, "output port 65536"),
            ("cioq-trace v1 1\n0 0 0 0\n", 2, "value 0"),
        ];
        for (file, line, why) in cases {
            for err in [
                Trace::read_from(&mut file.as_bytes()).unwrap_err(),
                drain(file).unwrap_err(),
            ] {
                match err {
                    TraceError::Parse(at, msg) => {
                        assert_eq!(at, line, "{file:?}");
                        assert!(msg.contains(why), "{file:?}: {msg}");
                    }
                    other => panic!("{file:?}: expected a parse error, got {other}"),
                }
            }
        }
    }
}
