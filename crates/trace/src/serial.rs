//! Trace (de)serialization: one JSON object per interval, newline
//! delimited — easy to inspect, diff and replay.

use crate::event::{ReplayTrace, TraceEvent, TraceSource};
use std::io::{self, BufRead, Write};

/// Writes a trace source as JSON lines (one array of events per
/// interval) to `writer`.
///
/// A `&mut` reference can be passed for `writer` (see
/// [`std::io::Write`]'s blanket impl for `&mut W`).
///
/// # Errors
///
/// Returns any I/O or serialization error.
///
/// ```
/// use mem_trace::{read_jsonl, write_jsonl, ReplayTrace, TraceEvent};
/// use dram_sim::{BankId, RowAddr};
///
/// # fn main() -> std::io::Result<()> {
/// let trace = ReplayTrace::new(vec![vec![TraceEvent::benign(BankId(0), RowAddr(1))], vec![]]);
/// let mut buffer = Vec::new();
/// write_jsonl(trace, &mut buffer)?;
/// let replay = read_jsonl(buffer.as_slice())?;
/// let stats = mem_trace::TraceStats::collect(replay);
/// assert_eq!(stats.total_activations, 1);
/// assert_eq!(stats.intervals, 2);
/// # Ok(())
/// # }
/// ```
pub fn write_jsonl<S, W>(mut source: S, mut writer: W) -> io::Result<()>
where
    S: TraceSource,
    W: Write,
{
    let mut events: Vec<TraceEvent> = Vec::new();
    loop {
        events.clear();
        if !source.next_interval(&mut events) {
            return Ok(());
        }
        serde_json::to_writer(&mut writer, &events)?;
        writer.write_all(b"\n")?;
    }
}

/// Reads a JSON-lines trace back into a [`ReplayTrace`].
///
/// A `&mut` reference can be passed for `reader`.
///
/// # Errors
///
/// Returns any I/O error, or an [`io::ErrorKind::InvalidData`] error if a
/// line is not a valid event array.
pub fn read_jsonl<R: BufRead>(reader: R) -> io::Result<ReplayTrace> {
    let mut intervals = Vec::new();
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let events: Vec<TraceEvent> = serde_json::from_str(&line)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        intervals.push(events);
    }
    Ok(ReplayTrace::new(intervals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dram_sim::{BankId, RowAddr};

    #[test]
    fn roundtrip_preserves_events_and_interval_boundaries() {
        let intervals = vec![
            vec![
                TraceEvent::benign(BankId(0), RowAddr(1)),
                TraceEvent::attack(BankId(1), RowAddr(9)),
            ],
            vec![],
            vec![TraceEvent::benign(BankId(0), RowAddr(2))],
        ];
        let mut buffer = Vec::new();
        write_jsonl(ReplayTrace::new(intervals.clone()), &mut buffer).unwrap();

        let mut replay = read_jsonl(buffer.as_slice()).unwrap();
        let mut out = Vec::new();
        let mut got = Vec::new();
        while {
            out.clear();
            replay.next_interval(&mut out)
        } {
            got.push(out.clone());
        }
        assert_eq!(got, intervals);
    }

    #[test]
    fn invalid_line_is_rejected() {
        let err = read_jsonl("not json\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn deeply_nested_line_is_rejected_without_overflowing_the_stack() {
        // The JSON parser recurses once per nesting level: without its
        // depth cap, this line overflows the stack and aborts.
        let line = "[".repeat(100_000);
        let err = read_jsonl(line.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let replay = read_jsonl("\n\n[]\n".as_bytes()).unwrap();
        assert_eq!(replay.intervals_hint(), Some(1));
    }
}
