//! Outside-in stage trace: one span per call the driver makes into a
//! layer, kept in memory and written out when the run ends.
//!
//! A span is (name, start, end, causing span, batch seq). The *causing*
//! span is the call whose output produced the frame this call consumes —
//! following `cause` backwards from a `client.on_message` span walks a
//! receipt back through reply → commit → prepare → pre-prepare → request
//! → `client.submit`. Spans nest by time (one thread): a layer's **self
//! time** is its span's duration minus the part its child spans cover.

use std::io::Write as _;
use std::time::Instant;

/// Every span name, in the order of the trace file's `names` table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u16)]
pub enum Name {
    /// One traced commit-phase slice; parent of every other span. Its self
    /// time is the driver's own (queue, routing, bookkeeping).
    DriverSlice,
    PrimaryRequest,
    PrimaryPrepare,
    PrimaryCommit,
    PrimaryTick,
    PrimaryOther,
    BackupRequest,
    BackupPrePrepare,
    BackupPrepare,
    BackupCommit,
    BackupTick,
    BackupOther,
    ClientSubmit,
    ClientOnMessage,
    WireEncode,
    WireDecode,
}

impl Name {
    pub const ALL: [Name; 16] = [
        Name::DriverSlice,
        Name::PrimaryRequest,
        Name::PrimaryPrepare,
        Name::PrimaryCommit,
        Name::PrimaryTick,
        Name::PrimaryOther,
        Name::BackupRequest,
        Name::BackupPrePrepare,
        Name::BackupPrepare,
        Name::BackupCommit,
        Name::BackupTick,
        Name::BackupOther,
        Name::ClientSubmit,
        Name::ClientOnMessage,
        Name::WireEncode,
        Name::WireDecode,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::DriverSlice => "driver.slice",
            Name::PrimaryRequest => "core.primary.request",
            Name::PrimaryPrepare => "core.primary.prepare",
            Name::PrimaryCommit => "core.primary.commit",
            Name::PrimaryTick => "core.primary.tick",
            Name::PrimaryOther => "core.primary.other",
            Name::BackupRequest => "core.backup.request",
            Name::BackupPrePrepare => "core.backup.pre_prepare",
            Name::BackupPrepare => "core.backup.prepare",
            Name::BackupCommit => "core.backup.commit",
            Name::BackupTick => "core.backup.tick",
            Name::BackupOther => "core.backup.other",
            Name::ClientSubmit => "client.submit",
            Name::ClientOnMessage => "client.on_message",
            Name::WireEncode => "types.wire.encode",
            Name::WireDecode => "types.wire.decode",
        }
    }
}

/// One recorded span. `cause` is a span id (index + 1); 0 = the driver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: Name,
    pub start_ns: u64,
    pub end_ns: u64,
    pub cause: u32,
    pub seq: u32,
}

/// In-memory span recorder. Disabled, `open`/`close` cost one branch.
pub struct Tracer {
    pub enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a span; returns its id (0 when tracing is off).
    #[inline]
    pub fn open(&mut self, name: Name, cause: u32, seq: u64) -> u32 {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            cause,
            seq: seq as u32,
        });
        self.spans.len() as u32
    }

    /// End the span `id` (a no-op for id 0).
    #[inline]
    pub fn close(&mut self, id: u32) {
        if id != 0 {
            self.spans[id as usize - 1].end_ns = self.now_ns();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the trace as compact JSON: a `names` table and one
    /// `[name, start_ns, end_ns, cause, seq]` row per span, in start order.
    pub fn write_json(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(w, "{{{header}, \"time_unit\": \"ns\", \"names\": [")?;
        for (i, n) in Name::ALL.iter().enumerate() {
            write!(w, "{}\"{}\"", if i > 0 { ", " } else { "" }, n.as_str())?;
        }
        write!(
            w,
            "], \"columns\": [\"name\", \"start_ns\", \"end_ns\", \"cause\", \"seq\"], "
        )?;
        writeln!(w, "\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                w,
                "[{},{},{},{},{}]{comma}",
                s.name as u16, s.start_ns, s.end_ns, s.cause, s.seq
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Self time of every span: its duration minus the time covered by its
/// direct children. `spans` must be in start order (as recorded) and
/// properly nested (one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    let mut open: Vec<usize> = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        while open.last().is_some_and(|&p| spans[p].end_ns <= s.start_ns) {
            open.pop();
        }
        if let Some(&parent) = open.last() {
            own[parent] = own[parent].saturating_sub(s.end_ns - s.start_ns);
        }
        open.push(i);
    }
    own
}

/// Total self time per span name, indexed by `Name as usize`.
pub fn self_time_by_name(spans: &[Span]) -> [u64; Name::ALL.len()] {
    let mut total = [0u64; Name::ALL.len()];
    for (s, own) in spans.iter().zip(self_times(spans)) {
        total[s.name as usize] += own;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: Name, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            cause: 0,
            seq: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // slice [0,100] ⊃ request [10,40] ⊃ decode [15,25]; encode [50,70]
        // is a sibling of request; a second slice [100,130] is childless.
        let spans = [
            span(Name::DriverSlice, 0, 100),
            span(Name::PrimaryRequest, 10, 40),
            span(Name::WireDecode, 15, 25),
            span(Name::WireEncode, 50, 70),
            span(Name::DriverSlice, 100, 130),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20, 30]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name[Name::DriverSlice as usize], 80);
        assert_eq!(by_name[Name::PrimaryRequest as usize], 20);
        assert_eq!(by_name[Name::WireDecode as usize], 10);
        assert_eq!(by_name[Name::WireEncode as usize], 20);
        // Self times partition the root spans' wall time exactly.
        assert_eq!(by_name.iter().sum::<u64>(), 130);
    }

    #[test]
    fn back_to_back_children_do_not_nest() {
        let spans = [
            span(Name::DriverSlice, 0, 30),
            span(Name::WireDecode, 0, 10),
            span(Name::BackupPrepare, 10, 30),
        ];
        assert_eq!(self_times(&spans), vec![0, 10, 20]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let id = t.open(Name::WireEncode, 0, 0);
        t.close(id);
        assert_eq!(id, 0);
        assert!(t.spans().is_empty());
        t.enabled = true;
        let a = t.open(Name::DriverSlice, 0, 0);
        let b = t.open(Name::WireEncode, a, 7);
        t.close(b);
        t.close(a);
        assert_eq!((a, b), (1, 2));
        assert_eq!(t.spans()[1].cause, 1);
        assert_eq!(t.spans()[1].seq, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }

    #[test]
    fn names_table_matches_discriminants() {
        for (i, n) in Name::ALL.iter().enumerate() {
            assert_eq!(*n as usize, i);
        }
    }
}
