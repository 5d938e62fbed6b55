//! Structured event tracing: the simulator's observability event bus.
//!
//! The paper's argument is temporal — drain epochs periodically sweep
//! blocked packets out of cyclic waits — but aggregate statistics cannot
//! show an epoch happening. This module adds a typed event stream to the
//! core: every inject, VC allocation, link traversal, ejection, drain-epoch
//! boundary, forced hop, SPIN probe/spin, deadlock conviction and invariant
//! violation can be emitted as a [`TraceEvent`].
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero cost when disabled.** The hot paths guard every emission
//!    behind a single `bool` load ([`Tracer::enabled`]); events are only
//!    constructed behind the guard, so a run with tracing off pays one
//!    predictable branch per would-be event.
//! 2. **Bounded memory.** Events always land in a ring buffer of
//!    [`TraceConfig::ring_capacity`] entries (the flight recorder's "last N
//!    events" window), and optionally stream to a [`TraceSink`].
//! 3. **One flat JSON line per event.** [`TraceEvent::to_jsonl`] writes
//!    integers, bools and strings in a fixed field order (byte-stable);
//!    [`TraceEvent::parse_jsonl`] reads a line back through the crate's
//!    one JSON reader, [`crate::json`], whose exact `u64` path keeps
//!    64-bit seeds and cycles exact. Every variant round-trips.
//!
//! The **flight recorder** ([`flight_record`]) turns the ring buffer into a
//! post-mortem artifact: when a run dies (invariant violation, watchdog
//! trip, structural deadlock conviction), the driver dumps a JSONL file —
//! header, full VC-occupancy snapshot, then the last events, violation
//! last — into [`TraceConfig::flightrec_dir`], carrying the replayable
//! seed.

use std::collections::VecDeque;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::check::ViolationKind;
use crate::json::{self, escape_into, Json};
use crate::mechanism::ForcedKind;
use crate::state::SimCore;

/// Observability knobs, stored in [`crate::SimConfig::trace`].
///
/// Everything is off by default; enabling `events` alone gives ring-buffer
/// capture (enough for the flight recorder), installing a sink via
/// [`crate::Sim::set_trace_sink`] additionally streams every event out.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceConfig {
    /// Emit [`TraceEvent`]s into the ring buffer (and the sink, if any).
    pub events: bool,
    /// Ring-buffer capacity in events (the flight recorder's window).
    pub ring_capacity: usize,
    /// Telemetry sampling period in cycles (0 disables the sampler; see
    /// [`crate::telemetry`]).
    pub telemetry_period: u64,
    /// Maximum telemetry samples kept in memory (oldest dropped first).
    pub telemetry_capacity: usize,
    /// Directory for flight-recorder dumps; `None` disables the recorder.
    pub flightrec_dir: Option<PathBuf>,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            events: false,
            ring_capacity: 4096,
            telemetry_period: 0,
            telemetry_capacity: 4096,
            flightrec_dir: None,
        }
    }
}

impl TraceConfig {
    /// Event tracing on (ring capture), everything else default.
    pub fn events_on() -> Self {
        TraceConfig {
            events: true,
            ..TraceConfig::default()
        }
    }

    /// Enables the telemetry sampler at the given cadence.
    pub fn with_telemetry(mut self, period: u64) -> Self {
        self.telemetry_period = period;
        self
    }

    /// Enables the flight recorder, dumping into `dir` on failure.
    pub fn with_flight_recorder(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flightrec_dir = Some(dir.into());
        self
    }
}

/// One structured simulator event.
///
/// Every variant is flat (integers plus short strings) so the JSONL codec
/// stays trivial and byte-stable: identical runs serialize to identical
/// bytes, which the golden-trace regression test relies on.
#[derive(Clone, PartialEq, Debug)]
pub enum TraceEvent {
    /// A packet won injection allocation and entered the network.
    Inject {
        /// Cycle of the grant.
        cycle: u64,
        /// Packet id (slab index; unique while live).
        pid: u32,
        /// Source node.
        src: u16,
        /// Destination node.
        dest: u16,
        /// Message class.
        class: u8,
    },
    /// A packet was allocated a downstream VC buffer.
    VcAlloc {
        /// Cycle of the grant.
        cycle: u64,
        /// Packet id.
        pid: u32,
        /// Input link whose buffer was claimed.
        link: u32,
        /// Virtual network of the claimed VC.
        vn: u8,
        /// VC index within the VN (0 = escape).
        vc: u8,
    },
    /// A packet started serializing over a link.
    LinkTraverse {
        /// Cycle the traversal started.
        cycle: u64,
        /// Packet id.
        pid: u32,
        /// Traversed link.
        link: u32,
        /// Serialized flits.
        flits: u32,
        /// Whether the hop failed to reduce distance to the destination.
        misroute: bool,
    },
    /// A packet was delivered into its destination's ejection queue.
    Eject {
        /// Cycle of delivery.
        cycle: u64,
        /// Packet id.
        pid: u32,
        /// Destination node.
        node: u16,
        /// Message class.
        class: u8,
        /// Network latency (injection → ejection, tail-inclusive).
        latency: u64,
    },
    /// A drain window began (pre-drain credit freeze entered).
    DrainEpochStart {
        /// Cycle the pre-drain freeze began.
        cycle: u64,
        /// 1-based drain-window number.
        window: u64,
        /// Whether this window is a full drain.
        full: bool,
    },
    /// A drain window completed.
    DrainEpochEnd {
        /// Cycle the window completed (normal operation resumes).
        cycle: u64,
        /// 1-based drain-window number.
        window: u64,
        /// Forced moves executed during the window.
        moved: u64,
    },
    /// One forced one-hop movement (drain step or spin).
    ForcedHop {
        /// Cycle of the forced move.
        cycle: u64,
        /// Packet id.
        pid: u32,
        /// Link the packet was forced across.
        link: u32,
        /// Why the move was forced.
        kind: ForcedKind,
        /// Whether the hop failed to reduce distance to the destination.
        misroute: bool,
    },
    /// A SPIN probe advanced one hop along the wait-for chain.
    Probe {
        /// Cycle of the probe hop.
        cycle: u64,
        /// Router the probe head sits at.
        router: u16,
        /// Probe path length so far (1 = just launched).
        len: u32,
    },
    /// SPIN closed a cycle and spun the packets on it.
    Spin {
        /// Cycle of the spin.
        cycle: u64,
        /// Packets moved by the spin.
        moves: u32,
    },
    /// The structural detector convicted a set of VCs as deadlocked.
    DeadlockConviction {
        /// Cycle of the detector sweep.
        cycle: u64,
        /// Number of deadlocked VCs.
        convicted: u32,
        /// First convicted VC's input link.
        link: u32,
        /// First convicted VC's virtual network.
        vn: u8,
        /// First convicted VC's VC index.
        vc: u8,
    },
    /// The progress watchdog tripped.
    WatchdogTrip {
        /// Cycle of the trip.
        cycle: u64,
        /// Cycles without packet movement at the trip.
        idle: u64,
    },
    /// A runtime invariant check failed (see [`crate::check`]).
    InvariantViolation {
        /// Cycle of the failed check.
        cycle: u64,
        /// Which invariant failed.
        kind: ViolationKind,
        /// Replay seed ([`crate::SimConfig::seed`]).
        seed: u64,
        /// Human-readable description.
        detail: String,
    },
}

impl TraceEvent {
    /// The cycle the event happened at.
    pub fn cycle(&self) -> u64 {
        match *self {
            TraceEvent::Inject { cycle, .. }
            | TraceEvent::VcAlloc { cycle, .. }
            | TraceEvent::LinkTraverse { cycle, .. }
            | TraceEvent::Eject { cycle, .. }
            | TraceEvent::DrainEpochStart { cycle, .. }
            | TraceEvent::DrainEpochEnd { cycle, .. }
            | TraceEvent::ForcedHop { cycle, .. }
            | TraceEvent::Probe { cycle, .. }
            | TraceEvent::Spin { cycle, .. }
            | TraceEvent::DeadlockConviction { cycle, .. }
            | TraceEvent::WatchdogTrip { cycle, .. }
            | TraceEvent::InvariantViolation { cycle, .. } => cycle,
        }
    }

    /// Stable event-type name (the JSONL `"ev"` discriminator).
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::Inject { .. } => "inject",
            TraceEvent::VcAlloc { .. } => "vc-alloc",
            TraceEvent::LinkTraverse { .. } => "link-traverse",
            TraceEvent::Eject { .. } => "eject",
            TraceEvent::DrainEpochStart { .. } => "drain-epoch-start",
            TraceEvent::DrainEpochEnd { .. } => "drain-epoch-end",
            TraceEvent::ForcedHop { .. } => "forced-hop",
            TraceEvent::Probe { .. } => "probe",
            TraceEvent::Spin { .. } => "spin",
            TraceEvent::DeadlockConviction { .. } => "deadlock-conviction",
            TraceEvent::WatchdogTrip { .. } => "watchdog-trip",
            TraceEvent::InvariantViolation { .. } => "invariant-violation",
        }
    }

    /// Serializes the event as one flat JSON line (no trailing newline).
    ///
    /// Field order is fixed per variant, so identical events always produce
    /// identical bytes.
    pub fn to_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"ev\":\"{}\",\"cycle\":{}", self.kind_name(), self.cycle());
        match self {
            TraceEvent::Inject {
                pid, src, dest, class, ..
            } => {
                let _ = write!(s, ",\"pid\":{pid},\"src\":{src},\"dest\":{dest},\"class\":{class}");
            }
            TraceEvent::VcAlloc { pid, link, vn, vc, .. } => {
                let _ = write!(s, ",\"pid\":{pid},\"link\":{link},\"vn\":{vn},\"vc\":{vc}");
            }
            TraceEvent::LinkTraverse {
                pid,
                link,
                flits,
                misroute,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"pid\":{pid},\"link\":{link},\"flits\":{flits},\"misroute\":{misroute}"
                );
            }
            TraceEvent::Eject {
                pid,
                node,
                class,
                latency,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"pid\":{pid},\"node\":{node},\"class\":{class},\"latency\":{latency}"
                );
            }
            TraceEvent::DrainEpochStart { window, full, .. } => {
                let _ = write!(s, ",\"window\":{window},\"full\":{full}");
            }
            TraceEvent::DrainEpochEnd { window, moved, .. } => {
                let _ = write!(s, ",\"window\":{window},\"moved\":{moved}");
            }
            TraceEvent::ForcedHop {
                pid,
                link,
                kind,
                misroute,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"pid\":{pid},\"link\":{link},\"kind\":\"{}\",\"misroute\":{misroute}",
                    kind.name()
                );
            }
            TraceEvent::Probe { router, len, .. } => {
                let _ = write!(s, ",\"router\":{router},\"len\":{len}");
            }
            TraceEvent::Spin { moves, .. } => {
                let _ = write!(s, ",\"moves\":{moves}");
            }
            TraceEvent::DeadlockConviction {
                convicted,
                link,
                vn,
                vc,
                ..
            } => {
                let _ = write!(
                    s,
                    ",\"convicted\":{convicted},\"link\":{link},\"vn\":{vn},\"vc\":{vc}"
                );
            }
            TraceEvent::WatchdogTrip { idle, .. } => {
                let _ = write!(s, ",\"idle\":{idle}");
            }
            TraceEvent::InvariantViolation {
                kind, seed, detail, ..
            } => {
                let _ = write!(s, ",\"kind\":\"{}\",\"seed\":{seed},\"detail\":", kind.name());
                escape_into(detail, &mut s);
            }
        }
        s.push('}');
        s
    }

    /// Parses one line produced by [`TraceEvent::to_jsonl`]: a conversion
    /// from [`json::parse`].
    ///
    /// # Errors
    ///
    /// A description of the first syntax or schema problem. Unknown event
    /// types, missing fields and integers out of their field's range are
    /// errors; extra fields are tolerated (forward compatibility).
    pub fn parse_jsonl(line: &str) -> Result<TraceEvent, String> {
        let v = json::parse(line)?;
        let flag = |k: &str| match field(&v, k)? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("field {k:?} is not a bool")),
        };
        let text = |k: &str| {
            field(&v, k)?.as_str().ok_or_else(|| format!("field {k:?} is not a string"))
        };
        let ev = text("ev")?;
        let cycle = int(&v, "cycle")?;
        let out = match ev {
            "inject" => TraceEvent::Inject {
                cycle,
                pid: int(&v, "pid")?,
                src: int(&v, "src")?,
                dest: int(&v, "dest")?,
                class: int(&v, "class")?,
            },
            "vc-alloc" => TraceEvent::VcAlloc {
                cycle,
                pid: int(&v, "pid")?,
                link: int(&v, "link")?,
                vn: int(&v, "vn")?,
                vc: int(&v, "vc")?,
            },
            "link-traverse" => TraceEvent::LinkTraverse {
                cycle,
                pid: int(&v, "pid")?,
                link: int(&v, "link")?,
                flits: int(&v, "flits")?,
                misroute: flag("misroute")?,
            },
            "eject" => TraceEvent::Eject {
                cycle,
                pid: int(&v, "pid")?,
                node: int(&v, "node")?,
                class: int(&v, "class")?,
                latency: int(&v, "latency")?,
            },
            "drain-epoch-start" => TraceEvent::DrainEpochStart {
                cycle,
                window: int(&v, "window")?,
                full: flag("full")?,
            },
            "drain-epoch-end" => TraceEvent::DrainEpochEnd {
                cycle,
                window: int(&v, "window")?,
                moved: int(&v, "moved")?,
            },
            "forced-hop" => TraceEvent::ForcedHop {
                cycle,
                pid: int(&v, "pid")?,
                link: int(&v, "link")?,
                kind: ForcedKind::from_name(text("kind")?)
                    .ok_or_else(|| format!("unknown forced kind {:?}", text("kind")))?,
                misroute: flag("misroute")?,
            },
            "probe" => TraceEvent::Probe {
                cycle,
                router: int(&v, "router")?,
                len: int(&v, "len")?,
            },
            "spin" => TraceEvent::Spin {
                cycle,
                moves: int(&v, "moves")?,
            },
            "deadlock-conviction" => TraceEvent::DeadlockConviction {
                cycle,
                convicted: int(&v, "convicted")?,
                link: int(&v, "link")?,
                vn: int(&v, "vn")?,
                vc: int(&v, "vc")?,
            },
            "watchdog-trip" => TraceEvent::WatchdogTrip {
                cycle,
                idle: int(&v, "idle")?,
            },
            "invariant-violation" => TraceEvent::InvariantViolation {
                cycle,
                kind: ViolationKind::from_name(text("kind")?)
                    .ok_or_else(|| format!("unknown violation kind {:?}", text("kind")))?,
                seed: int(&v, "seed")?,
                detail: text("detail")?.to_string(),
            },
            other => return Err(format!("unknown event type {other:?}")),
        };
        Ok(out)
    }
}

fn field<'a>(v: &'a Json, k: &str) -> Result<&'a Json, String> {
    v.get(k).ok_or_else(|| format!("missing field {k:?}"))
}

/// Reads the unsigned integer field `k` of `v`, narrowed to its type.
fn int<T: TryFrom<u64>>(v: &Json, k: &str) -> Result<T, String> {
    let n = field(v, k)?
        .as_u64()
        .ok_or_else(|| format!("field {k:?} is not an unsigned integer"))?;
    T::try_from(n).map_err(|_| format!("field {k:?} is out of range: {n}"))
}

// ---------------------------------------------------------------------
// Sinks and the tracer
// ---------------------------------------------------------------------

/// Where emitted events go, beyond the always-on ring buffer.
pub enum TraceSink {
    /// Discard (ring-buffer capture only). The default.
    Null,
    /// Collect in memory (tests, golden traces).
    Memory(Vec<TraceEvent>),
    /// Stream as JSONL to any writer (files, pipes). Write errors are
    /// counted ([`Tracer::sink_errors`]), not fatal.
    Writer(Box<dyn Write + Send>),
}

impl TraceSink {
    /// A buffered JSONL file sink, creating parent directories as needed.
    ///
    /// # Errors
    ///
    /// Any IO error from creating the directories or the file.
    pub fn jsonl_file(path: impl AsRef<Path>) -> std::io::Result<TraceSink> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = std::fs::File::create(path)?;
        Ok(TraceSink::Writer(Box::new(std::io::BufWriter::new(file))))
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSink::Null => write!(f, "TraceSink::Null"),
            TraceSink::Memory(v) => write!(f, "TraceSink::Memory({} events)", v.len()),
            TraceSink::Writer(_) => write!(f, "TraceSink::Writer"),
        }
    }
}

/// The event bus: a bounded ring buffer plus an optional streaming sink.
///
/// Owned by [`crate::SimCore`]; hot paths emit through it behind a single
/// branch on [`Tracer::enabled`].
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    ring: VecDeque<TraceEvent>,
    sink: TraceSink,
    emitted: u64,
    sink_errors: u64,
}

impl Tracer {
    /// Builds a tracer from the observability config.
    pub fn new(config: &TraceConfig) -> Self {
        Tracer {
            enabled: config.events,
            capacity: config.ring_capacity.max(1),
            ring: VecDeque::new(),
            sink: TraceSink::Null,
            emitted: 0,
            sink_errors: 0,
        }
    }

    /// Whether events are being captured. This is the hot-path guard:
    /// construct events only when it returns `true`.
    #[inline(always)]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Installs a sink and enables event capture (a sink without events
    /// would see nothing).
    pub fn set_sink(&mut self, sink: TraceSink) {
        self.sink = sink;
        self.enabled = true;
    }

    /// Emits one event: appended to the ring (oldest dropped at capacity)
    /// and forwarded to the sink. No-op when disabled.
    pub fn push(&mut self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.emitted += 1;
        match &mut self.sink {
            TraceSink::Null => {}
            TraceSink::Memory(v) => v.push(event.clone()),
            TraceSink::Writer(w) => {
                let line = event.to_jsonl();
                if writeln!(w, "{line}").is_err() {
                    self.sink_errors += 1;
                }
            }
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(event);
    }

    /// The ring-buffer contents, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &TraceEvent> {
        self.ring.iter()
    }

    /// Events captured by a [`TraceSink::Memory`] sink, if one is
    /// installed.
    pub fn memory(&self) -> Option<&[TraceEvent]> {
        match &self.sink {
            TraceSink::Memory(v) => Some(v),
            _ => None,
        }
    }

    /// Takes the memory sink's events, leaving it empty.
    pub fn take_memory(&mut self) -> Option<Vec<TraceEvent>> {
        match &mut self.sink {
            TraceSink::Memory(v) => Some(std::mem::take(v)),
            _ => None,
        }
    }

    /// Flushes a writer sink (no-op for the others).
    ///
    /// # Errors
    ///
    /// The writer's flush error, if any.
    pub fn flush(&mut self) -> std::io::Result<()> {
        match &mut self.sink {
            TraceSink::Writer(w) => w.flush(),
            _ => Ok(()),
        }
    }

    /// Total events emitted (including those rotated out of the ring).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Sink write failures observed (streaming is best-effort).
    pub fn sink_errors(&self) -> u64 {
        self.sink_errors
    }
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

/// Dumps a flight record for `core` into the configured
/// [`TraceConfig::flightrec_dir`], returning the path written.
///
/// The file is named by what it records,
/// `fr-<reason>-seed<seed in hex>-c<cycle>-<routing>.jsonl`, so equal runs
/// name their dumps alike whatever the order they finish in. A name that
/// is taken — another dump of the same point into the same directory —
/// gets the first free suffix `-1`, `-2`, …; the file is created with
/// `create_new`, so no dump overwrites another.
///
/// The file is JSONL: a header line (reason, replay seed, cycle, topology,
/// routing, population counters), one `{"snapshot":"vc",...}` line per
/// occupied VC, then the ring buffer's events oldest-first — so the
/// *final* lines are the most recent events (the violation or conviction
/// that triggered the dump, when the driver emitted it before calling
/// this).
///
/// Returns `None` when no directory is configured or the write fails
/// (failure diagnostics must never crash the run being diagnosed; the
/// error is reported to stderr).
pub fn flight_record(core: &SimCore, reason: &str) -> Option<PathBuf> {
    use std::fmt::Write as _;
    let dir = core.config().trace.flightrec_dir.clone()?;
    // `escape-vc(dor)` names its file `…-escape-vc-dor`.
    let routing = core.routing_name().replace('(', "-").replace(')', "");
    let stem = format!(
        "fr-{reason}-seed{:x}-c{}-{routing}",
        core.config().seed,
        core.cycle()
    );
    let mut out = String::new();
    out.push_str("{\"flightrec\":\"v1\",\"reason\":");
    escape_into(reason, &mut out);
    let _ = write!(
        out,
        ",\"seed\":{},\"cycle\":{},\"topology\":",
        core.config().seed,
        core.cycle()
    );
    escape_into(core.topology().name(), &mut out);
    out.push_str(",\"routing\":");
    escape_into(core.routing_name(), &mut out);
    let _ = writeln!(
        out,
        ",\"in_network\":{},\"live_packets\":{},\"events\":{}}}",
        core.packets_in_network(),
        core.live_packets(),
        core.tracer().recent().count()
    );
    for (r, pid) in core.occupied_vcs() {
        let st = core.vc(r);
        let p = core.packet(pid);
        let _ = writeln!(
            out,
            "{{\"snapshot\":\"vc\",\"link\":{},\"vn\":{},\"vc\":{},\"pid\":{},\"src\":{},\
             \"dest\":{},\"class\":{},\"hops\":{},\"ready_at\":{},\"entered_at\":{}}}",
            r.link.index(),
            r.vn,
            r.vc,
            pid.0,
            p.src.index(),
            p.dest.index(),
            p.class.index(),
            p.hops,
            st.ready_at,
            st.entered_at
        );
    }
    for ev in core.tracer().recent() {
        out.push_str(&ev.to_jsonl());
        out.push('\n');
    }
    let write = || -> std::io::Result<PathBuf> {
        use std::io::Write as _;
        std::fs::create_dir_all(&dir)?;
        let mut taken = 0u32;
        loop {
            let path = match taken {
                0 => dir.join(format!("{stem}.jsonl")),
                k => dir.join(format!("{stem}-{k}.jsonl")),
            };
            let file = std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path);
            match file {
                Ok(mut f) => return f.write_all(out.as_bytes()).map(|()| path),
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => taken += 1,
                Err(e) => return Err(e),
            }
        }
    };
    match write() {
        Ok(path) => Some(path),
        Err(e) => {
            eprintln!(
                "warning: cannot write flight record {}: {e}",
                dir.join(stem).display()
            );
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_event() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Inject {
                cycle: 1,
                pid: 2,
                src: 3,
                dest: 4,
                class: 1,
            },
            TraceEvent::VcAlloc {
                cycle: 5,
                pid: 2,
                link: 7,
                vn: 0,
                vc: 1,
            },
            TraceEvent::LinkTraverse {
                cycle: 5,
                pid: 2,
                link: 7,
                flits: 5,
                misroute: true,
            },
            TraceEvent::Eject {
                cycle: 9,
                pid: 2,
                node: 4,
                class: 1,
                latency: 8,
            },
            TraceEvent::DrainEpochStart {
                cycle: 1024,
                window: 1,
                full: false,
            },
            TraceEvent::DrainEpochEnd {
                cycle: 1040,
                window: 1,
                moved: 3,
            },
            TraceEvent::ForcedHop {
                cycle: 1030,
                pid: u32::MAX,
                link: 11,
                kind: ForcedKind::FullDrain,
                misroute: false,
            },
            TraceEvent::Probe {
                cycle: 2000,
                router: 6,
                len: 4,
            },
            TraceEvent::Spin {
                cycle: 2004,
                moves: 4,
            },
            TraceEvent::DeadlockConviction {
                cycle: 2100,
                convicted: 4,
                link: 13,
                vn: 0,
                vc: 0,
            },
            TraceEvent::WatchdogTrip {
                cycle: 9000,
                idle: 4000,
            },
            TraceEvent::InvariantViolation {
                cycle: 77,
                kind: ViolationKind::ForcedMove,
                seed: u64::MAX,
                detail: "tricky \"detail\"\nwith newline".to_string(),
            },
        ]
    }

    #[test]
    fn every_event_type_roundtrips_through_jsonl() {
        for ev in every_event() {
            let line = ev.to_jsonl();
            let back = TraceEvent::parse_jsonl(&line)
                .unwrap_or_else(|e| panic!("parse {line:?}: {e}"));
            assert_eq!(back, ev, "line: {line}");
        }
    }

    #[test]
    fn serialization_is_deterministic() {
        for ev in every_event() {
            assert_eq!(ev.to_jsonl(), ev.clone().to_jsonl());
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(TraceEvent::parse_jsonl("").is_err());
        assert!(TraceEvent::parse_jsonl("{}").is_err());
        assert!(TraceEvent::parse_jsonl("{\"ev\":\"nope\",\"cycle\":1}").is_err());
        assert!(TraceEvent::parse_jsonl("{\"ev\":\"inject\",\"cycle\":1}").is_err());
        assert!(TraceEvent::parse_jsonl("{\"ev\":\"spin\"").is_err());
        assert!(
            TraceEvent::parse_jsonl("{\"ev\":\"spin\",\"cycle\":1,\"moves\":4294967296}").is_err()
        );
    }

    #[test]
    fn parse_tolerates_extra_fields() {
        let ev = TraceEvent::parse_jsonl("{\"ev\":\"spin\",\"cycle\":3,\"moves\":2,\"extra\":1}")
            .unwrap();
        assert_eq!(ev, TraceEvent::Spin { cycle: 3, moves: 2 });
    }

    #[test]
    fn ring_buffer_is_bounded() {
        let mut t = Tracer::new(&TraceConfig {
            events: true,
            ring_capacity: 4,
            ..TraceConfig::default()
        });
        for i in 0..10u64 {
            t.push(TraceEvent::Spin {
                cycle: i,
                moves: 1,
            });
        }
        assert_eq!(t.emitted(), 10);
        let cycles: Vec<u64> = t.recent().map(|e| e.cycle()).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9], "ring keeps the newest events");
    }

    #[test]
    fn disabled_tracer_captures_nothing() {
        let mut t = Tracer::new(&TraceConfig::default());
        assert!(!t.enabled());
        t.push(TraceEvent::Spin { cycle: 1, moves: 1 });
        assert_eq!(t.emitted(), 0);
        assert_eq!(t.recent().count(), 0);
    }

    #[test]
    fn memory_sink_collects_and_takes() {
        let mut t = Tracer::new(&TraceConfig::default());
        t.set_sink(TraceSink::Memory(Vec::new()));
        assert!(t.enabled(), "installing a sink enables capture");
        t.push(TraceEvent::Spin { cycle: 1, moves: 2 });
        t.push(TraceEvent::Spin { cycle: 2, moves: 3 });
        assert_eq!(t.memory().unwrap().len(), 2);
        let taken = t.take_memory().unwrap();
        assert_eq!(taken.len(), 2);
        assert_eq!(t.memory().unwrap().len(), 0);
    }

    #[test]
    fn writer_sink_streams_jsonl() {
        let dir = std::env::temp_dir().join(format!("drain-trace-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("events.jsonl");
        let mut t = Tracer::new(&TraceConfig::default());
        t.set_sink(TraceSink::jsonl_file(&path).unwrap());
        let evs = every_event();
        for ev in &evs {
            t.push(ev.clone());
        }
        t.flush().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed: Vec<TraceEvent> = text
            .lines()
            .map(|l| TraceEvent::parse_jsonl(l).unwrap())
            .collect();
        assert_eq!(parsed, evs);
        assert_eq!(t.sink_errors(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
