//! Endpoint models: what creates and consumes packets.
//!
//! The simulator is endpoint-agnostic: a [`Endpoints`] implementation is
//! called once per cycle before the network moves, and is responsible for
//! injecting new packets (via [`SimCore::try_enqueue_packet`]) and for
//! consuming delivered packets from the ejection queues (via
//! [`SimCore::pop_ejection`]).
//!
//! [`SyntheticTraffic`] provides the classic open-loop patterns the paper's
//! synthetic experiments use (uniform random, transpose, …);
//! [`TraceTraffic`] replays scripted injections (used by the Fig 8
//! walk-through and adversarial tests). The MESI coherence engine in the
//! `drain-coherence` crate is the third implementation.

mod synthetic;
mod trace;

pub use synthetic::{SyntheticPattern, SyntheticTraffic};
pub use trace::{InjectionEvent, TraceTraffic};

use crate::state::SimCore;

/// An endpoint model: the sources and sinks attached to every router.
pub trait Endpoints: Send + std::any::Any {
    /// Short name for reports.
    fn name(&self) -> &str;

    /// Runs once per cycle before network allocation: consume ejection
    /// queues, issue new packets.
    fn pre_cycle(&mut self, core: &mut SimCore);

    /// Whether the workload is complete (closed-loop models); open-loop
    /// traffic always returns `false`.
    fn finished(&self, _core: &SimCore) -> bool {
        false
    }

    /// The earliest future cycle at which this model could inject or
    /// otherwise act, assuming no deliveries arrive meanwhile (idle-cycle
    /// fast-forward, see [`crate::Sim::run`]).
    ///
    /// Returning `t > core.cycle()` promises that `pre_cycle` calls for
    /// every cycle in `(now, t)` would be pure no-ops — including RNG
    /// draws whose values are observable in later behaviour. The
    /// conservative default — the current cycle — disables fast-forward
    /// for models that did not opt in. The driver never skips cycles
    /// while ejection queues hold undelivered packets, so consumption is
    /// not a concern here.
    fn idle_until(&self, core: &SimCore) -> u64 {
        core.cycle()
    }

    /// Downcast support so tests and reports can reach the concrete model
    /// behind a running simulation (e.g. the coherence engine's protocol
    /// statistics).
    fn as_any(&self) -> &dyn std::any::Any;
}
