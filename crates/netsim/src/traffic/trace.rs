//! Scripted trace replay (walk-throughs and adversarial tests).

use drain_topology::NodeId;

use super::Endpoints;
use crate::packet::MessageClass;
use crate::state::SimCore;

/// One scripted injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InjectionEvent {
    /// Cycle at which the packet is created.
    pub cycle: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Message class.
    pub class: MessageClass,
    /// Packet length in flits.
    pub len_flits: u32,
}

/// Replays a fixed injection schedule; delivered packets are consumed
/// immediately.
///
/// Events must be sorted by cycle (enforced at construction).
#[derive(Clone, Debug)]
pub struct TraceTraffic {
    events: Vec<InjectionEvent>,
    next: usize,
}

impl TraceTraffic {
    /// Creates a trace source.
    ///
    /// # Panics
    ///
    /// Panics if `events` is not sorted by cycle.
    pub fn new(events: Vec<InjectionEvent>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].cycle <= w[1].cycle),
            "trace events must be sorted by cycle"
        );
        TraceTraffic { events, next: 0 }
    }

    /// Remaining events not yet injected.
    pub fn remaining(&self) -> usize {
        self.events.len() - self.next
    }
}

impl Endpoints for TraceTraffic {
    fn name(&self) -> &str {
        "trace"
    }

    fn pre_cycle(&mut self, core: &mut SimCore) {
        // Consuming deliveries draws no randomness, and the non-empty-queue
        // bitmap retires them in the same ascending (node, class) order as
        // a sweep over every queue.
        while core.pop_next_ejection().is_some() {}
        while self.next < self.events.len() && self.events[self.next].cycle <= core.cycle() {
            let e = self.events[self.next];
            self.next += 1;
            core.try_enqueue_packet(e.src, e.dest, e.class, e.len_flits, 0);
        }
    }

    fn finished(&self, core: &SimCore) -> bool {
        self.next == self.events.len() && core.live_packets() == 0
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_rejected() {
        TraceTraffic::new(vec![
            InjectionEvent {
                cycle: 5,
                src: NodeId(0),
                dest: NodeId(1),
                class: MessageClass::REQUEST,
                len_flits: 1,
            },
            InjectionEvent {
                cycle: 2,
                src: NodeId(1),
                dest: NodeId(0),
                class: MessageClass::REQUEST,
                len_flits: 1,
            },
        ]);
    }

    #[test]
    fn remaining_counts_down() {
        let t = TraceTraffic::new(vec![InjectionEvent {
            cycle: 0,
            src: NodeId(0),
            dest: NodeId(1),
            class: MessageClass::REQUEST,
            len_flits: 1,
        }]);
        assert_eq!(t.remaining(), 1);
    }
}
