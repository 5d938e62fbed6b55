//! Open-loop synthetic traffic patterns.

use drain_topology::{NodeId, Topology};

use super::Endpoints;
use crate::packet::MessageClass;
use crate::rng::{mix, DrawSite};
use crate::state::SimCore;

/// Destination-selection pattern for synthetic traffic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SyntheticPattern {
    /// Every other node equally likely (≠ source).
    UniformRandom,
    /// Matrix transpose: `(x, y) → (y, x)` on square meshes; falls back to
    /// id reversal on other topologies.
    Transpose,
    /// `dest = src XOR (N-1)` when the node count is a power of two, else
    /// `N-1-src`.
    BitComplement,
    /// Perfect shuffle: rotate the id's bits left by one.
    Shuffle,
    /// All nodes send to the given hotspot set (round-robin by sample).
    Hotspot(Vec<NodeId>),
    /// Send to the next node id (nearest-neighbor pressure).
    Neighbor,
}

impl SyntheticPattern {
    /// Destination for a packet from `src`, or `None` if the pattern maps
    /// the node to itself. Pure: the sampled patterns pick from `sample`
    /// (a uniform 64-bit draw), the deterministic ones ignore it.
    pub fn dest(&self, topo: &Topology, src: NodeId, sample: u64) -> Option<NodeId> {
        let n = topo.num_nodes() as u16;
        let d = match self {
            SyntheticPattern::UniformRandom => {
                if n < 2 {
                    return None;
                }
                // Uniform over the other n-1 nodes: step over `src`.
                let d = (sample % u64::from(n - 1)) as u16;
                NodeId(d + u16::from(d >= src.0))
            }
            SyntheticPattern::Transpose => match (topo.coord(src), topo.mesh_dims()) {
                (Some((x, y)), Some((w, h))) if w == h => NodeId(x * w + y),
                _ => NodeId(n - 1 - src.0),
            },
            SyntheticPattern::BitComplement => {
                if n.is_power_of_two() {
                    NodeId(src.0 ^ (n - 1))
                } else {
                    NodeId(n - 1 - src.0)
                }
            }
            SyntheticPattern::Shuffle => {
                if n.is_power_of_two() && n > 1 {
                    let bits = n.trailing_zeros();
                    let v = src.0;
                    NodeId(((v << 1) | (v >> (bits - 1))) & (n - 1))
                } else {
                    NodeId((src.0 + 1) % n)
                }
            }
            SyntheticPattern::Hotspot(targets) => {
                if targets.is_empty() {
                    return None;
                }
                targets[(sample % targets.len() as u64) as usize]
            }
            SyntheticPattern::Neighbor => NodeId((src.0 + 1) % n),
        };
        (d != src).then_some(d)
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            SyntheticPattern::UniformRandom => "uniform",
            SyntheticPattern::Transpose => "transpose",
            SyntheticPattern::BitComplement => "bitcomp",
            SyntheticPattern::Shuffle => "shuffle",
            SyntheticPattern::Hotspot(_) => "hotspot",
            SyntheticPattern::Neighbor => "neighbor",
        }
    }
}

/// Open-loop Bernoulli injection: each node creates a packet with
/// probability `rate` per cycle; ejection queues are consumed immediately.
///
/// Both of a node's draws are keyed ([`crate::rng`]): node `n` injects in
/// cycle `c` iff `mix(seed, c, Traffic, n)` falls below `rate`, and takes
/// its destination from `mix(seed, c, TrafficDest, n)`. The offered
/// traffic is a pure function of `(seed, cycle, node)` — it cannot depend
/// on what the network did with earlier packets, so two schemes under one
/// seed are offered the same packets.
#[derive(Clone, Debug)]
pub struct SyntheticTraffic {
    pattern: SyntheticPattern,
    rate: f64,
    /// `rate` as a threshold on the top 53 bits of a draw: `rate · 2⁵³`
    /// (0 never injects, 2⁵³ always does).
    threshold: u64,
    len_flits: u32,
    seed: u64,
    /// Injection stops after this cycle (drain-out phase); `u64::MAX` =
    /// never.
    stop_at: u64,
    /// Sequence number stamped into each packet's `tag` so deliveries can
    /// be fingerprinted uniquely (differential oracle).
    seq: u64,
}

impl SyntheticTraffic {
    /// Creates a traffic source with per-node injection probability `rate`
    /// and fixed packet length.
    pub fn new(pattern: SyntheticPattern, rate: f64, len_flits: u32, seed: u64) -> Self {
        SyntheticTraffic {
            pattern,
            rate,
            threshold: (rate * (1u64 << 53) as f64) as u64,
            len_flits,
            seed,
            stop_at: u64::MAX,
            seq: 0,
        }
    }

    /// Stops creating new packets after `cycle` (lets the network drain for
    /// delivered-packet accounting).
    pub fn stop_injection_at(mut self, cycle: u64) -> Self {
        self.stop_at = cycle;
        self
    }

    /// The configured injection rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Whether `node` creates a packet in `cycle`.
    pub fn injects(&self, cycle: u64, node: NodeId) -> bool {
        cycle < self.stop_at && bernoulli(self.seed, self.threshold, cycle, u64::from(node.0))
    }
}

/// The injection draw of `node` in `cycle`: its sample's top 53 bits
/// against `threshold`.
#[inline]
fn bernoulli(seed: u64, threshold: u64, cycle: u64, node: u64) -> bool {
    mix(seed, cycle, DrawSite::Traffic, node) >> 11 < threshold
}

impl Endpoints for SyntheticTraffic {
    fn name(&self) -> &str {
        self.pattern.name()
    }

    fn pre_cycle(&mut self, core: &mut SimCore) {
        // Consume everything delivered (no-op — and skipped — when no
        // ejection queue holds anything).
        let n = core.topology().num_nodes();
        while core.pop_next_ejection().is_some() {}
        let now = core.cycle();
        if now >= self.stop_at || self.threshold == 0 {
            return;
        }
        // Bernoulli injection per node. Seed and threshold in locals: the
        // (seed, cycle) rounds of the mixer then hoist out of the loop.
        let (seed, threshold) = (self.seed, self.threshold);
        let mut attempts = 0;
        for ni in 0..n {
            if !bernoulli(seed, threshold, now, ni as u64) {
                continue;
            }
            attempts += 1;
            let node = NodeId(ni as u16);
            let sample = mix(seed, now, DrawSite::TrafficDest, ni as u64);
            if let Some(dest) = self.pattern.dest(core.topology(), node, sample) {
                self.seq += 1;
                core.try_enqueue_packet(
                    node,
                    dest,
                    MessageClass::REQUEST,
                    self.len_flits,
                    self.seq,
                );
            }
        }
        core.note_draws(DrawSite::Traffic, n as u64);
        core.note_draws(DrawSite::TrafficDest, attempts);
    }

    fn finished(&self, core: &SimCore) -> bool {
        core.cycle() >= self.stop_at && core.live_packets() == 0
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transpose_on_square_mesh() {
        let t = Topology::mesh(4, 4);
        // (1, 2) = node 9 → (2, 1) = node 6.
        assert_eq!(
            SyntheticPattern::Transpose.dest(&t, NodeId(9), 0),
            Some(NodeId(6))
        );
        // Diagonal maps to itself → None.
        assert_eq!(SyntheticPattern::Transpose.dest(&t, NodeId(5), 0), None);
    }

    #[test]
    fn bitcomp_power_of_two() {
        let t = Topology::mesh(4, 4);
        assert_eq!(
            SyntheticPattern::BitComplement.dest(&t, NodeId(0), 0),
            Some(NodeId(15))
        );
        assert_eq!(
            SyntheticPattern::BitComplement.dest(&t, NodeId(5), 0),
            Some(NodeId(10))
        );
    }

    #[test]
    fn uniform_never_self() {
        let t = Topology::mesh(3, 3);
        // Eight consecutive samples reach each of the eight other nodes
        // exactly once, in id order.
        let dests: Vec<u16> = (16..24)
            .map(|sample| {
                let d = SyntheticPattern::UniformRandom.dest(&t, NodeId(4), sample);
                d.expect("a 9-node network has other nodes").0
            })
            .collect();
        assert_eq!(dests, [0, 1, 2, 3, 5, 6, 7, 8]);
    }

    #[test]
    fn shuffle_rotates_bits() {
        let t = Topology::mesh(4, 4);
        // 0b0101 (5) -> 0b1010 (10)
        assert_eq!(
            SyntheticPattern::Shuffle.dest(&t, NodeId(5), 0),
            Some(NodeId(10))
        );
        // 0b1000 (8) -> 0b0001 (1)
        assert_eq!(
            SyntheticPattern::Shuffle.dest(&t, NodeId(8), 0),
            Some(NodeId(1))
        );
    }

    #[test]
    fn hotspot_targets_only() {
        let t = Topology::mesh(3, 3);
        let pat = SyntheticPattern::Hotspot(vec![NodeId(0), NodeId(8)]);
        for sample in 0..50 {
            let d = pat.dest(&t, NodeId(4), sample).unwrap();
            assert_eq!(d, [NodeId(0), NodeId(8)][(sample % 2) as usize]);
        }
    }
}
