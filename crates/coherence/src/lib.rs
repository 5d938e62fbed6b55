//! MESI-lite directory cache coherence on top of the NoC simulator.
//!
//! The paper's protocol-level deadlock story (Fig 2) needs a real
//! multi-message-class protocol whose dependency chains run *through the
//! endpoints*: consuming a request at the directory injects forwards and
//! responses, consuming an invalidation at a core injects an ack. When all
//! classes share one virtual network, those chains can close into cycles
//! through the network's buffers — the deadlock DRAIN removes and the
//! baselines spend whole virtual networks to avoid.
//!
//! The implementation is a blocking-directory MESI protocol in the style of
//! the Sorin/Hill/Wood primer, with three message classes mapped exactly to
//! the paper's virtual-network setup:
//!
//! | class | messages | consumption rule |
//! |---|---|---|
//! | `REQUEST` | GetS, GetM, PutM | needs a free TBE, a non-busy address and forward/response injection space |
//! | `FORWARD` | FwdGetS, FwdGetM, Inv | needs response injection space |
//! | `RESPONSE` | Data, DataE, InvAck, WBAck, AckToHome | always consumable (the sink class) |
//!
//! Cores have finite MSHRs and a finite cache; directories have finite
//! TBEs; every queue is bounded — satisfying the paper's assumptions
//! (§III-A) that bound in-flight packets per class.
//!
//! # Examples
//!
//! ```
//! use drain_topology::Topology;
//! use drain_netsim::{Sim, SimConfig};
//! use drain_netsim::routing::FullyAdaptive;
//! use drain_netsim::mechanism::NoMechanism;
//! use drain_coherence::{CoherenceConfig, CoherenceEngine, SyntheticMemTrace};
//!
//! let topo = Topology::mesh(4, 4);
//! let engine = CoherenceEngine::new(
//!     &topo,
//!     CoherenceConfig::default(),
//!     Box::new(SyntheticMemTrace::uniform(0.05, 0.3, 256, 42)),
//! );
//! // 3 virtual networks: the proactive (deadlock-free) configuration.
//! let mut sim = Sim::new(
//!     topo.clone(),
//!     SimConfig::default(),
//!     FullyAdaptive::new(&topo),
//!     Box::new(NoMechanism),
//!     Box::new(engine),
//! );
//! sim.run(5_000);
//! assert!(sim.stats().ejected > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod msg;
pub mod node;
mod trace;

pub use engine::{CoherenceConfig, CoherenceEngine, CoherenceStats};
pub use node::{DirState, LineState, MissKind};
pub use msg::{Addr, CohMsg, MsgType};
pub use trace::{MemOp, MemoryTrace, ScriptedTrace, SyntheticMemTrace};

#[cfg(test)]
mod fsm_tests;
