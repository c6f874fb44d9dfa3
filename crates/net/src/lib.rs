#![warn(missing_docs)]
//! # loadex-net — message-passing substrate
//!
//! The paper's system model (§1) is a distributed asynchronous system of `N`
//! processes that communicate **only by message passing**, with one crucial
//! detail: *“all messages discussed in this paper are of type state
//! information, and they are processed in priority compared to the other
//! messages. In practice a specific channel is used for those messages.”*
//!
//! This crate provides that substrate twice:
//!
//! * [`simnet::SimNetwork`] — a simulated network for the discrete-event
//!   engine: per-ordered-pair FIFO links, a latency + bandwidth + per-message
//!   overhead cost model, and two logical channels per link
//!   ([`Channel::State`] with priority, [`Channel::Regular`]).
//! * [`thread::ThreadNetwork`] — a real transport on crossbeam channels, one
//!   endpoint per OS thread, with the same two-channel discipline. Used by
//!   the examples and integration tests to run the mechanism state machines
//!   under genuine asynchrony.
//!
//! Neither transport records events: what each mechanism sends is staged by
//! the mechanism and stamped by the solver into the run's
//! `loadex_obs::Recorder`, so every send is counted once.

pub mod channel;
pub mod model;
pub mod simnet;
pub mod thread;

pub use channel::{Channel, Envelope};
pub use model::NetworkModel;
pub use simnet::{Delivery, SimNetwork};
pub use thread::{CommEndpoint, Endpoint, RecvError, ThreadNetwork};
