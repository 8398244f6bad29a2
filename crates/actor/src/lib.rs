#![warn(missing_docs)]

//! A Kilim-style lightweight actor runtime.
//!
//! The GPSA paper builds on Kilim: thousands of lightweight actors, each
//! with a FIFO mailbox, cooperatively scheduled over a small pool of kernel
//! threads. This crate is that substrate, written from scratch:
//!
//! * [`Actor`] — user state machine with a typed mailbox; the runtime calls
//!   [`Actor::handle`] for every message.
//! * [`System`] — owns the worker threads; [`System::spawn`] turns an
//!   [`Actor`] into a running entity and returns its [`Addr`].
//! * [`Addr`] — cheap, cloneable, `Send` handle used to deliver messages
//!   asynchronously ([`Addr::send`] never blocks).
//! * Scheduling — an actor is *idle*, *scheduled*, or *dead*. Sending to an
//!   idle actor enqueues it exactly once on the run queue (Kilim's
//!   at-most-once property); workers drain up to a batch of messages per
//!   activation for fairness, then requeue the actor if its mailbox is
//!   still non-empty. Idle workers steal from each other.
//! * Supervision — a panic inside `handle` kills only that actor; the
//!   system records the failure and keeps running. Supervised actors are
//!   rebuilt from a factory up to a restart budget; when a cell dies for
//!   good, the runtime raises a [`FailureEvent`] through
//!   [`System::set_failure_handler`] so an engine can tear down and
//!   recover instead of hanging.
//!
//! # Example
//!
//! ```
//! use actor::{Actor, Ctx, System};
//! use std::sync::mpsc;
//!
//! struct Adder { total: u64, done: mpsc::Sender<u64> }
//! enum Msg { Add(u64), Report }
//!
//! impl Actor for Adder {
//!     type Msg = Msg;
//!     fn handle(&mut self, msg: Msg, _ctx: &mut Ctx<'_, Self>) {
//!         match msg {
//!             Msg::Add(n) => self.total += n,
//!             Msg::Report => { self.done.send(self.total).unwrap(); }
//!         }
//!     }
//! }
//!
//! let sys = System::builder().workers(2).build();
//! let (tx, rx) = mpsc::channel();
//! let addr = sys.spawn(Adder { total: 0, done: tx });
//! for i in 1..=100 { addr.send(Msg::Add(i)).unwrap(); }
//! addr.send(Msg::Report).unwrap();
//! assert_eq!(rx.recv().unwrap(), 5050);
//! sys.shutdown();
//! ```

mod actor;
mod addr;
mod cell;
mod error;
mod scheduler;
mod system;

pub use actor::{Actor, Ctx};
pub use addr::{Addr, Recipient};
pub use error::SendError;
pub use system::{FailureEvent, System, SystemBuilder, SystemMetrics};

/// Lock `m`, re-entering it if a panicking holder poisoned it. A panic in
/// actor code must not wedge the runtime: the actor state it ran under is
/// rebuilt (supervision) or dropped (death), and the queues are never left
/// half-updated.
fn lock<T: ?Sized>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}
