//! # qos-net — sans-io peer protocol + socket drivers
//!
//! The transport seam between instrumented processes and a live host
//! manager, split the way `redis-rust` splits `production/` from
//! `simulator/`: **one protocol state machine, several drivers**.
//!
//! The machines are pure — bytes in, bytes out, explicit `Instant`s for
//! every timer decision, no syscalls — so the same logic runs under:
//!
//! * the **inline** epoll loop ([`inline`], Linux only): one thread —
//!   the live host manager's own — polls the listener and every peer
//!   and handles each frame where it is read, with no hand-off,
//! * the hand-rolled **epoll reactor** ([`reactor`], Linux only): all
//!   accepted peers on a small worker pool, per-peer bounded write
//!   queues with drop-oldest telemetry backpressure, EPOLLOUT-driven
//!   flush, fair ready-list scheduling and deterministic shutdown,
//! * unit tests, which drive the machines with plain byte slices and
//!   fabricated clocks.
//!
//! Module map:
//!
//! * [`sock`] — `SockAddr` / `SockStream` / `SockListener`, the TCP/UDS
//!   primitives (moved here from `qos-manager::transport`);
//! * [`policy`] — [`FlushPolicy`], [`ReconnectPolicy`] and the jittered
//!   doubling [`Backoff`] envelope;
//! * [`peer`] — the accepted-peer half: [`PeerReader`] (frame
//!   reassembly) and [`PeerOutQueue`] (classed, bounded outbound queue);
//! * [`client`] — [`ClientConn`], the dialing half: greeting replay,
//!   backoff reconnect scheduling, and `FlushPolicy` write coalescing;
//! * [`turn`] — the IO half of a peer turn (budgeted read, write
//!   drain), shared by both epoll drivers;
//! * [`wake`] — wake a polling thread from others, only when it is
//!   about to block;
//! * [`sys`] — a thin raw-FFI epoll surface (Linux only, no `libc`
//!   crate — the workspace is hermetic);
//! * [`reactor`] — the multi-worker epoll driver (Linux only);
//! * [`inline`] — the single-thread epoll driver (Linux only).

#![warn(missing_docs)]

pub mod client;
pub mod peer;
pub mod policy;
pub mod sock;
pub mod turn;
pub mod wake;

#[cfg(target_os = "linux")]
pub mod sys;

#[cfg(target_os = "linux")]
pub mod reactor;

#[cfg(target_os = "linux")]
pub mod inline;

pub use client::{ClientConn, FlushBatch};
pub use peer::{Enqueue, OutQueueConfig, PeerOutQueue, PeerReader, SendClass};
pub use policy::{Backoff, FlushPolicy, ReconnectPolicy};
pub use sock::{SockAddr, SockListener, SockStream};
pub use wake::Waker;

#[cfg(target_os = "linux")]
pub use inline::{FrameHandler, InlineNet};

#[cfg(target_os = "linux")]
pub use reactor::{EventSink, NetStats, PeerSend, PeerSender, ReactorConfig, ReactorHandle};
