//! # minion-osnet
//!
//! The OS-socket transport backend: the load scenarios of `minion-engine`
//! running against the *kernel's* TCP stack over loopback instead of the
//! deterministic simulator.
//!
//! The paper's argument is about what a deployable transport may and may
//! not change on the wire; the reproduction's engine measures uTCP delivery
//! behaviour inside a simulator. This crate closes the loop to a real
//! stack: the same [`LoadScenario`](minion_engine::LoadScenario) driver —
//! same streams, same reassembly and exactly-once checks, same report
//! shape — runs over nonblocking `std::net` sockets driven by an
//! edge-triggered epoll reactor, so the sim numbers in `BENCH_engine.json`
//! sit next to kernel-TCP numbers produced by the identical workload.
//!
//! Components:
//!
//! * [`sys`] — raw `extern "C"` bindings to the handful of Linux syscalls
//!   std does not surface (`epoll_create1`/`epoll_ctl`/`epoll_wait`,
//!   nonblocking `socket`+`connect`, backlog-raising `listen`,
//!   `setsockopt`). No external crates: std already links libc, so the
//!   symbols are free.
//! * [`Reactor`] — a minimal epoll wrapper: register fds with u64 tokens,
//!   wait for edge-triggered readiness (`EPOLLIN | EPOLLOUT | EPOLLET |
//!   EPOLLRDHUP`), surface decoded [`reactor::Event`]s.
//! * [`OsTransport`] — the [`Transport`](minion_engine::Transport)
//!   implementation: per-phase socket states (connecting → established)
//!   like Demikernel's catnap backend, epoll tokens that carry each
//!   socket's flow index (clients and accepted connections alike), a
//!   `MonotonicClock` feeding a timer queue
//!   ([`TimerWheel`](minion_engine::TimerWheel)) of liveness watchdogs, and
//!   syscall accounting so the bench can report syscalls/flow.
//!
//! Determinism is explicitly *not* promised here — the kernel schedules as
//! it pleases. The OS backend gates on liveness (every flow completes
//! before the deadline) and goodput envelopes instead; the sim backend's
//! byte-identical reports are untouched.
//!
//! Linux-only (epoll): the raw bindings resolve against the libc std
//! already links, so there is no feature gate — off Linux the build fails
//! at link time, which is the honest failure mode for a backend that
//! cannot work there anyway.

#![warn(missing_docs)]

mod clock;
pub mod reactor;
pub mod sys;
pub mod transport;

pub use reactor::Reactor;
pub use transport::{OsTransport, OS_PHASES};
