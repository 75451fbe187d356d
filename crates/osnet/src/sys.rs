//! Raw Linux syscall bindings for the parts of the socket/epoll API that
//! `std::net` does not expose.
//!
//! std already links libc, so plain `extern "C"` declarations resolve
//! without adding any dependency. Only the calls the reactor and transport
//! actually need are bound:
//!
//! * `epoll_create1` / `epoll_ctl` / `epoll_wait` — readiness (std has no
//!   epoll surface at all);
//! * `socket` + `connect` — std's `TcpStream::connect` blocks until the
//!   handshake completes, which serialises a 256-flow open; creating the
//!   socket with `SOCK_NONBLOCK` and connecting to `EINPROGRESS` lets all
//!   handshakes run concurrently (completion is an `EPOLLOUT` edge);
//! * `listen` — re-issued on std's already-listening fd to raise the
//!   backlog beyond the 128 std hardcodes (256 concurrent `connect()`s
//!   would overflow the accept queue);
//! * `setsockopt` — shrink `SO_SNDBUF` in tests to force partial writes.
//!
//! Numeric constants are x86_64/aarch64 Linux values (they are identical on
//! both).

#![allow(missing_docs)]
#![allow(clippy::missing_safety_doc)]

/// `struct epoll_event`. Packed on x86_64 (the kernel ABI there packs the
/// u32 flags against the u64 payload); naturally aligned elsewhere.
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EpollEvent {
    /// `EPOLL*` readiness bits.
    pub events: u32,
    /// Caller-owned token (`epoll_data_t`, used as u64).
    pub data: u64,
}

/// `struct sockaddr_in` (IPv4). Port and address are big-endian.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub(crate) struct SockAddrIn {
    pub sin_family: u16,
    /// Big-endian port.
    pub sin_port: u16,
    /// Big-endian IPv4 address.
    pub sin_addr: u32,
    pub sin_zero: [u8; 8],
}

impl SockAddrIn {
    /// An IPv4 loopback address at `port`.
    pub(crate) fn loopback(port: u16) -> Self {
        SockAddrIn {
            sin_family: AF_INET as u16,
            sin_port: port.to_be(),
            sin_addr: u32::from_be_bytes([127, 0, 0, 1]).to_be(),
            sin_zero: [0; 8],
        }
    }
}

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
pub(crate) const EPOLLRDHUP: u32 = 0x2000;
pub(crate) const EPOLLET: u32 = 1 << 31;

pub(crate) const EPOLL_CTL_ADD: i32 = 1;
pub(crate) const EPOLL_CLOEXEC: i32 = 0o2000000;

pub(crate) const AF_INET: i32 = 2;
pub(crate) const SOCK_STREAM: i32 = 1;
pub(crate) const SOCK_NONBLOCK: i32 = 0o4000;
pub(crate) const SOCK_CLOEXEC: i32 = 0o2000000;

const SOL_SOCKET: i32 = 1;
const SO_SNDBUF: i32 = 7;

/// `errno` of a nonblocking `connect` whose handshake is in flight.
pub(crate) const EINPROGRESS: i32 = 115;

extern "C" {
    pub(crate) fn epoll_create1(flags: i32) -> i32;
    pub(crate) fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    pub(crate) fn epoll_wait(
        epfd: i32,
        events: *mut EpollEvent,
        maxevents: i32,
        timeout_ms: i32,
    ) -> i32;
    pub(crate) fn close(fd: i32) -> i32;
    pub(crate) fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
    pub(crate) fn connect(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
    pub(crate) fn listen(fd: i32, backlog: i32) -> i32;
    pub(crate) fn setsockopt(
        fd: i32,
        level: i32,
        optname: i32,
        optval: *const i32,
        optlen: u32,
    ) -> i32;
}

/// Shrink a socket's kernel send buffer (tests use this to force partial
/// writes across a record boundary). The kernel doubles the value and
/// clamps it to `SOCK_MIN_SNDBUF`; the exact effective size is irrelevant —
/// only that it is far smaller than the payload being written.
pub fn set_send_buffer(fd: i32, bytes: i32) -> std::io::Result<()> {
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_SNDBUF,
            &bytes as *const i32,
            std::mem::size_of::<i32>() as u32,
        )
    };
    if rc < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}
