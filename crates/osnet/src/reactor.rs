//! A minimal edge-triggered epoll reactor.
//!
//! One epoll instance, u64 caller tokens, and a single interest set for
//! every fd: `EPOLLIN | EPOLLOUT | EPOLLET | EPOLLRDHUP`. Edge-triggered
//! means the kernel reports a readiness *transition* once; consumers must
//! drain (read/write until `WouldBlock`) before the next edge arrives.
//! That matches the engine's readiness-driven driver loop exactly, and is
//! the regime where epoll's cost stays `O(ready)` rather than
//! `O(registered)`.

use crate::sys;
use std::io;
use std::os::fd::RawFd;

/// A decoded readiness event for one registered fd.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    /// `EPOLLIN` — bytes (or a pending accept, or a FIN) to read.
    pub readable: bool,
    /// `EPOLLOUT` — send space opened (or a nonblocking connect resolved).
    pub writable: bool,
    /// `EPOLLRDHUP | EPOLLHUP` — the peer shut down its write side.
    pub hangup: bool,
    /// `EPOLLERR` — a socket error is pending (read it with `SO_ERROR`).
    pub error: bool,
}

/// An epoll instance plus its event buffer and syscall counters.
#[derive(Debug)]
pub struct Reactor {
    epfd: RawFd,
    buf: Vec<sys::EpollEvent>,
    /// `epoll_wait` calls issued.
    pub waits: u64,
    /// `epoll_ctl` calls issued.
    pub ctls: u64,
}

impl Reactor {
    /// A new epoll instance (`EPOLL_CLOEXEC`), with room for `capacity`
    /// events per [`Reactor::wait`].
    pub fn new(capacity: usize) -> io::Result<Self> {
        let epfd = unsafe { sys::epoll_create1(sys::EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Reactor {
            epfd,
            buf: vec![sys::EpollEvent::default(); capacity.max(16)],
            waits: 0,
            ctls: 0,
        })
    }

    /// Register `fd` with the fixed edge-triggered interest set under
    /// `token`.
    pub fn register(&mut self, fd: RawFd, token: u64) -> io::Result<()> {
        let mut ev = sys::EpollEvent {
            events: sys::EPOLLIN | sys::EPOLLOUT | sys::EPOLLET | sys::EPOLLRDHUP,
            data: token,
        };
        self.ctls += 1;
        let rc = unsafe { sys::epoll_ctl(self.epfd, sys::EPOLL_CTL_ADD, fd, &mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Wait up to `timeout_ms` for readiness edges and append the decoded
    /// events to `out`. Returns how many arrived. `EINTR` reads as zero
    /// events rather than an error.
    pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Event>) -> io::Result<usize> {
        self.waits += 1;
        let n = unsafe {
            sys::epoll_wait(
                self.epfd,
                self.buf.as_mut_ptr(),
                self.buf.len() as i32,
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(0);
            }
            return Err(err);
        }
        for i in 0..n as usize {
            // Copy out of the (possibly packed) buffer before touching
            // fields: references into packed structs are UB.
            let raw = self.buf[i];
            let bits = raw.events;
            out.push(Event {
                token: raw.data,
                readable: bits & sys::EPOLLIN != 0,
                writable: bits & sys::EPOLLOUT != 0,
                hangup: bits & (sys::EPOLLRDHUP | sys::EPOLLHUP) != 0,
                error: bits & sys::EPOLLERR != 0,
            });
        }
        Ok(n as usize)
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        unsafe { sys::close(self.epfd) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn registered_socket_reports_edges() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let mut reactor = Reactor::new(8).expect("epoll_create1");

        let client = TcpStream::connect(addr).expect("loopback connect");
        let (mut server, _) = listener.accept().expect("accept");
        client.set_nonblocking(true).unwrap();
        reactor.register(client.as_raw_fd(), 42).expect("register");

        // A fresh established socket reports writable immediately (ET
        // reports the current state on registration).
        let mut events = Vec::new();
        reactor.wait(1000, &mut events).expect("wait");
        assert!(
            events.iter().any(|e| e.token == 42 && e.writable),
            "no writable edge after register: {events:?}"
        );

        // Incoming bytes produce a readable edge...
        events.clear();
        server.write_all(b"ping").unwrap();
        reactor.wait(1000, &mut events).expect("wait");
        assert!(
            events.iter().any(|e| e.token == 42 && e.readable),
            "no readable edge after peer write: {events:?}"
        );
        let mut buf = [0u8; 16];
        let n = (&client).read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"ping");

        // ...and a peer FIN produces a hangup (RDHUP) edge.
        events.clear();
        drop(server);
        reactor.wait(1000, &mut events).expect("wait");
        assert!(
            events.iter().any(|e| e.token == 42 && e.hangup),
            "no hangup edge after peer close: {events:?}"
        );
    }

    #[test]
    fn edge_triggered_does_not_rereport_undrained_input() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().unwrap();
        let mut reactor = Reactor::new(8).expect("epoll_create1");

        let client = TcpStream::connect(addr).expect("loopback connect");
        let (mut server, _) = listener.accept().expect("accept");
        client.set_nonblocking(true).unwrap();
        reactor.register(client.as_raw_fd(), 7).expect("register");
        server.write_all(b"data").unwrap();

        // First wait sees the edge (plus the initial writable state).
        let mut events: Vec<Event> = Vec::new();
        while !events.iter().any(|e| e.readable) {
            reactor.wait(1000, &mut events).expect("wait");
        }

        // Without reading, the *edge* is not re-reported: a second wait
        // times out empty. (This is the property that forces the transport
        // to drain until WouldBlock.)
        events.clear();
        reactor.wait(100, &mut events).expect("wait");
        assert!(
            events.iter().all(|e| !e.readable),
            "edge-triggered epoll re-reported an undrained fd: {events:?}"
        );
    }
}
