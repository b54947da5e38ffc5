//! A minimal readiness poller: `epoll` + `eventfd`, mio-style.
//!
//! The event-driven TCP runtime ([`crate::tcp`]) needs exactly three
//! primitives from the OS: register a socket for read/write readiness,
//! block until something is ready (with a timeout for deadlines), and be
//! woken from another thread. This module wraps the raw Linux syscalls
//! for those three — `epoll_create1`/`epoll_ctl`/`epoll_wait` behind
//! [`Poller`] and an `eventfd` behind [`Waker`] — with no dependency
//! beyond libc symbols the standard library already links.
//!
//! Level-triggered semantics (the epoll default) are used deliberately:
//! the runtime may stop short of draining a socket (fairness budgets,
//! inbound-queue throttling) and relies on the next `wait` re-reporting
//! the readiness.

use std::io;
use std::os::raw::{c_int, c_void};
use std::os::unix::io::RawFd;

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;
/// Peer closed its write half (half-close); treated like a hangup so a
/// dead connection is noticed without waiting for a failed write.
pub(crate) const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

/// `struct epoll_event` — packed on x86-64 (glibc's `__EPOLL_PACKED`),
/// naturally aligned elsewhere.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int)
        -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
    fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    fn close(fd: c_int) -> c_int;
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// One readiness notification: the registered token plus what fired.
#[derive(Clone, Copy, Debug)]
pub struct Event {
    /// The token the fd was registered with.
    pub token: u64,
    raw: u32,
}

impl Event {
    /// Readable (or a hangup/error, which reads report as EOF/`Err`).
    pub fn readable(&self) -> bool {
        self.raw & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0
    }

    /// Writable.
    pub fn writable(&self) -> bool {
        self.raw & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0
    }
}

/// A level-triggered epoll instance.
pub struct Poller {
    epfd: RawFd,
    /// Reused `epoll_wait` output buffer.
    buf: Vec<EpollEvent>,
}

impl Poller {
    /// Create a new epoll instance (close-on-exec).
    pub fn new() -> io::Result<Poller> {
        let epfd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        Ok(Poller { epfd, buf: vec![EpollEvent { events: 0, data: 0 }; 1024] })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        let mut ev = EpollEvent { events: interest, data: token };
        cvt(unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) }).map(|_| ())
    }

    /// Register `fd` with the given interest mask (`EPOLLIN` and/or
    /// `EPOLLOUT`; `EPOLLRDHUP` is always added so peer half-closes
    /// surface as readiness).
    pub fn add(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest | EPOLLRDHUP)
    }

    /// Change the interest mask of a registered fd.
    pub fn modify(&self, fd: RawFd, token: u64, interest: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest | EPOLLRDHUP)
    }

    /// Deregister an fd. Harmless to call on an fd the kernel already
    /// dropped (closing an fd auto-deregisters it).
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block until readiness or `timeout_ms` (`-1` = forever), appending
    /// the fired events to `out`. Retries on `EINTR`.
    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        let n = loop {
            let ret = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as c_int,
                    timeout_ms as c_int,
                )
            };
            if ret >= 0 {
                break ret as usize;
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        };
        for ev in &self.buf[..n] {
            // Copy out of the (possibly packed) kernel struct.
            let (events, data) = (ev.events, ev.data);
            out.push(Event { token: data, raw: events });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        unsafe {
            close(self.epfd);
        }
    }
}

// The epoll fd is only touched through &self syscalls.
unsafe impl Send for Poller {}
unsafe impl Sync for Poller {}

/// Cross-thread wakeup for a blocked [`Poller::wait`]: an `eventfd`
/// registered in the poller like any other fd. [`Waker::wake`] makes it
/// readable; the event loop calls [`Waker::drain`] to reset it.
pub struct Waker {
    fd: RawFd,
}

impl Waker {
    /// Create a non-blocking eventfd.
    pub fn new() -> io::Result<Waker> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        Ok(Waker { fd })
    }

    /// The fd to register with the poller.
    pub fn raw_fd(&self) -> RawFd {
        self.fd
    }

    /// Make the eventfd readable, waking a blocked `wait`. Coalesces:
    /// many wakes before a drain cost one wakeup. Never blocks (a full
    /// counter means a wake is already pending).
    pub fn wake(&self) {
        let one: u64 = 1;
        unsafe {
            write(self.fd, (&raw const one).cast::<c_void>(), 8);
        }
    }

    /// Reset the eventfd so the next `wake` re-arms readiness.
    pub fn drain(&self) {
        let mut buf: u64 = 0;
        unsafe {
            read(self.fd, (&raw mut buf).cast::<c_void>(), 8);
        }
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

unsafe impl Send for Waker {}
unsafe impl Sync for Waker {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;
    use std::time::{Duration, Instant};

    #[test]
    fn waker_wakes_a_blocked_wait() {
        let mut poller = Poller::new().unwrap();
        let waker = std::sync::Arc::new(Waker::new().unwrap());
        poller.add(waker.raw_fd(), 7, EPOLLIN).unwrap();

        let w = std::sync::Arc::clone(&waker);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            w.wake();
        });
        let t0 = Instant::now();
        let mut events = Vec::new();
        poller.wait(&mut events, 5_000).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(4), "wait must be woken, not time out");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable());
        h.join().unwrap();

        // Drained, the eventfd stops reporting readiness.
        waker.drain();
        events.clear();
        poller.wait(&mut events, 10).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn socket_readiness_and_timeout() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();
        poller.add(server.as_raw_fd(), 42, EPOLLIN).unwrap();

        // Nothing to read yet: times out empty.
        let mut events = Vec::new();
        let t0 = Instant::now();
        poller.wait(&mut events, 30).unwrap();
        assert!(events.is_empty());
        assert!(t0.elapsed() >= Duration::from_millis(25));

        client.write_all(b"ping").unwrap();
        poller.wait(&mut events, 2_000).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 42);
        assert!(events[0].readable());

        // Level-triggered: unread data keeps reporting.
        events.clear();
        poller.wait(&mut events, 100).unwrap();
        assert_eq!(events.len(), 1, "level-triggered readiness must re-report");

        // Interest can be switched off.
        poller.modify(server.as_raw_fd(), 42, 0).unwrap();
        events.clear();
        poller.wait(&mut events, 30).unwrap();
        assert!(events.is_empty(), "no interest, no events");

        poller.delete(server.as_raw_fd()).unwrap();
    }

    #[test]
    fn peer_close_surfaces_as_readable_hangup() {
        let mut poller = Poller::new().unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        poller.add(server.as_raw_fd(), 1, EPOLLIN).unwrap();
        drop(client);
        let mut events = Vec::new();
        poller.wait(&mut events, 2_000).unwrap();
        assert_eq!(events.len(), 1);
        assert!(events[0].readable(), "close must surface as readable (EOF)");
    }
}
