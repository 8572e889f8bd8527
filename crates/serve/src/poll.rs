//! A dependency-free readiness poller for the serve event loop.
//!
//! It wraps Linux `epoll` through raw `extern "C"` declarations
//! (level-triggered — the event loop reads/writes until `WouldBlock`,
//! so level semantics are the simple, correct choice). The service is
//! Linux-only; the crate root refuses to compile anywhere else.
//!
//! The poller itself is single-threaded — it lives on the event-loop
//! thread. Cross-thread wake-up goes through an anonymous pipe
//! ([`std::io::pipe`]): workers hold a cloneable [`WakeHandle`] and
//! write one byte; the read end is registered in the poller like any
//! other fd, so a wake is just another readiness event.

use std::io;
use std::io::{PipeReader, PipeWriter, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::sync::Arc;

/// What the event loop wants to hear about for a registered fd. Read
/// interest is implicit — every registration listens for readability;
/// write interest is added only while a connection has unflushed
/// output.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interest {
    /// Readability (and hangup) only.
    Read,
    /// Readability plus writability.
    ReadWrite,
}

/// One readiness event, translated to poller-independent flags.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// The token the fd was registered under.
    pub token: u64,
    /// Data (or EOF) can be read without blocking.
    pub readable: bool,
    /// The socket's send buffer has room again.
    pub writable: bool,
    /// Peer hung up or the fd errored; the connection is dead.
    pub hangup: bool,
}

/// Cross-thread wake-up handle: writing a byte to the pipe makes the
/// poller's next `wait` return with the waker token readable.
#[derive(Clone)]
pub struct WakeHandle(Arc<PipeWriter>);

impl WakeHandle {
    /// Wake the poller. Best-effort: a full pipe already guarantees a
    /// pending wake, and a closed pipe means the loop is gone.
    #[allow(clippy::unused_io_amount, reason = "one byte or a full pipe both mean a wake is due")]
    pub fn wake(&self) {
        // Deliberately `write`, not `write_all`: a full pipe must not
        // block a worker — pending bytes already mean a wake is due.
        let _ = (&*self.0).write(&[1u8]);
    }
}

/// The read end of the wake pipe, owned by the event loop. After a
/// readiness event on the waker token, [`Waker::drain`] consumes the
/// pending bytes (coalescing any number of wakes).
pub struct Waker {
    rx: PipeReader,
}

impl Waker {
    /// The fd to register in the poller.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }

    /// Consume pending wake bytes. A single bounded read suffices: a
    /// pipe with data never blocks to fill the buffer, and any bytes
    /// left behind simply keep the fd readable for the next `wait`.
    #[allow(clippy::unused_io_amount, reason = "bytes left behind keep the fd readable")]
    pub fn drain(&mut self) {
        let mut buf = [0u8; 256];
        let _ = self.rx.read(&mut buf);
    }
}

/// Create the wake pipe: the loop-side [`Waker`] and a cloneable
/// [`WakeHandle`] for worker threads.
pub fn wake_pair() -> io::Result<(Waker, WakeHandle)> {
    let (rx, tx) = std::io::pipe()?;
    Ok((Waker { rx }, WakeHandle(Arc::new(tx))))
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
const EPOLLERR: u32 = 0x008;
const EPOLLHUP: u32 = 0x010;
const EPOLLRDHUP: u32 = 0x2000;

// The kernel ABI struct; packed on x86-64 only (no padding between the
// 32-bit event mask and the 64-bit payload there; naturally aligned on
// every other architecture).
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
#[derive(Clone, Copy)]
struct EpollEvent {
    events: u32,
    data: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
    fn close(fd: i32) -> i32;
}

fn mask(interest: Interest) -> u32 {
    match interest {
        Interest::Read => EPOLLIN | EPOLLRDHUP,
        Interest::ReadWrite => EPOLLIN | EPOLLRDHUP | EPOLLOUT,
    }
}

/// The epoll readiness poller.
pub struct Poller {
    epfd: RawFd,
}

impl Poller {
    pub fn new() -> io::Result<Self> {
        // SAFETY: epoll_create1 takes a flag word and touches no memory of ours.
        let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if epfd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Poller { epfd })
    }

    fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        let mut ev = EpollEvent { events: mask(interest), data: token };
        // SAFETY: `ev` is a live, properly laid out `epoll_event` for the
        // whole call; the kernel only reads it.
        let rc = unsafe { epoll_ctl(self.epfd, op, fd, &raw mut ev) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, interest)
    }

    pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, interest)
    }

    pub fn remove(&mut self, fd: RawFd) -> io::Result<()> {
        // The kernel ignores the event of a delete (but wants a pointer).
        self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::Read)
    }

    pub fn wait(&mut self, out: &mut Vec<Event>, timeout_ms: i32) -> io::Result<()> {
        out.clear();
        let mut raw = [EpollEvent { events: 0, data: 0 }; 128];
        // SAFETY: `raw` is a writable array of `raw.len()` events that
        // outlives the call, and the kernel writes at most that many.
        let n = unsafe {
            epoll_wait(
                self.epfd,
                raw.as_mut_ptr(),
                i32::try_from(raw.len()).expect("event buffer fits i32"),
                timeout_ms,
            )
        };
        if n < 0 {
            let err = io::Error::last_os_error();
            if err.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(err);
        }
        for ev in raw.iter().take(n.unsigned_abs() as usize) {
            let bits = ev.events;
            out.push(Event {
                token: ev.data,
                readable: bits & EPOLLIN != 0,
                writable: bits & EPOLLOUT != 0,
                hangup: bits & (EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        // SAFETY: `epfd` is this poller's own descriptor, closed only here.
        unsafe {
            close(self.epfd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn poller_reports_listener_readability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        listener.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(listener.as_raw_fd(), 7, Interest::Read).unwrap();

        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "no connection yet: {events:?}");

        let _client = TcpStream::connect(addr).unwrap();
        poller.wait(&mut events, 2_000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.readable), "{events:?}");
    }

    #[test]
    fn waker_wakes_and_drains() {
        let (mut waker, handle) = wake_pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(waker.fd(), 1, Interest::Read).unwrap();

        let mut events = Vec::new();
        handle.wake();
        handle.wake();
        poller.wait(&mut events, 2_000).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.readable), "{events:?}");
        waker.drain();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty(), "wake bytes not drained: {events:?}");
    }

    #[test]
    fn write_interest_fires_on_connected_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_nonblocking(true).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.write_all(b"x").unwrap();
        drop(server);

        let mut poller = Poller::new().unwrap();
        poller.add(client.as_raw_fd(), 3, Interest::ReadWrite).unwrap();
        let mut events = Vec::new();
        poller.wait(&mut events, 2_000).unwrap();
        assert!(events.iter().any(|e| e.token == 3 && e.writable), "{events:?}");
        poller.remove(client.as_raw_fd()).unwrap();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.is_empty());
    }
}
