//! Minimal `epoll`/`eventfd` bindings over the glibc the std library
//! already links — no `libc` crate, keeping the workspace's
//! no-external-deps stance. Linux-only (gated at the module level).
//!
//! Everything here is a thin RAII wrapper: [`Epoll`] owns the epoll
//! instance and [`WakeFd`] an `eventfd` used to kick the event loop out
//! of `epoll_wait` from other threads. Sockets themselves are std's
//! `TcpStream`/`TcpListener`; file descriptors travel as [`std::os::fd`]
//! types, and nothing outside this module touches a raw syscall.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd, RawFd};
use std::time::Duration;

#[allow(non_camel_case_types)]
type c_int = i32;

/// One readiness event, matching the kernel's `struct epoll_event`
/// layout (packed on x86-64, naturally aligned elsewhere).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Readiness bits (`EPOLLIN` | `EPOLLOUT` | ...).
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

/// Readable.
pub const EPOLLIN: u32 = 0x001;
/// Writable.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, no need to register).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (always reported, no need to register).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its write half.
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CLOEXEC: c_int = 0o2000000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EFD_CLOEXEC: c_int = 0o2000000;
const EFD_NONBLOCK: c_int = 0o4000;

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn eventfd(initval: u32, flags: c_int) -> c_int;
    fn read(fd: c_int, buf: *mut u8, count: usize) -> isize;
    fn write(fd: c_int, buf: *const u8, count: usize) -> isize;
    fn sched_setscheduler(pid: c_int, policy: c_int, param: *const SchedParam) -> c_int;
}

#[repr(C)]
struct SchedParam {
    sched_priority: c_int,
}

const SCHED_BATCH: c_int = 3;

/// Put the calling thread under `SCHED_BATCH`.
///
/// A thread that sleeps on an event source most of the time — a mesh
/// runner in `epoll_wait`, a node loop on its inbox — looks interactive
/// to the scheduler, which lets it wakeup-preempt whichever thread just
/// woke it. That is usually a sender mid-way through a burst of
/// messages, so the burst fragments into one context switch per
/// message. `SCHED_BATCH` exists for exactly this: the thread stays at
/// normal priority but no longer preempts on wakeup, so senders finish
/// their burst and the woken thread then drains all of it in one round.
/// Failure is ignored (the policy is an optimization, not a
/// correctness need).
pub fn set_batch_scheduling() {
    let param = SchedParam { sched_priority: 0 };
    // pid 0 targets only the calling thread.
    let _ = unsafe { sched_setscheduler(0, SCHED_BATCH, &param) };
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance.
pub struct Epoll {
    fd: OwnedFd,
}

impl Epoll {
    /// `epoll_create1(EPOLL_CLOEXEC)`.
    pub fn new() -> io::Result<Epoll> {
        let fd = cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: epoll_create1 returned a fresh fd we now own.
        Ok(Epoll {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        cvt(unsafe { epoll_ctl(self.fd.as_raw_fd(), op, fd, &mut ev) }).map(|_| ())
    }

    /// Register `fd` for `events`, tagged with `token`.
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Change the registered event mask of `fd`.
    pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Deregister `fd`.
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block for ready events, up to `timeout` (`None` = forever).
    /// Returns how many entries of `events` were filled.
    pub fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> io::Result<usize> {
        let ms: c_int = match timeout {
            None => -1,
            // Round *up* so a sub-millisecond deadline doesn't spin.
            Some(t) => t
                .as_millis()
                .saturating_add(u128::from(t.subsec_nanos() % 1_000_000 != 0))
                .min(i32::MAX as u128) as c_int,
        };
        loop {
            let n = unsafe {
                epoll_wait(
                    self.fd.as_raw_fd(),
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl AsRawFd for Epoll {
    /// An epoll fd is itself pollable (readable when it has ready
    /// events), so one epoll instance can be nested under another.
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

/// An `eventfd` used to wake the event loop from other threads.
pub struct WakeFd {
    fd: OwnedFd,
}

impl WakeFd {
    /// A fresh nonblocking eventfd.
    pub fn new() -> io::Result<WakeFd> {
        let fd = cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?;
        // SAFETY: eventfd returned a fresh fd we now own.
        Ok(WakeFd {
            fd: unsafe { OwnedFd::from_raw_fd(fd) },
        })
    }

    /// Make the loop's next (or current) `epoll_wait` return. Safe from
    /// any thread; failures are ignored (worst case the loop wakes on
    /// its timeout instead).
    pub fn wake(&self) {
        let one = 1u64.to_ne_bytes();
        let _ = unsafe { write(self.fd.as_raw_fd(), one.as_ptr(), one.len()) };
    }

    /// Consume pending wakeups so the fd reads as idle again.
    pub fn drain(&self) {
        let mut buf = [0u8; 8];
        let _ = unsafe { read(self.fd.as_raw_fd(), buf.as_mut_ptr(), buf.len()) };
    }
}

impl AsRawFd for WakeFd {
    fn as_raw_fd(&self) -> RawFd {
        self.fd.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eventfd_wakes_epoll_wait() {
        let ep = Epoll::new().unwrap();
        let wake = WakeFd::new().unwrap();
        ep.add(wake.as_raw_fd(), 7, EPOLLIN).unwrap();
        let mut evs = [EpollEvent::default(); 4];
        // Nothing pending: times out empty.
        let n = ep.wait(&mut evs, Some(Duration::from_millis(5))).unwrap();
        assert_eq!(n, 0);
        wake.wake();
        let n = ep.wait(&mut evs, Some(Duration::from_secs(1))).unwrap();
        assert_eq!(n, 1);
        assert_eq!({ evs[0].data }, 7);
        wake.drain();
        let n = ep.wait(&mut evs, Some(Duration::from_millis(5))).unwrap();
        assert_eq!(n, 0);
    }
}
