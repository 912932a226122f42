//! Thin raw-FFI surface over Linux `epoll` — the workspace is hermetic
//! (no `libc` crate), so the three syscall wrappers the reactor needs
//! are declared directly against the C library. Everything above this
//! module is safe Rust.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::c_int;

/// Readable readiness.
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness.
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (always reported, never requested).
pub const EPOLLERR: u32 = 0x008;
/// Peer hung up (always reported, never requested).
pub const EPOLLHUP: u32 = 0x010;
/// Disarm the fd after delivering one event; re-arm with
/// [`Epoll::modify`]. The reactor uses this so a peer whose turn is
/// still queued generates no further wakeups.
pub const EPOLLONESHOT: u32 = 1 << 30;

const SOL_SOCKET: c_int = 1;
const SO_SNDBUF: c_int = 7;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

/// The kernel's `struct epoll_event`. On x86-64 the kernel declares it
/// packed (a 12-byte struct); other 64-bit ABIs use natural alignment —
/// mirror glibc's layout exactly or `epoll_wait` scribbles garbage.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy)]
pub struct EpollEvent {
    /// Ready-event bitmask (`EPOLLIN` | …).
    pub events: u32,
    /// The caller's registration token.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        name: c_int,
        value: *const std::ffi::c_void,
        len: u32,
    ) -> c_int;
}

/// Ask for a socket send buffer of `bytes` (`SO_SNDBUF`; the kernel
/// caps it at `net.core.wmem_max` and doubles it for bookkeeping).
pub fn set_send_buffer(fd: RawFd, bytes: usize) -> io::Result<()> {
    let v = bytes.min(c_int::MAX as usize) as c_int;
    // SAFETY: `v` outlives the call and `len` is its exact size.
    let rc = unsafe {
        setsockopt(
            fd,
            SOL_SOCKET,
            SO_SNDBUF,
            &v as *const c_int as *const std::ffi::c_void,
            std::mem::size_of::<c_int>() as u32,
        )
    };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(())
}

/// A safe owner of one epoll instance.
#[derive(Debug)]
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// A fresh epoll instance (close-on-exec).
    pub fn create() -> io::Result<Epoll> {
        // SAFETY: no pointers involved; the return value is checked.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(Epoll { fd })
    }

    fn ctl(&self, op: c_int, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        let mut ev = EpollEvent {
            events: interest,
            data: token,
        };
        let evp = if op == EPOLL_CTL_DEL {
            std::ptr::null_mut()
        } else {
            &mut ev as *mut EpollEvent
        };
        // SAFETY: `evp` is either null (DEL ignores it) or points at a
        // live, correctly-laid-out EpollEvent for the duration of the
        // call.
        let rc = unsafe { epoll_ctl(self.fd, op, fd, evp) };
        if rc < 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }

    /// Register `fd` with the given interest set; readiness for it is
    /// reported with `token`.
    pub fn add(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, interest, token)
    }

    /// Change an existing registration's interest set.
    pub fn modify(&self, fd: RawFd, interest: u32, token: u64) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, interest, token)
    }

    /// Remove a registration (safe to call on an already-closed fd —
    /// the error is reported, not panicked on).
    pub fn del(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block for ready events, at most `timeout_ms` (negative = forever).
    /// Returns how many entries of `events` were filled. `EINTR` is
    /// retried internally.
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            // SAFETY: the pointer/len pair describes a live mutable
            // slice the kernel fills up to `maxevents` entries of.
            let rc = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            if rc >= 0 {
                return Ok(rc as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        // SAFETY: we own the fd and close it exactly once.
        unsafe {
            let _ = close(self.fd);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn epoll_reports_readable_pair() {
        let ep = Epoll::create().unwrap();
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        ep.add(b.as_raw_fd(), EPOLLIN, 7).unwrap();

        let mut evs = [EpollEvent { events: 0, data: 0 }; 4];
        // Nothing written yet: a zero-timeout wait reports nothing.
        assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0);

        a.write_all(b"x").unwrap();
        let n = ep.wait(&mut evs, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = evs[0];
        let (events, data) = (ev.events, ev.data);
        assert_eq!(data, 7);
        assert!(events & EPOLLIN != 0);

        // Interest can be switched to write readiness.
        ep.modify(b.as_raw_fd(), EPOLLOUT, 7).unwrap();
        let n = ep.wait(&mut evs, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = evs[0];
        let events = ev.events;
        assert!(events & EPOLLOUT != 0);

        ep.del(b.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut evs, 0).unwrap(), 0);
    }
}
