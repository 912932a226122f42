//! Waking a loop that blocks in `epoll_wait` from other threads — but
//! only when it has said it is about to block, so while the loop is busy
//! a sender pays one fence and one load, not a syscall.
//!
//! The handshake is Dekker's: the sender publishes its input (e.g. a
//! channel push), fences, then reads the loop's `sleeping` flag; the
//! loop sets the flag, fences, then re-checks its inputs. At least one
//! side sees the other, so a wake-up is never lost.

use std::io::{self, Read, Write};
use std::os::fd::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;

struct WakeShared {
    sleeping: AtomicBool,
    tx: UnixStream,
}

/// The senders' half: cheap to clone, a no-op when built with
/// [`Waker::default`] (for queues whose consumer blocks on the queue
/// itself).
#[derive(Clone, Default)]
pub struct Waker {
    inner: Option<Arc<WakeShared>>,
}

impl Waker {
    /// Call after publishing input for the loop: wakes it if it is
    /// blocked or about to block.
    pub fn wake(&self) {
        let Some(w) = &self.inner else {
            return;
        };
        fence(Ordering::SeqCst);
        if w.sleeping.load(Ordering::Relaxed) && w.sleeping.swap(false, Ordering::AcqRel) {
            // A full pipe already holds a pending wake.
            let _ = (&w.tx).write(&[1u8]);
        }
    }
}

/// The loop's half: register [`WakeRx::fd`] for readability in the
/// loop's poller.
pub struct WakeRx {
    shared: Arc<WakeShared>,
    rx: UnixStream,
}

impl WakeRx {
    /// A connected pair.
    pub fn pair() -> io::Result<(WakeRx, Waker)> {
        let (rx, tx) = UnixStream::pair()?;
        rx.set_nonblocking(true)?;
        tx.set_nonblocking(true)?;
        let shared = Arc::new(WakeShared {
            sleeping: AtomicBool::new(false),
            tx,
        });
        let waker = Waker {
            inner: Some(Arc::clone(&shared)),
        };
        Ok((WakeRx { shared, rx }, waker))
    }

    /// Mark the loop about to block, then re-check its other inputs
    /// with `pending`. Returns whether the loop may block; if it may,
    /// call [`WakeRx::woke`] once the wait returns.
    pub fn prepare_block(&self, pending: impl FnOnce() -> bool) -> bool {
        self.shared.sleeping.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        if pending() {
            self.shared.sleeping.store(false, Ordering::Relaxed);
            return false;
        }
        true
    }

    /// The wait returned: senders need not wake the loop until it next
    /// prepares to block.
    pub fn woke(&self) {
        self.shared.sleeping.store(false, Ordering::Relaxed);
    }

    /// Consume pending wake bytes (the fd reported readable).
    pub fn drain(&mut self) {
        let mut buf = [0u8; 64];
        while self.rx.read(&mut buf).is_ok_and(|n| n > 0) {}
    }

    /// The fd to poll for readability.
    pub fn fd(&self) -> RawFd {
        self.rx.as_raw_fd()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_writes_only_while_the_loop_sleeps() {
        let (mut rx, waker) = WakeRx::pair().unwrap();
        let mut buf = [0u8; 8];
        // Busy loop: no byte is written.
        waker.wake();
        assert!(rx.rx.read(&mut buf).is_err(), "no wake byte while busy");
        // About to block with nothing pending: one wake, one byte, even
        // for repeated wakes.
        assert!(rx.prepare_block(|| false));
        waker.wake();
        waker.wake();
        assert_eq!(rx.rx.read(&mut buf).unwrap(), 1);
        rx.woke();
        // Pending input keeps the loop from blocking at all.
        assert!(!rx.prepare_block(|| true));
        waker.wake();
        assert!(rx.rx.read(&mut buf).is_err());
        rx.drain();
        // The no-op waker never fails.
        Waker::default().wake();
    }
}
