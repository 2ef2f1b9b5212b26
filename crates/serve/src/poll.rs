//! `poll(2)`, the workspace's one foreign call: what an HTTP worker's
//! readiness loop sleeps in (see [`crate::http`]). The standard library
//! has non-blocking sockets but no way to wait on several of them.

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Readable, or a pending connection on a listener.
pub(crate) const POLLIN: c_short = 0x001;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x004;

#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type Nfds = std::ffi::c_uint;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// One `struct pollfd`: a descriptor, the events asked for, and the events
/// [`wait`] found.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub(crate) struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Asks for `events` on `fd`. A descriptor closed before the wait is
    /// reported as invalid by the kernel, never touched.
    pub(crate) fn new(fd: &impl AsRawFd, events: c_short) -> PollFd {
        PollFd {
            fd: fd.as_raw_fd(),
            events,
            revents: 0,
        }
    }

    /// What the last [`wait`] found on this descriptor.
    pub(crate) fn revents(&self) -> c_short {
        self.revents
    }
}

/// Sleeps until some entry of `fds` is ready or `timeout` has passed
/// (`None` waits for readiness alone) and returns how many entries are.
/// The timeout is rounded up to whole milliseconds, so a caller waiting for
/// a deadline wakes at or after it. A wait a signal interrupts returns 0.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let ms = timeout.map_or(-1, |t| {
        c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX)
    });
    // SAFETY: `PollFd` has the layout of `struct pollfd`, and `poll` reads
    // and writes exactly `fds.len()` of them at `fds.as_mut_ptr()`, which
    // the exclusive borrow keeps valid and unaliased for the call.
    let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as Nfds, ms) };
    match usize::try_from(ready) {
        Ok(n) => Ok(n),
        Err(_) => match io::Error::last_os_error() {
            e if e.kind() == io::ErrorKind::Interrupted => Ok(0),
            e => Err(e),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    /// Hung up: reported whatever was asked for.
    const POLLHUP: c_short = 0x010;

    fn readiness(stream: &TcpStream) -> c_short {
        let mut fds = [PollFd::new(stream, POLLIN)];
        wait(&mut fds, Some(Duration::from_secs(5))).expect("poll a loopback socket");
        fds[0].revents()
    }

    #[test]
    fn reports_readable_then_end_of_stream_on_a_loopback_pair() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let mut peer = TcpStream::connect(listener.local_addr().expect("bound")).expect("connect");
        let (mut local, _) = listener.accept().expect("accept");

        let mut fds = [PollFd::new(&local, POLLIN)];
        assert_eq!(wait(&mut fds, Some(Duration::ZERO)).expect("poll"), 0);
        assert_eq!(fds[0].revents(), 0, "nothing sent yet");

        peer.write_all(b"x").expect("send one byte");
        assert_eq!(readiness(&local) & POLLIN, POLLIN);
        let mut byte = [0u8; 1];
        local.read_exact(&mut byte).expect("read the byte");

        drop(peer);
        assert_ne!(readiness(&local) & (POLLIN | POLLHUP), 0);
        assert_eq!(local.read(&mut byte).expect("read after close"), 0, "EOF");
    }
}
