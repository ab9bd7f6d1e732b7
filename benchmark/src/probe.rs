//! The host-speed probe: a fixed task owned by the benchmark, timed after
//! every round and every setup, so that each timing can be scaled to a
//! nominal host speed.
//!
//! The machine the benchmark runs on is shared, and its speed moves by
//! about 1.6× for minutes at a time: no statistic of raw wall time inside
//! one run removes a slow minute (see `README.md`). The probe runs only
//! benchmark and standard-library code, so a change to the program cannot
//! move it; dividing a timing by the probe's slowdown taken right after it
//! leaves what the program itself changed.
//!
//! The task is a fixed number of 64-byte echo round trips over loopback
//! TCP, to a thread of the probe's own. Of three candidate tasks timed
//! between the workloads' rounds over 12 minutes (this one, Dijkstra over a
//! fixed random graph, and dense matrix-vector products), its slowdown
//! followed the workloads' best: the median over 40 s of round times
//! divided by it spread 0.02–0.09 between windows, against 0.24–0.41 for
//! the raw times and 0.07–0.26 with either other task.

use crate::stats::{median, secs};
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Echo round trips per probe.
const ROUND_TRIPS: u32 = 4000;
/// Bytes per echoed message.
const MESSAGE: usize = 64;
/// The probe's time at nominal host speed: 10 µs per round trip. On the
/// machine the benchmark was built on, a round trip took about 7 µs in its
/// fast phases and about 11 µs in its slow ones.
pub const NOMINAL_S: f64 = ROUND_TRIPS as f64 * 10e-6;
/// Far longer than a probe; a stalled echo thread fails the run instead of
/// hanging it.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// A connected echo pair; dropping it closes the connection and joins the
/// echo thread.
#[derive(Debug)]
pub struct Probe {
    conn: TcpStream,
    echo: Option<JoinHandle<()>>,
    slowdowns: Vec<f64>,
}

impl Probe {
    /// Binds a loopback listener, connects to it and starts the echo
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates bind, connect, accept and socket-option errors.
    pub fn start() -> std::io::Result<Probe> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let conn = TcpStream::connect(listener.local_addr()?)?;
        let (peer, _) = listener.accept()?;
        for s in [&conn, &peer] {
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(READ_TIMEOUT))?;
        }
        let echo = std::thread::spawn(move || echo(peer));
        Ok(Probe {
            conn,
            echo: Some(echo),
            slowdowns: Vec::new(),
        })
    }

    /// Times one probe and returns its slowdown: its time over
    /// [`NOMINAL_S`], above 1 when the host runs slower than nominal.
    ///
    /// # Panics
    ///
    /// Panics when the loopback echo fails.
    pub fn slowdown(&mut self) -> f64 {
        let mut buf = [0u8; MESSAGE];
        let t0 = Instant::now();
        for _ in 0..ROUND_TRIPS {
            self.conn
                .write_all(&buf)
                .and_then(|()| self.conn.read_exact(&mut buf))
                .expect("loopback echo to the probe's own thread");
        }
        let slowdown = secs(t0) / NOMINAL_S;
        self.slowdowns.push(slowdown);
        slowdown
    }

    /// Median slowdown of every probe so far (0 before the first).
    pub fn median_slowdown(&self) -> f64 {
        median(&self.slowdowns)
    }
}

fn echo(mut peer: TcpStream) {
    let mut buf = [0u8; MESSAGE];
    while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
}

impl Drop for Probe {
    fn drop(&mut self) {
        // The echo thread's read ends once the connection is shut down.
        let _ = self.conn.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdowns_are_positive_and_the_echo_thread_ends_on_drop() {
        let mut probe = Probe::start().expect("loopback probe");
        let (a, b) = (probe.slowdown(), probe.slowdown());
        assert!(a > 0.0 && b > 0.0);
        // The nearest-rank median of two values is the lower one.
        assert_eq!(probe.median_slowdown(), a.min(b));
        drop(probe);
    }
}
