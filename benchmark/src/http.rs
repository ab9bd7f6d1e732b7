//! A minimal keep-alive HTTP/1.1 client for driving `pmd`.
//!
//! Every request carries `Connection: keep-alive` explicitly: `pmd` closes
//! the socket after each response otherwise, and the next request on the
//! same socket then fails with a broken pipe.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Far longer than any response (an on-demand solve takes about a
/// millisecond), and short enough that a stalled server fails the run well
/// inside its time limit.
const READ_TIMEOUT: Duration = Duration::from_secs(20);

/// One persistent connection.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    request: Vec<u8>,
}

impl Conn {
    /// Opens a connection to `addr` with Nagle off.
    ///
    /// # Errors
    ///
    /// Propagates connect and socket-option errors.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            request: Vec::with_capacity(256),
        })
    }

    /// Sends one request and reads the whole response; returns the status
    /// code and leaves the body in `body`. Any status is returned as is;
    /// only transport and framing errors are `Err`.
    ///
    /// # Errors
    ///
    /// I/O errors, a malformed status line or a response that closes the
    /// connection (the caller must reconnect after any error).
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        out: &mut Vec<u8>,
    ) -> std::io::Result<u16> {
        self.request.clear();
        write!(
            self.request,
            "{method} {path} HTTP/1.1\r\nHost: pmd\r\nConnection: keep-alive\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.reader.get_mut().write_all(&self.request)?;

        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status: u16 = line
            .strip_prefix("HTTP/1.1 ")
            .and_then(|rest| rest.get(..3))
            .and_then(|code| code.parse().ok())
            .ok_or_else(|| bad(format!("malformed status line {line:?}")))?;
        let mut length = None;
        let mut closes = false;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the response head".into()));
            }
            if line == "\r\n" {
                break;
            }
            let lower = line.to_ascii_lowercase();
            if let Some(v) = lower.strip_prefix("content-length:") {
                length = v.trim().parse::<usize>().ok();
            } else if lower.starts_with("connection:") && lower.contains("close") {
                closes = true;
            }
        }
        let length = length.ok_or_else(|| bad("response without Content-Length".into()))?;
        out.clear();
        out.resize(length, 0);
        self.reader.read_exact(out)?;
        if closes {
            return Err(bad(format!("server closed the connection after {status}")));
        }
        Ok(status)
    }
}

fn bad(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

/// The `"generation": N` stamp of a `pmd` response body, read without a
/// full JSON parse (it sits near the top of every body).
pub fn generation_of(body: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"generation\": ";
    let at = body.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = body[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&body[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_stamp_is_read_from_the_body_head() {
        assert_eq!(generation_of(b"{\n  \"generation\": 17,\n"), Some(17));
        assert_eq!(generation_of(b"{\"error\": \"x\"}"), None);
    }
}
