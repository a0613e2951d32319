//! Open-loop load generator.
//!
//! Each connection runs on its own thread with a precomputed schedule of
//! intended send times. Requests are sent when due whether or not
//! earlier replies have arrived (pipelined), and replies are matched to
//! requests first-in first-out. Latency is timed from the intended send
//! time, so a stall also charges the requests queued behind it (the
//! coordinated-omission correction of Tene's "How NOT to Measure
//! Latency").
//!
//! Threads wait with `ppoll(2)` and a nanosecond timeout until the next
//! send is due. On a 2-vCPU VM, pacing `serve-probe` with a socket read
//! timeout (`SO_RCVTIMEO`) instead ran 7.1–7.5 ms late at p99 and more
//! than doubled the measured probe p50 (4.5–4.8 ms against 1.6–2.0 ms);
//! `ppoll` pacing ran 0.14–0.24 ms late.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

/// One request and the time, from the start of the run, it is due.
#[derive(Debug, Clone)]
pub struct Request {
    pub due: Duration,
    /// The request line, without its newline.
    pub line: String,
}

/// What happened to one request.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub due: Duration,
    /// When the generator handed the request to the socket.
    pub sent: Duration,
    /// When its reply line arrived (`None`: no reply).
    pub done: Option<Duration>,
    pub reply: String,
}

impl Outcome {
    /// Milliseconds from the intended send time to the reply.
    pub fn latency_ms(&self) -> Option<f64> {
        self.done
            .map(|d| d.saturating_sub(self.due).as_secs_f64() * 1e3)
    }

    /// Milliseconds the generator sent the request after it was due.
    pub fn late_ms(&self) -> f64 {
        self.sent.saturating_sub(self.due).as_secs_f64() * 1e3
    }
}

/// Requests sent at `rate` per second with fixed spacing, the first at
/// `offset`.
pub fn fixed_rate(lines: Vec<String>, rate: f64, offset: Duration) -> Vec<Request> {
    lines
        .into_iter()
        .enumerate()
        .map(|(i, line)| Request {
            due: offset + Duration::from_secs_f64(i as f64 / rate),
            line,
        })
        .collect()
}

#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: i16 = 0x1;
const POLLOUT: i16 = 0x4;

extern "C" {
    // libc is linked by std; ppoll(2) takes a nanosecond timeout.
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
}

/// Waits until `stream` is readable (or writable, with `want_write`) or
/// `timeout` passes.
fn wait(stream: &TcpStream, want_write: bool, timeout: Duration) -> io::Result<()> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN | if want_write { POLLOUT } else { 0 },
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live, properly laid-out locals for the
    // whole call, `nfds` is 1 to match the single `PollFd`, and a null
    // sigmask leaves the signal mask unchanged.
    let rc = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    if rc < 0 {
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    Ok(())
}

/// The peer went away: the remaining requests go unanswered.
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
    )
}

/// Sends `schedule` over one new connection to `addr`, timing against
/// `start`, and waits up to `drain` after the last send for the
/// remaining replies. Returns one outcome per request, in order.
pub fn drive(
    addr: SocketAddr,
    schedule: &[Request],
    start: Instant,
    drain: Duration,
) -> io::Result<Vec<Outcome>> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let mut stream_w = &stream;
    let mut stream_r = &stream;

    let mut outcomes: Vec<Outcome> = Vec::with_capacity(schedule.len());
    let mut pending: VecDeque<usize> = VecDeque::new();
    let mut outbox: Vec<u8> = Vec::new();
    let mut inbox: Vec<u8> = Vec::new();
    let mut buf = [0u8; 64 * 1024];
    let last_due = schedule.last().map_or(Duration::ZERO, |r| r.due);
    let deadline = last_due + drain;
    let mut next = 0;
    let mut closed = false;

    loop {
        let now = start.elapsed();
        while next < schedule.len() && schedule[next].due <= now {
            outbox.extend_from_slice(schedule[next].line.as_bytes());
            outbox.push(b'\n');
            outcomes.push(Outcome {
                due: schedule[next].due,
                sent: start.elapsed(),
                done: None,
                reply: String::new(),
            });
            pending.push_back(next);
            next += 1;
        }
        while !outbox.is_empty() && !closed {
            match stream_w.write(&outbox) {
                Ok(0) => closed = true,
                Ok(n) => {
                    outbox.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_disconnect(&e) => closed = true,
                Err(e) => return Err(e),
            }
        }
        if closed || (next == schedule.len() && pending.is_empty()) {
            break;
        }
        let now = start.elapsed();
        let until = if next < schedule.len() {
            schedule[next].due
        } else {
            deadline
        };
        if next == schedule.len() && now >= deadline {
            break;
        }
        wait(&stream, !outbox.is_empty(), until.saturating_sub(now))?;
        loop {
            match stream_r.read(&mut buf) {
                Ok(0) => {
                    closed = true;
                    break;
                }
                Ok(n) => inbox.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if is_disconnect(&e) => {
                    closed = true;
                    break;
                }
                Err(e) => return Err(e),
            }
        }
        let done = start.elapsed();
        while let Some(pos) = inbox.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = inbox.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..pos]).trim_end().to_string();
            match pending.pop_front() {
                Some(i) => {
                    outcomes[i].done = Some(done);
                    outcomes[i].reply = text;
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("reply without a pending request: {text}"),
                    ))
                }
            }
        }
    }
    // Requests never sent (connection closed early) count as unanswered.
    for r in &schedule[outcomes.len()..] {
        outcomes.push(Outcome {
            due: r.due,
            sent: r.due,
            done: None,
            reply: String::new(),
        });
    }
    Ok(outcomes)
}

/// Drives each schedule over its own connection and thread, all timed
/// from `start`.
pub fn drive_all(
    addr: SocketAddr,
    schedules: &[Vec<Request>],
    start: Instant,
    drain: Duration,
) -> io::Result<Vec<Vec<Outcome>>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|s| scope.spawn(move || drive(addr, s, start, drain)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load generator thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;

    /// A server that answers each line with `echo <line>`, stalling
    /// `stall` before the first answer.
    fn stalling_echo(stall: Duration) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut first = true;
            for line in BufReader::new(stream).lines() {
                let line = line.unwrap();
                if first {
                    std::thread::sleep(stall);
                    first = false;
                }
                writeln!(writer, "echo {line}").unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn replies_match_fifo_and_latency_counts_from_the_due_time() {
        let (addr, server) = stalling_echo(Duration::from_millis(60));
        let lines: Vec<String> = (0..5).map(|i| format!("req{i}")).collect();
        let schedule = fixed_rate(lines, 100.0, Duration::from_millis(5));
        let out = drive(addr, &schedule, Instant::now(), Duration::from_secs(5)).unwrap();
        server.join().unwrap();
        assert_eq!(out.len(), 5);
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.reply, format!("echo req{i}"));
        }
        // req4 was due 40 ms after req0 but waited behind the 60 ms
        // stall: its latency from the due time covers that wait.
        let last = out[4].latency_ms().unwrap();
        assert!(last >= 15.0, "latency {last} ms hides the stall");
        assert!(out[0].latency_ms().unwrap() >= 60.0);
    }

    #[test]
    fn lateness_is_send_time_minus_due_time() {
        let o = Outcome {
            due: Duration::from_millis(10),
            sent: Duration::from_micros(10_250),
            done: None,
            reply: String::new(),
        };
        assert!((o.late_ms() - 0.25).abs() < 1e-9);
        assert_eq!(o.latency_ms(), None);
        let early = Outcome {
            sent: Duration::from_millis(9),
            ..o
        };
        assert_eq!(early.late_ms(), 0.0);
    }

    #[test]
    fn unanswered_requests_are_reported_without_a_reply() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            writeln!(writer, "only one").unwrap();
        });
        let schedule = fixed_rate(vec!["a".into(), "b".into()], 50.0, Duration::ZERO);
        let out = drive(addr, &schedule, Instant::now(), Duration::from_millis(300)).unwrap();
        server.join().unwrap();
        assert_eq!(out[0].reply, "only one");
        assert!(out[1].done.is_none());
    }
}
