//! A small blocking wire client: formats request lines, reads frames,
//! and collects a whole query run. Used by the load generator, the
//! loopback tests, and the simulation harness's wire episodes.

use crate::protocol::{
    read_frame, write_all_slices, ErrorCode, Frame, QueryRequest, WireAnswer, WireStats,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rapidviz::RoundUpdate;
use std::io::{BufReader, IoSlice};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Everything one query produced on the wire, in arrival order.
#[derive(Debug, Default)]
pub struct QueryRun {
    /// Every intermediate round frame (the server may drop some for slow
    /// clients; [`crate::server::ServerStats::frames_dropped_slow`] says
    /// whether any were).
    pub rounds: Vec<RoundUpdate>,
    /// The resume token from the server's [`Frame::Parked`] announcement,
    /// if the session was made durable. Present even on completed runs
    /// (the token was granted at admission); only useful after a
    /// disconnect or crash, via [`WireClient::resume`].
    pub token: Option<u64>,
    /// Set if the server evicted the session (resident bytes at
    /// eviction); a best-effort answer still follows.
    pub evicted: Option<u64>,
    /// The terminal answer, if the query was admitted and ran.
    pub answer: Option<WireAnswer>,
    /// The terminal error, if the query was rejected or the run failed.
    pub error: Option<(ErrorCode, String)>,
}

impl QueryRun {
    /// Whether the run ended with a terminal frame at all (answer or
    /// structured error — as opposed to the connection dying mid-stream).
    #[must_use]
    pub fn terminated(&self) -> bool {
        self.answer.is_some() || self.error.is_some()
    }
}

/// A blocking connection to a `rapidviz-serve` server. Frames are read
/// through a buffer, so a stream of small frames costs few reads.
pub struct WireClient {
    stream: BufReader<TcpStream>,
}

impl WireClient {
    /// Connects with a timeout on every socket operation.
    ///
    /// # Errors
    ///
    /// Propagates connect/configure failures.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self {
            stream: BufReader::new(stream),
        })
    }

    /// Sends a `QUERY` line without reading anything back — callers
    /// stream frames themselves with [`WireClient::next_frame`] (or walk
    /// away, to exercise disconnect paths).
    ///
    /// # Errors
    ///
    /// [`std::io::ErrorKind::InvalidInput`], with nothing written, when
    /// the line would not parse back to `request` (a value holding a
    /// separator, an empty `IN` list, a non-finite number): the server
    /// would answer a different query or none. Otherwise propagates socket
    /// write failures.
    pub fn send_request(&mut self, request: &QueryRequest) -> std::io::Result<()> {
        let line = request.to_line();
        if QueryRequest::parse_line(&line).as_ref() != Ok(request) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("request does not survive its own line: {line:?}"),
            ));
        }
        self.send_line(&line)
    }

    /// Sends one raw protocol line (LF appended). Public so robustness
    /// tests can speak malformed dialect on purpose.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn send_line(&mut self, line: &str) -> std::io::Result<()> {
        let mut bufs = [IoSlice::new(line.as_bytes()), IoSlice::new(b"\n")];
        write_all_slices(self.stream.get_mut(), &mut bufs)
    }

    /// Reads the next frame; `Ok(None)` on a clean server close.
    ///
    /// # Errors
    ///
    /// Propagates socket/decode failures (including read timeouts).
    pub fn next_frame(&mut self) -> std::io::Result<Option<Frame>> {
        read_frame(&mut self.stream)
    }

    /// Sends a query and collects frames until the terminal answer or
    /// error (an eviction notice is recorded and the stream continues to
    /// its best-effort answer).
    ///
    /// # Errors
    ///
    /// Propagates socket failures; a structured server-side rejection is
    /// **not** an `Err` — it lands in [`QueryRun::error`].
    pub fn run_query(&mut self, request: &QueryRequest) -> std::io::Result<QueryRun> {
        self.send_request(request)?;
        self.collect_run()
    }

    /// Resumes the parked (or crash-orphaned) session behind `token` and
    /// collects its remaining stream — the reconnect half of durability.
    /// An unknown/expired token lands as [`ErrorCode::NoSuchToken`] in
    /// [`QueryRun::error`], not an `Err`.
    ///
    /// # Errors
    ///
    /// Propagates socket failures.
    pub fn resume(&mut self, token: u64) -> std::io::Result<QueryRun> {
        self.send_line(&format!("RESUME token={token}"))?;
        self.collect_run()
    }

    /// Collects frames until the terminal answer or error (an eviction
    /// notice is recorded and the stream continues to its best-effort
    /// answer; a `Parked` token announcement is recorded and the stream
    /// continues to its rounds).
    fn collect_run(&mut self) -> std::io::Result<QueryRun> {
        let mut run = QueryRun::default();
        loop {
            match self.next_frame()? {
                Some(Frame::Round(r)) => run.rounds.push(r),
                Some(Frame::Parked { token }) => run.token = Some(token),
                Some(Frame::Evicted { bytes }) => run.evicted = Some(bytes),
                Some(Frame::Answer(a)) => {
                    run.answer = Some(a);
                    return Ok(run);
                }
                Some(Frame::Error { code, message }) => {
                    run.error = Some((code, message));
                    return Ok(run);
                }
                Some(Frame::Stats(_)) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        "unexpected stats frame during a query stream",
                    ));
                }
                None => return Ok(run), // connection closed mid-stream
            }
        }
    }

    /// Round-trips a `STATS` command.
    ///
    /// # Errors
    ///
    /// Propagates socket failures; `InvalidData` if the server answers
    /// with anything but a stats frame.
    pub fn stats(&mut self) -> std::io::Result<WireStats> {
        self.send_line("STATS")?;
        match self.next_frame()? {
            Some(Frame::Stats(s)) => Ok(s),
            other => Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("expected stats frame, got {other:?}"),
            )),
        }
    }

    /// The underlying stream — robustness tests use it to shut down write
    /// halves or send byte-at-a-time. Read frames with
    /// [`WireClient::next_frame`], not from this stream: bytes already in
    /// the client's read buffer are not on the stream any more.
    #[must_use]
    pub fn stream(&mut self) -> &mut TcpStream {
        self.stream.get_mut()
    }

    /// [`WireClient::connect`] with bounded, seeded-backoff retries —
    /// the reconnect half of crash recovery, where the connect races the
    /// server coming back up. Returns the client and how many retries it
    /// took (0 = first attempt won). The delay schedule is exactly
    /// [`backoff_delays`]`(policy)`, so runs with the same policy retry
    /// at the same instants.
    ///
    /// # Errors
    ///
    /// The last connect error, once `policy.max_retries` retries are
    /// exhausted.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs + Clone,
        timeout: Duration,
        policy: &RetryPolicy,
    ) -> std::io::Result<(Self, u32)> {
        let delays = backoff_delays(policy);
        let mut last_err = None;
        for (attempt, delay) in std::iter::once(Duration::ZERO).chain(delays).enumerate() {
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
            match Self::connect(addr.clone(), timeout) {
                Ok(client) => return Ok((client, attempt as u32)),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no connect attempts made")
        }))
    }
}

/// Bounded-retry schedule: exponential backoff with deterministic,
/// seeded jitter. Two clients with different seeds spread their
/// reconnect stampede; the same seed replays the same schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = try exactly once).
    pub max_retries: u32,
    /// Delay before the first retry, pre-jitter.
    pub base: Duration,
    /// Ceiling on any single delay, pre-jitter.
    pub cap: Duration,
    /// Jitter seed; thread the episode/client seed through for
    /// reproducible chaos runs.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 5,
            base: Duration::from_millis(20),
            cap: Duration::from_secs(1),
            seed: 0,
        }
    }
}

/// The full delay schedule `policy` produces, one entry per retry: the
/// exponential `base * 2^attempt` is capped at `policy.cap`, then
/// jittered uniformly into `[exp/2, exp]` ("equal jitter") from a
/// `StdRng` seeded with `policy.seed`. Pure — exposed so tests and the
/// simulation harness can assert the exact schedule without sleeping.
#[must_use]
pub fn backoff_delays(policy: &RetryPolicy) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(policy.seed);
    let base_ms = policy.base.as_millis().min(u128::from(u64::MAX)) as u64;
    let cap_ms = policy.cap.as_millis().min(u128::from(u64::MAX)) as u64;
    (0..policy.max_retries)
        .map(|attempt| {
            let exp_ms = base_ms
                .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
                .min(cap_ms);
            let jittered = if exp_ms == 0 {
                0
            } else {
                rng.gen_range(exp_ms / 2..=exp_ms)
            };
            Duration::from_millis(jittered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::FilterSpec;
    use std::io::Read;
    use std::net::TcpListener;

    /// What `send_request` puts on the socket for `request`: the bytes a
    /// peer reads until the client hangs up.
    fn bytes_sent(request: &QueryRequest) -> (std::io::Result<()>, Vec<u8>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut client =
            WireClient::connect(listener.local_addr().unwrap(), Duration::from_secs(5)).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let sent = client.send_request(request);
        drop(client);
        let mut got = Vec::new();
        peer.read_to_end(&mut got).unwrap();
        (sent, got)
    }

    #[test]
    fn requests_that_would_parse_as_another_query_are_refused_unsent() {
        let mut split_in = QueryRequest::avg("name", "delay", 1);
        split_in.filter = Some(FilterSpec::In("origin".into(), vec!["A|B".into()]));
        let mut split_group = QueryRequest::avg("name", "delay", 1);
        split_group.group_by = vec!["a,b".into()];
        let mut empty_in = QueryRequest::avg("name", "delay", 1);
        empty_in.filter = Some(FilterSpec::In("origin".into(), Vec::new()));
        for request in [split_in, split_group, empty_in] {
            let (sent, got) = bytes_sent(&request);
            let err = sent.expect_err("refused");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput, "{request:?}");
            assert!(got.is_empty(), "{request:?} wrote {got:?}");
        }
        // A request that round-trips goes out as its line.
        let mut fine = QueryRequest::avg("name", "delay", 1);
        fine.filter = Some(FilterSpec::In(
            "origin".into(),
            vec!["A".into(), "B".into()],
        ));
        let (sent, got) = bytes_sent(&fine);
        sent.unwrap();
        assert_eq!(got, format!("{}\n", fine.to_line()).into_bytes());
    }

    #[test]
    fn backoff_schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            max_retries: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 42,
        };
        let a = backoff_delays(&policy);
        let b = backoff_delays(&policy);
        assert_eq!(a, b, "same seed must replay the same schedule");
        assert_eq!(a.len(), 8);
        for (attempt, d) in a.iter().enumerate() {
            let exp = (10u64 << attempt).min(200);
            let ms = d.as_millis() as u64;
            assert!(
                (exp / 2..=exp).contains(&ms),
                "attempt {attempt}: {ms}ms outside [{}, {exp}]",
                exp / 2
            );
        }
        // The cap binds from attempt 5 on (10 * 2^5 = 320 > 200).
        assert!(a[7].as_millis() <= 200);
    }

    #[test]
    fn different_seeds_spread_the_stampede() {
        let mk = |seed| RetryPolicy {
            max_retries: 6,
            base: Duration::from_millis(64),
            cap: Duration::from_secs(2),
            seed,
        };
        let schedules: Vec<_> = (0..4).map(|s| backoff_delays(&mk(s))).collect();
        // At least one pair of seeds must disagree somewhere; with 6
        // draws over ranges this wide, identical schedules would mean
        // the jitter is not actually keyed on the seed.
        assert!(
            schedules.windows(2).any(|w| w[0] != w[1]),
            "jitter ignored the seed"
        );
    }

    #[test]
    fn zero_retries_means_empty_schedule() {
        let policy = RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        };
        assert!(backoff_delays(&policy).is_empty());
    }
}
