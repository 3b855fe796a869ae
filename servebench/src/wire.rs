//! The end-to-end run: the real server in-process, driven over real
//! sockets by at most two client threads on at most two connections.

use crate::check::{check_generation, check_read, Expected, Fault};
use crate::workload::{
    commit_text, distinct_texts, stagger, Stream, Workload, Writer, APPEND, COMMIT_SHARE,
    COMMIT_WINDOWS, CONCURRENT_COMMITS_PER_S,
};
use excess_bench::server_mix::server_mix_db;
use excess_db::VersionedDb;
use excess_server::{serve, Client, ServerHandle};
use std::time::{Duration, Instant};

/// A served database, its open client connections and the expected
/// results, ready for the first timed request.
pub struct Served {
    handle: ServerHandle,
    clients: Vec<Client>,
    expected: Expected,
}

/// Tally of operations (reads, refreshes, commits) and their outcomes.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Operations sent.
    pub attempted: u64,
    /// `"ok":false` responses and dropped connections.
    pub failed: u64,
    /// Successful responses with a wrong result.
    pub wrong: u64,
    /// The first fault seen, for the log.
    pub first_fault: Option<String>,
}

impl Tally {
    fn record(&mut self, fault: Fault) {
        let msg = match fault {
            Fault::Failed(m) => {
                self.failed += 1;
                m
            }
            Fault::Wrong(m) => {
                self.wrong += 1;
                m
            }
        };
        self.first_fault.get_or_insert(msg);
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        if self.first_fault.is_none() {
            self.first_fault = other.first_fault;
        }
    }
}

/// One completed, correct read.
#[derive(Debug, Clone, Copy)]
pub struct ReadSample {
    /// Index into `MIX`.
    pub label: usize,
    /// Client wall time from send to full response, µs.
    pub wall_us: f64,
    /// The response's own `"us"` field.
    pub server_us: u64,
    /// When the response arrived.
    pub done: Instant,
}

/// What a wire run measured.
#[derive(Debug, Default)]
pub struct WireRun {
    /// Every correct read.
    pub reads: Vec<ReadSample>,
    /// Wall time of the read phase, s.
    pub read_seconds: f64,
    /// Commit latency from its due time, µs.
    pub commits_us: Vec<f64>,
    /// Writer lateness against its schedule at each send, µs.
    pub late_us: Vec<f64>,
    /// Reader passes completed.
    pub passes: u64,
    /// Operation outcomes.
    pub tally: Tally,
}

/// Build the database, compute expected results, start the server,
/// connect, and pass every distinct request text over every connection
/// once as the correctness warm-up.  Returns the setup time with it.
pub fn setup(w: &Workload) -> Result<(Served, Duration), String> {
    let started = Instant::now();
    let base = server_mix_db(w.scale);
    let texts = distinct_texts(w.labels);
    // Readers see both states: state B (after the append) is computed on
    // a copy before the server takes the original.
    let mut state_b = base.clone();
    let vdb = VersionedDb::new(base);
    let mut expected = Expected::default();
    let computed = expected
        .add_state(&mut vdb.begin_session(), &texts)
        .and_then(|()| {
            state_b
                .execute(APPEND)
                .map_err(|e| format!("state B: {e}"))?;
            let b = VersionedDb::new(state_b);
            let added = expected.add_state(&mut b.begin_session(), &texts);
            b.shutdown();
            added
        });
    if let Err(e) = computed {
        vdb.shutdown();
        return Err(e);
    }
    let handle = match serve(vdb.clone(), "127.0.0.1:0") {
        Ok(handle) => handle,
        Err(e) => {
            vdb.shutdown();
            return Err(format!("serve: {e}"));
        }
    };
    let mut served = Served {
        handle,
        clients: Vec::new(),
        expected,
    };
    match served.connect_and_warm(&texts) {
        Ok(()) => Ok((served, started.elapsed())),
        Err(e) => {
            served.teardown();
            Err(e)
        }
    }
}

impl Served {
    fn connect_and_warm(&mut self, texts: &[(usize, String)]) -> Result<(), String> {
        for _ in 0..2 {
            let client =
                Client::connect(self.handle.addr()).map_err(|e| format!("connect: {e}"))?;
            self.clients.push(client);
        }
        for client in &mut self.clients {
            for (_, text) in texts {
                let line = client
                    .request(text)
                    .map_err(|e| format!("warm-up `{text}`: {e}"))?;
                check_read(&self.expected, text, &line).map_err(|f| format!("warm-up: {f:?}"))?;
            }
        }
        Ok(())
    }

    /// The expected results the run checks against.
    pub fn expected(&self) -> &Expected {
        &self.expected
    }

    /// Close the connections, stop the server and its committer.
    pub fn teardown(self) {
        drop(self.clients);
        let vdb = self.handle.shutdown();
        vdb.shutdown();
    }
}

/// Closed-loop reader: passes over its stream until `deadline`, with a
/// `.refresh` after each pass so it reads the newest generation.
fn read_loop(
    client: &mut Client,
    stream: &mut Stream,
    expected: &Expected,
    start: Instant,
    deadline: Instant,
) -> (Vec<ReadSample>, u64, Tally) {
    let mut samples = Vec::new();
    let mut tally = Tally::default();
    let mut passes = 0;
    std::thread::sleep(start.saturating_duration_since(Instant::now()));
    'run: while Instant::now() < deadline {
        for req in stream.next_pass() {
            if Instant::now() >= deadline {
                break 'run;
            }
            tally.attempted += 1;
            let sent = Instant::now();
            let line = match client.request(&req.text) {
                Ok(line) => line,
                Err(e) => {
                    tally.record(Fault::Failed(format!("connection dropped: {e}")));
                    break 'run;
                }
            };
            let done = Instant::now();
            let wall_us = (done - sent).as_secs_f64() * 1e6;
            match check_read(expected, &req.text, &line) {
                Ok(reply) => samples.push(ReadSample {
                    label: req.label,
                    wall_us,
                    server_us: reply.server_us,
                    done,
                }),
                Err(fault) => tally.record(fault),
            }
        }
        passes += 1;
        tally.attempted += 1;
        match client.request(".refresh") {
            Ok(line) => {
                if let Err(fault) = check_generation(&line) {
                    tally.record(fault);
                }
            }
            Err(e) => {
                tally.record(Fault::Failed(format!("connection dropped: {e}")));
                break;
            }
        }
    }
    (samples, passes, tally)
}

/// Sleep until shortly before `due`, then spin to it: a sleeping thread
/// on a busy virtual machine can wake milliseconds late, which would be
/// the generator's lateness, not the server's.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_millis(1);
    if let Some(sleep) = due.checked_duration_since(Instant::now() + SPIN) {
        std::thread::sleep(sleep);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// What the writer did over a whole run, across its windows.
#[derive(Debug, Default)]
struct WriterLog {
    commits_us: Vec<f64>,
    late_us: Vec<f64>,
    tally: Tally,
    /// Commits sent so far: the next one is `commit_text(sent)`.
    sent: usize,
    /// Generation the last commit published.
    generation: Option<u64>,
}

/// Writer: `.commit`s continuing the run's append/delete alternation
/// until `end`.
///
/// With a `rate` it is an open loop: its `i`-th commit is due at `start +
/// i / rate` and is sent then or, when the previous commit is still
/// running, as soon as that returns.  Latency counts from the due time,
/// so a stall also delays every commit queued behind it, and the
/// writer's lateness at each send is recorded.  Without a rate it is a
/// closed loop: each commit is sent when the previous one returns, timed
/// from its send.
fn write_loop(
    client: &mut Client,
    start: Instant,
    end: Instant,
    rate: Option<f64>,
    log: &mut WriterLog,
) {
    for i in 0.. {
        let due = match rate {
            Some(rate) => start + Duration::from_secs_f64(i as f64 / rate),
            None => Instant::now(),
        };
        if due >= end {
            break;
        }
        if rate.is_some() {
            wait_until(due);
            log.late_us.push(due.elapsed().as_secs_f64() * 1e6);
        }
        log.tally.attempted += 1;
        let k = log.sent;
        log.sent += 1;
        let line = match client.request(&format!(".commit {}", commit_text(k))) {
            Ok(line) => line,
            Err(e) => {
                log.tally
                    .record(Fault::Failed(format!("connection dropped: {e}")));
                break;
            }
        };
        log.commits_us.push(due.elapsed().as_secs_f64() * 1e6);
        match check_generation(&line) {
            // One writer, one commit per batch: generations step by one.
            Ok(g) if log.generation.is_some_and(|prev| g != prev + 1) => {
                log.tally.record(Fault::Wrong(format!(
                    "commit {k} published generation {g} after {:?}",
                    log.generation
                )))
            }
            Ok(g) => log.generation = Some(g),
            Err(fault) => log.tally.record(fault),
        }
    }
}

/// One read window: every reader runs its closed loop from `start` (plus
/// its stagger) to `deadline`, continuing its stream.
fn read_window(
    clients: &mut [Client],
    streams: &mut [Stream],
    expected: &Expected,
    seed: u64,
    start: Instant,
    deadline: Instant,
    out: &mut WireRun,
) {
    let opened = Instant::now();
    std::thread::scope(|scope| {
        let threads: Vec<_> = clients
            .iter_mut()
            .zip(streams.iter_mut())
            .enumerate()
            .map(|(i, (client, stream))| {
                let start = start + stagger(seed, i);
                scope.spawn(move || read_loop(client, stream, expected, start, deadline))
            })
            .collect();
        for t in threads {
            let (samples, passes, tally) = t.join().expect("reader thread panicked");
            out.reads.extend(samples);
            out.passes += passes;
            out.tally.merge(tally);
        }
    });
    out.read_seconds += opened.elapsed().as_secs_f64();
}

/// Run the workload's timed phase for `seconds` against `served`.
pub fn run(served: &mut Served, w: &Workload, seed: u64, seconds: f64) -> WireRun {
    let mut out = WireRun::default();
    let mut streams: Vec<Stream> = (0..w.readers).map(|i| Stream::new(w, seed, i)).collect();
    let mut writer = WriterLog::default();
    let begin = Instant::now();
    let at = |secs: f64| begin + Duration::from_secs_f64(secs);
    let (readers, spare) = served.clients.split_at_mut(w.readers);
    match w.writer {
        Writer::Concurrent => std::thread::scope(|scope| {
            let (client, log) = (&mut spare[0], &mut writer);
            let rate = Some(CONCURRENT_COMMITS_PER_S);
            let writer_thread =
                scope.spawn(move || write_loop(client, begin, at(seconds), rate, log));
            read_window(
                readers,
                &mut streams,
                &served.expected,
                seed,
                begin,
                at(seconds),
                &mut out,
            );
            writer_thread.join().expect("writer thread panicked");
        }),
        Writer::Between => {
            // Commits run in a closed loop on an idle server: an open loop
            // there measures how late the host wakes sleeping threads more
            // than the commit path.  Spreading the windows over the run
            // samples the host's drift the way the reads do.
            let cycle = seconds / COMMIT_WINDOWS as f64;
            for c in 0..COMMIT_WINDOWS {
                let start = cycle * c as f64;
                let reads_end = at(start + cycle * (1.0 - COMMIT_SHARE));
                read_window(
                    readers,
                    &mut streams,
                    &served.expected,
                    seed,
                    at(start),
                    reads_end,
                    &mut out,
                );
                write_loop(
                    &mut readers[0],
                    Instant::now(),
                    at(start + cycle),
                    None,
                    &mut writer,
                );
            }
        }
    }
    out.commits_us = writer.commits_us;
    out.late_us = writer.late_us;
    out.tally.merge(writer.tally);
    out
}
