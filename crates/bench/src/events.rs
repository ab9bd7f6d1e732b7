//! Live structured progress for long sweeps.
//!
//! An [`EventLog`] streams one JSON object per line (JSONL) to a file as a
//! sweep runs — `sweep_start`, `case_start` / `case_finish` per failure
//! case (with the worker that ran it and a running p95 of case times), and
//! `sweep_finish` — plus an opt-in, rate-limited progress line on stderr.
//! `--events FILE` / `--progress` (the evaluation group) wire it up; see
//! [`crate::EvalOptions`].
//!
//! Event emission is strictly observational: it wraps the per-case closure
//! of the [`crate::SweepEngine`]'s streaming case path and never touches a
//! [`crate::CaseResult`], so sweep output stays byte-identical with the
//! log on or off, at any `--jobs` count (pinned by an integration test).
//! Timestamps are relative to log creation (`t_ms`), keeping lines short
//! and the format clock-independent.

use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Minimum gap between stderr progress lines (the final case always
/// prints).
const PROGRESS_EVERY_MS: u128 = 100;

/// A shared, thread-safe JSONL event stream for sweep progress.
///
/// Create one with [`EventLog::create`], hand it to the engine via
/// [`crate::EvalOptions::events`], and call [`EventLog::close`] (or just
/// drop it) when the run ends.
#[derive(Debug)]
pub struct EventLog {
    epoch: Instant,
    progress: bool,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Inner {
    out: Option<BufWriter<File>>,
    seq: u64,
    total: usize,
    done: usize,
    /// Sorted case durations (µs) of the current sweep, for the running
    /// p95.
    durations_us: Vec<u64>,
    last_progress: Option<Instant>,
    sweep_t0: Instant,
}

/// Handle for one in-flight case, returned by [`EventLog::case_start`] and
/// consumed by [`EventLog::case_finish`].
#[derive(Debug)]
pub struct CaseToken {
    seq: u64,
    started: Instant,
}

impl EventLog {
    /// Opens an event log writing JSONL to `path` (truncating), with an
    /// optional stderr progress line.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending path if the file cannot be
    /// created.
    pub fn create(path: Option<&Path>, progress: bool) -> Result<EventLog, String> {
        let out = match path {
            Some(p) => Some(BufWriter::new(
                File::create(p).map_err(|e| pm_obs::artifact_error("event log", p, &e))?,
            )),
            None => None,
        };
        let now = Instant::now();
        Ok(EventLog {
            epoch: now,
            progress,
            inner: Mutex::new(Inner {
                out,
                seq: 0,
                total: 0,
                done: 0,
                durations_us: Vec::new(),
                last_progress: None,
                sweep_t0: now,
            }),
        })
    }

    /// Marks the start of a sweep of `cases` cases on `jobs` workers.
    /// Resets the per-sweep progress counters; one log may span several
    /// sweeps.
    pub fn sweep_start(&self, cases: usize, jobs: usize) {
        let mut inner = self.lock();
        inner.total = cases;
        inner.done = 0;
        inner.durations_us.clear();
        inner.sweep_t0 = Instant::now();
        let t_ms = self.t_ms();
        inner.write_line(&format!(
            "{{\"event\": \"sweep_start\", \"t_ms\": {t_ms}, \"cases\": {cases}, \"jobs\": {jobs}}}"
        ));
    }

    /// Records that a worker picked up the case labelled `label`.
    pub fn case_start(&self, label: &str) -> CaseToken {
        let worker = crate::par::current_worker();
        let mut inner = self.lock();
        let seq = inner.seq;
        inner.seq += 1;
        let t_ms = self.t_ms();
        inner.write_line(&format!(
            "{{\"event\": \"case_start\", \"t_ms\": {t_ms}, \"seq\": {seq}, \
             \"case\": \"{}\", \"worker\": {worker}}}",
            pm_obs::json::escape(label)
        ));
        CaseToken {
            seq,
            started: Instant::now(),
        }
    }

    /// Records completion of the case started as `token`, updating the
    /// running p95 and (if enabled and due) the stderr progress line.
    pub fn case_finish(&self, token: CaseToken, label: &str) {
        let elapsed_us = u64::try_from(token.started.elapsed().as_micros()).unwrap_or(u64::MAX);
        let worker = crate::par::current_worker();
        let mut inner = self.lock();
        let at = inner.durations_us.partition_point(|&d| d <= elapsed_us);
        inner.durations_us.insert(at, elapsed_us);
        inner.done += 1;
        let (done, total) = (inner.done, inner.total);
        let p95_us = inner.p95_us();
        let t_ms = self.t_ms();
        inner.write_line(&format!(
            "{{\"event\": \"case_finish\", \"t_ms\": {t_ms}, \"seq\": {}, \
             \"case\": \"{}\", \"worker\": {worker}, \"elapsed_ms\": {:.3}, \
             \"done\": {done}, \"total\": {total}, \"p95_ms\": {:.3}}}",
            token.seq,
            pm_obs::json::escape(label),
            elapsed_us as f64 / 1000.0,
            p95_us as f64 / 1000.0,
        ));
        if self.progress {
            let now = Instant::now();
            let due = done >= total
                || match inner.last_progress {
                    None => true,
                    Some(t) => (now - t).as_millis() >= PROGRESS_EVERY_MS,
                };
            if due {
                inner.last_progress = Some(now);
                eprintln!(
                    "sweep: {done}/{total} cases done, last {label} ({:.1} ms), p95 {:.1} ms",
                    elapsed_us as f64 / 1000.0,
                    p95_us as f64 / 1000.0,
                );
            }
        }
    }

    /// Marks the end of the current sweep and pushes everything buffered
    /// so far to the file: a sweep boundary is exactly where an external
    /// watcher (`pmctl obs top --events`) wants a consistent prefix.
    pub fn sweep_finish(&self) {
        let mut inner = self.lock();
        let cases = inner.done;
        let elapsed_ms = inner.sweep_t0.elapsed().as_millis();
        let t_ms = self.t_ms();
        inner.write_line(&format!(
            "{{\"event\": \"sweep_finish\", \"t_ms\": {t_ms}, \"cases\": {cases}, \
             \"elapsed_ms\": {elapsed_ms}}}"
        ));
        if let Some(out) = &mut inner.out {
            let _ = out.flush();
        }
    }

    /// Flushes the underlying file, reporting any deferred write error.
    ///
    /// # Errors
    ///
    /// Returns a message naming the failure; the log is unusable for
    /// writing afterwards either way.
    pub fn close(&self) -> Result<(), String> {
        let mut inner = self.lock();
        if let Some(mut out) = inner.out.take() {
            out.flush()
                .map_err(|e| format!("cannot flush event log: {e}"))?;
        }
        Ok(())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("event log lock never poisoned")
    }

    fn t_ms(&self) -> u128 {
        self.epoch.elapsed().as_millis()
    }
}

impl Drop for EventLog {
    /// Best-effort flush so buffered lines (a mid-sweep panic unwinding
    /// through `Arc` drops, a binary that forgot `close`) survive on
    /// disk; a truncated final line is possible, so readers must tolerate
    /// one (the replay test pins that).
    fn drop(&mut self) {
        let _ = self.close();
    }
}

impl Inner {
    fn write_line(&mut self, line: &str) {
        if let Some(out) = &mut self.out {
            // Write errors surface at close(); losing progress lines must
            // not take down the sweep itself.
            let _ = writeln!(out, "{line}");
        }
    }

    fn p95_us(&self) -> u64 {
        let n = self.durations_us.len();
        if n == 0 {
            return 0;
        }
        let rank = (n * 95).div_ceil(100).max(1);
        self.durations_us[rank - 1]
    }
}

/// Renders one sweep's worth of synthetic events for tests and docs: the
/// exact line format the log writes, without touching the filesystem.
pub fn example_lines() -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "{{\"event\": \"sweep_start\", \"t_ms\": 0, \"cases\": 2, \"jobs\": 1}}"
    );
    let _ = writeln!(
        s,
        "{{\"event\": \"case_start\", \"t_ms\": 0, \"seq\": 0, \"case\": \"(2)\", \"worker\": 0}}"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_are_valid_jsonl_and_count_up() {
        let dir = std::env::temp_dir().join(format!("pm-events-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        let log = EventLog::create(Some(&path), false).unwrap();
        log.sweep_start(2, 1);
        let t = log.case_start("(2)");
        log.case_finish(t, "(2)");
        let t = log.case_start("(5,9)");
        log.case_finish(t, "(5,9)");
        log.sweep_finish();
        log.close().unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        for line in &lines {
            pm_obs::json::validate(line).expect(line);
        }
        assert!(lines[0].contains("\"event\": \"sweep_start\""));
        assert!(lines[2].contains("\"done\": 1, \"total\": 2"));
        assert!(lines[4].contains("\"done\": 2, \"total\": 2"));
        assert!(lines[5].contains("\"event\": \"sweep_finish\""));
        // seq increases monotonically across cases.
        assert!(lines[1].contains("\"seq\": 0") && lines[3].contains("\"seq\": 1"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_reports_the_offending_path() {
        let dir = std::env::temp_dir().join(format!("pm-events-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let blocker = dir.join("file");
        std::fs::write(&blocker, "x").unwrap();
        // Using a file as a directory component fails even as root.
        let path = blocker.join("events.jsonl");
        let err = EventLog::create(Some(&path), false).unwrap_err();
        assert!(err.contains("event log"), "{err}");
        assert!(err.contains("events.jsonl"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn running_p95_is_nearest_rank() {
        let log = EventLog::create(None, false).unwrap();
        log.sweep_start(3, 1);
        {
            let mut inner = log.lock();
            inner.durations_us = vec![10, 20, 1000];
        }
        assert_eq!(log.lock().p95_us(), 1000);
        let log2 = EventLog::create(None, false).unwrap();
        assert_eq!(log2.lock().p95_us(), 0, "empty log has p95 0");
    }

    #[test]
    fn example_lines_validate() {
        for line in example_lines().lines() {
            pm_obs::json::validate(line).expect(line);
        }
    }

    #[test]
    fn drop_flushes_buffered_lines_and_truncated_streams_replay() {
        let dir = std::env::temp_dir().join(format!("pm-events-drop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl");
        {
            // No close(): the Drop impl must push the BufWriter's buffer
            // (well under 8 KiB here, so nothing reached the file yet)
            // out to disk.
            let log = EventLog::create(Some(&path), false).unwrap();
            log.sweep_start(1, 1);
            let t = log.case_start("(7)");
            log.case_finish(t, "(7)");
            log.sweep_finish();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(
            text.lines()
                .any(|l| l.contains("\"event\": \"sweep_finish\"")),
            "drop must flush: {text}"
        );

        // A panic can still truncate mid-line (the OS flushes what it
        // has). Replay of such a stream — the consumer contract pmctl
        // obs top relies on — recovers every complete line and skips
        // exactly the torn tail.
        let mut truncated = text.clone();
        truncated.push_str("{\"event\": \"case_start\", \"t_ms\": 99, \"se");
        let replayed: Vec<&str> = truncated
            .lines()
            .filter(|l| pm_obs::json::validate(l).is_ok())
            .collect();
        assert_eq!(replayed.len(), text.lines().count());
        assert!(replayed.last().unwrap().contains("sweep_finish"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
