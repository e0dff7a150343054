//! Checkpoint journal: durable, resumable studies.
//!
//! A long study is a batch of (bomb, profile) cells; a killed process
//! must not lose the cells that already finished. The journal is a
//! JSONL file (`journal.jsonl` inside the `--checkpoint` directory)
//! holding one versioned, CRC-checksummed record per completed cell —
//! the *report-critical digest* of the cell: outcome, expected label,
//! crash diagnostic, fault log, and the headline counters. On
//! `--resume`, valid records are replayed instead of re-executed and
//! only the remainder of the matrix runs; the final Table-II report is
//! byte-identical to an uninterrupted run.
//!
//! Durability model:
//!
//! * Every append rewrites the whole journal to a tmp file and
//!   publishes it with an atomic rename, so the on-disk file is always
//!   either the old or the new complete journal — never a mix. (The
//!   matrix is at most a few hundred cells, so the O(n²) rewrite cost
//!   is microseconds; in exchange a torn write never survives past the
//!   next successful append.)
//! * Each line is `crc32hex<space>json`. The loader verifies every
//!   checksum and stops at the first bad line, dropping the torn tail
//!   — a kill mid-write degrades into "re-run the last cell", never an
//!   error.
//! * The header record carries the journal format version and a
//!   fingerprint of the study configuration (cases, profiles, fault
//!   plan, retry budget). A mismatched journal is ignored wholesale:
//!   resuming a *different* study must not splice foreign cells into
//!   the report.
//!
//! The write and rename paths carry [`bomblab_fault`] fault points
//! ([`FaultSite::CheckpointWrite`], [`FaultSite::CheckpointRename`]) so
//! chaos sweeps can exercise torn writes and failed renames
//! deterministically.

use crate::engine::CrashDiag;
use crate::outcome::Outcome;
use bomblab_fault as fault;
use bomblab_fault::{FaultAction, FaultSite};
use bomblab_obs::fnv;
use bomblab_obs::json::{self, str_array, Json, Obj};
use std::collections::HashMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// Journal format version; bump on any incompatible record change.
pub const JOURNAL_VERSION: u64 = 1;

/// File name of the journal inside the checkpoint directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// CRC-32 (IEEE), bitwise — the journal is small and has no business
/// pulling in a lookup table, let alone a dependency.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFF_u32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a over a sequence of strings, with a separator fold between
/// parts so `["ab","c"]` and `["a","bc"]` hash differently. Used to
/// fingerprint the study configuration in the journal header.
pub fn fingerprint<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    parts.into_iter().fold(fnv::OFFSET, |h, part| {
        fnv::fold(fnv::fold_bytes(h, part.as_bytes()), 0x1FF)
    })
}

/// The report-critical digest of one completed cell. Everything
/// [`crate::study::StudyReport::to_markdown`] reads about a cell is
/// here, so a replayed cell renders byte-identically; evidence counters
/// that only feed traces and benchmarks keep their defaults on replay.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Flat cell index: `row * profiles + column`.
    pub index: u64,
    /// Case name (sanity cross-check against the fingerprint).
    pub bomb: String,
    /// Profile name.
    pub profile: String,
    /// The outcome our engine produced.
    pub outcome: Outcome,
    /// The paper's label for the cell, when known.
    pub expected: Option<Outcome>,
    /// Wall-clock nanoseconds of the winning attempt.
    pub wall_ns: u64,
    /// Engine rounds of the winning attempt.
    pub rounds: u32,
    /// Solver queries of the winning attempt.
    pub queries: u32,
    /// Faults injected into the winning attempt.
    pub injected_faults: u32,
    /// Human-readable log of the injected faults.
    pub fault_log: Vec<String>,
    /// Contained crash diagnostic, if the cell crashed.
    pub crash: Option<CrashDiag>,
    /// Extra attempts the retry loop spent on this cell.
    pub retries: u32,
    /// The cell was quarantined as a deterministic failure.
    pub quarantined: bool,
    /// Total scheduled backoff before retries, in nanoseconds.
    pub retry_backoff_ns: u64,
}

impl CellRecord {
    fn to_json(&self) -> String {
        let mut o = Obj::new("cell_ckpt")
            .u64("index", self.index)
            .str("bomb", &self.bomb)
            .str("profile", &self.profile)
            .str("outcome", self.outcome.glyph())
            .u64("wall_ns", self.wall_ns)
            .u64("rounds", u64::from(self.rounds))
            .u64("queries", u64::from(self.queries));
        if let Some(e) = self.expected {
            o = o.str("expected", e.glyph());
        }
        if self.injected_faults > 0 {
            o = o.u64("injected_faults", u64::from(self.injected_faults));
        }
        if !self.fault_log.is_empty() {
            o = o.raw("fault_log", &str_array(&self.fault_log));
        }
        if let Some(c) = &self.crash {
            o = o
                .str("crash_stage", &c.stage)
                .str("crash_message", &c.message)
                .u64("crash_elapsed_ns", c.elapsed_ns);
        }
        if self.retries > 0 {
            o = o.u64("retries", u64::from(self.retries));
        }
        if self.quarantined {
            o = o.bool("quarantined", true);
        }
        if self.retry_backoff_ns > 0 {
            o = o.u64("retry_backoff_ns", self.retry_backoff_ns);
        }
        o.finish()
    }

    fn from_json(text: &str) -> Result<CellRecord, String> {
        let value = json::parse(text)?;
        let obj = value.as_obj().ok_or("record is not an object")?;
        let str_of = |key: &str| -> Result<String, String> {
            obj.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        let u64_of = |key: &str| obj.get(key).and_then(Json::as_u64);
        if str_of("type")? != "cell_ckpt" {
            return Err("not a cell record".to_string());
        }
        let outcome_of = |key: &str| -> Result<Outcome, String> {
            let glyph = str_of(key)?;
            Outcome::from_glyph(&glyph).ok_or_else(|| format!("unknown outcome glyph `{glyph}`"))
        };
        let crash = match (obj.get("crash_stage"), obj.get("crash_message")) {
            (Some(_), Some(_)) => Some(CrashDiag {
                stage: str_of("crash_stage")?,
                message: str_of("crash_message")?,
                elapsed_ns: u64_of("crash_elapsed_ns").unwrap_or(0),
            }),
            (None, None) => None,
            _ => return Err("half a crash diagnostic".to_string()),
        };
        let fault_log = match obj.get("fault_log") {
            None => Vec::new(),
            Some(Json::Arr(items)) => items
                .iter()
                .map(|i| {
                    i.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "non-string fault_log entry".to_string())
                })
                .collect::<Result<Vec<String>, String>>()?,
            Some(_) => return Err("fault_log is not an array".to_string()),
        };
        Ok(CellRecord {
            index: u64_of("index").ok_or("missing index")?,
            bomb: str_of("bomb")?,
            profile: str_of("profile")?,
            outcome: outcome_of("outcome")?,
            expected: match obj.get("expected") {
                Some(_) => Some(outcome_of("expected")?),
                None => None,
            },
            wall_ns: u64_of("wall_ns").unwrap_or(0),
            rounds: u64_of("rounds").unwrap_or(0) as u32,
            queries: u64_of("queries").unwrap_or(0) as u32,
            injected_faults: u64_of("injected_faults").unwrap_or(0) as u32,
            fault_log,
            crash,
            retries: u64_of("retries").unwrap_or(0) as u32,
            quarantined: matches!(obj.get("quarantined"), Some(Json::Bool(true))),
            retry_backoff_ns: u64_of("retry_backoff_ns").unwrap_or(0),
        })
    }
}

/// An open checkpoint journal. All writes go through
/// [`Journal::append`], which rewrites the file atomically; the study
/// runner serializes appends behind a mutex.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    /// Exactly the valid on-disk lines (header first).
    lines: Vec<String>,
}

impl Journal {
    /// Opens (and immediately publishes) the journal in `dir`.
    ///
    /// With `resume`, previously completed cells whose records survive
    /// checksum validation under a matching header are returned for
    /// replay; a missing, torn, or foreign (fingerprint-mismatched)
    /// journal yields an empty map and a fresh journal — resuming is
    /// never fatal. Without `resume`, any existing journal is
    /// truncated.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the directory cannot be created or
    /// the fresh journal cannot be published.
    pub fn open(
        dir: &Path,
        fingerprint: u64,
        resume: bool,
    ) -> io::Result<(Journal, HashMap<u64, CellRecord>)> {
        fs::create_dir_all(dir)?;
        let path = dir.join(JOURNAL_FILE);
        let mut lines = Vec::new();
        let mut completed = HashMap::new();
        if resume {
            if let Ok(text) = fs::read_to_string(&path) {
                (lines, completed) = load_valid(&text, fingerprint);
            }
        }
        if lines.is_empty() {
            let header = Obj::new("ckpt_header")
                .u64("v", JOURNAL_VERSION)
                .u64("fingerprint", fingerprint)
                .finish();
            lines.push(format!("{:08x} {header}", crc32(header.as_bytes())));
        }
        let journal = Journal { path, lines };
        // Publish right away: a kill before the first cell completes
        // must still leave a valid (if empty) journal, and a non-resume
        // open must not leave a stale journal from an earlier study.
        journal.rewrite()?;
        Ok((journal, completed))
    }

    /// Records one completed cell. The whole journal is rewritten to a
    /// tmp file and renamed into place, so a crash at any byte leaves
    /// either the previous or the new journal (or a torn tmp the loader
    /// never reads).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the study treats it as a
    /// transient condition (the record lives on in memory and the next
    /// successful append re-publishes it).
    pub fn append(&mut self, record: &CellRecord) -> io::Result<()> {
        let payload = record.to_json();
        self.lines
            .push(format!("{:08x} {payload}", crc32(payload.as_bytes())));
        self.rewrite()
    }

    /// Number of cell records currently published (header excluded).
    #[must_use]
    pub fn records(&self) -> usize {
        self.lines.len().saturating_sub(1)
    }

    fn rewrite(&self) -> io::Result<()> {
        let mut bytes = self.lines.join("\n").into_bytes();
        bytes.push(b'\n');
        match fault::fault_point(FaultSite::CheckpointWrite) {
            Some(FaultAction::TornWrite) => {
                // Power loss mid-write: the tail of the last record —
                // checksum and all — never reaches the disk.
                bytes.truncate(bytes.len().saturating_sub(9));
            }
            Some(FaultAction::Panic) => panic!("injected checkpoint write failure"),
            _ => {}
        }
        let tmp = self
            .path
            .with_extension(format!("tmp.{}", std::process::id()));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
        }
        match fault::fault_point(FaultSite::CheckpointRename) {
            Some(FaultAction::RenameFail) => {
                let _ = fs::remove_file(&tmp);
                return Err(io::Error::other("injected rename failure"));
            }
            Some(FaultAction::Panic) => panic!("injected checkpoint rename failure"),
            _ => {}
        }
        fs::rename(&tmp, &self.path)
    }
}

/// Parses the journal text: header (version + fingerprint) then cell
/// records, each CRC-verified. Stops at the first invalid line and
/// drops everything after it; a bad header drops the whole journal.
fn load_valid(text: &str, fingerprint: u64) -> (Vec<String>, HashMap<u64, CellRecord>) {
    let mut kept = Vec::new();
    let mut completed = HashMap::new();
    let mut lines = text.lines();
    let Some(first) = lines.next() else {
        return (kept, completed);
    };
    let Some(header_json) = checked_payload(first) else {
        return (kept, completed);
    };
    let header_ok = json::parse(header_json).ok().is_some_and(|v| {
        v.as_obj().is_some_and(|o| {
            o.get("type").and_then(Json::as_str) == Some("ckpt_header")
                && o.get("v").and_then(Json::as_u64) == Some(JOURNAL_VERSION)
                && o.get("fingerprint").and_then(Json::as_u64) == Some(fingerprint)
        })
    });
    if !header_ok {
        return (kept, completed);
    }
    kept.push(first.to_string());
    for line in lines {
        let Some(payload) = checked_payload(line) else {
            break;
        };
        let Ok(record) = CellRecord::from_json(payload) else {
            break;
        };
        kept.push(line.to_string());
        completed.insert(record.index, record);
    }
    (kept, completed)
}

/// Historical per-cell wall-clock costs from the journal in `dir`, keyed
/// by `(bomb, profile)` name — scheduler fuel for the study runner's
/// longest-processing-time-first cell ordering.
///
/// Deliberately *fingerprint-agnostic*, unlike [`Journal::open`]: a cell's
/// cost is a fine scheduling hint even when the journal was written by a
/// study with a different plan, retry policy, or deadline — the worst a
/// stale cost can do is order cells suboptimally, never change a result.
/// Each line still has to pass its CRC (a torn record is noise, not a
/// cost), and unknown `(bomb, profile)` pairs are simply ignored by the
/// scheduler. Duplicated pairs keep the *latest* record, matching the
/// journal's replay semantics. Any read failure yields an empty map.
///
/// Call this *before* [`Journal::open`] when the study is not resuming:
/// a non-resume open truncates the journal, costs and all.
#[must_use]
pub fn load_costs(dir: &Path) -> HashMap<(String, String), u64> {
    let mut costs = HashMap::new();
    let Ok(text) = fs::read_to_string(dir.join(JOURNAL_FILE)) else {
        return costs;
    };
    for line in text.lines().skip(1) {
        let Some(payload) = checked_payload(line) else {
            break;
        };
        let Ok(record) = CellRecord::from_json(payload) else {
            break;
        };
        costs.insert((record.bomb, record.profile), record.wall_ns);
    }
    costs
}

/// Splits a `crc32hex json` line and returns the payload iff the
/// checksum verifies.
fn checked_payload(line: &str) -> Option<&str> {
    let (crc_hex, payload) = line.split_once(' ')?;
    let crc = u32::from_str_radix(crc_hex, 16).ok()?;
    (crc == crc32(payload.as_bytes())).then_some(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(index: u64) -> CellRecord {
        CellRecord {
            index,
            bomb: format!("bomb_{index}"),
            profile: "triton".to_string(),
            outcome: Outcome::Abnormal,
            expected: Some(Outcome::Solved),
            wall_ns: 1234,
            rounds: 3,
            queries: 7,
            injected_faults: 1,
            fault_log: vec!["engine_round@1=panic".to_string()],
            crash: Some(CrashDiag {
                message: "injected panic".to_string(),
                stage: "symex".to_string(),
                elapsed_ns: 99,
            }),
            retries: 2,
            quarantined: true,
            retry_backoff_ns: 30_000_000,
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        for rec in [
            record(5),
            CellRecord {
                expected: None,
                crash: None,
                fault_log: Vec::new(),
                injected_faults: 0,
                retries: 0,
                quarantined: false,
                retry_backoff_ns: 0,
                ..record(0)
            },
        ] {
            let json = rec.to_json();
            assert_eq!(CellRecord::from_json(&json).unwrap(), rec, "{json}");
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bomblab-ckpt-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_then_resume_replays_every_record() {
        let dir = tmp_dir("replay");
        let fp = fingerprint(["a", "b"]);
        let (mut journal, completed) = Journal::open(&dir, fp, false).unwrap();
        assert!(completed.is_empty());
        for i in 0..4 {
            journal.append(&record(i)).unwrap();
        }
        let (journal, completed) = Journal::open(&dir, fp, true).unwrap();
        assert_eq!(journal.records(), 4);
        assert_eq!(completed.len(), 4);
        assert_eq!(completed[&2], record(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tails_are_dropped_not_fatal() {
        let dir = tmp_dir("torn");
        let fp = fingerprint(["x"]);
        let (mut journal, _) = Journal::open(&dir, fp, false).unwrap();
        for i in 0..3 {
            journal.append(&record(i)).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let text = fs::read_to_string(&path).unwrap();
        // Cutting only the trailing newline keeps the last record; any
        // cut into the record itself drops it (and nothing else).
        for (cut, survivors) in [
            (text.len() - 1, 3),
            (text.len() - 10, 2),
            (text.len() - 25, 2),
        ] {
            fs::write(&path, &text.as_bytes()[..cut]).unwrap();
            let (_, completed) = Journal::open(&dir, fp, true).unwrap();
            assert_eq!(completed.len(), survivors, "cut at {cut}");
        }
        // Corrupt a middle record: everything after it is dropped too.
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[2] = lines[2].replace("bomb_1", "bomb_X");
        fs::write(&path, lines.join("\n")).unwrap();
        let (_, completed) = Journal::open(&dir, fp, true).unwrap();
        assert_eq!(completed.len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_journals_are_ignored_wholesale() {
        let dir = tmp_dir("foreign");
        let (mut journal, _) = Journal::open(&dir, fingerprint(["study-a"]), false).unwrap();
        journal.append(&record(0)).unwrap();
        let (_, completed) = Journal::open(&dir, fingerprint(["study-b"]), true).unwrap();
        assert!(completed.is_empty(), "a foreign journal must not replay");
        // And the open truncated it for the new fingerprint.
        let (_, completed) = Journal::open(&dir, fingerprint(["study-b"]), true).unwrap();
        assert!(completed.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_resume_open_truncates() {
        let dir = tmp_dir("trunc");
        let fp = fingerprint(["s"]);
        let (mut journal, _) = Journal::open(&dir, fp, false).unwrap();
        journal.append(&record(0)).unwrap();
        let (_, completed) = Journal::open(&dir, fp, false).unwrap();
        assert!(completed.is_empty());
        let (_, completed) = Journal::open(&dir, fp, true).unwrap();
        assert!(
            completed.is_empty(),
            "the non-resume open wiped the records"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_costs_is_fingerprint_agnostic_and_crc_guarded() {
        let dir = tmp_dir("costs");
        let (mut journal, _) = Journal::open(&dir, fingerprint(["study-a"]), false).unwrap();
        for i in 0..3 {
            journal
                .append(&CellRecord {
                    wall_ns: 1_000 * (i + 1),
                    ..record(i)
                })
                .unwrap();
        }
        // A later record for the same (bomb, profile) supersedes.
        journal
            .append(&CellRecord {
                wall_ns: 9_999,
                ..record(1)
            })
            .unwrap();
        let costs = load_costs(&dir);
        assert_eq!(costs.len(), 3);
        assert_eq!(
            costs[&("bomb_1".to_string(), "triton".to_string())],
            9_999,
            "latest record wins"
        );
        // Costs load even though the asking study has a different
        // fingerprint — stale costs are hints, not results.
        assert_eq!(costs[&("bomb_0".to_string(), "triton".to_string())], 1_000);
        // Corrupt a middle record: it and everything after are dropped.
        let path = dir.join(JOURNAL_FILE);
        let text = fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        lines[2] = lines[2].replace("bomb_1", "bomb_X");
        fs::write(&path, lines.join("\n")).unwrap();
        let costs = load_costs(&dir);
        assert_eq!(costs.len(), 1);
        // A missing journal yields an empty map, never an error.
        let _ = fs::remove_dir_all(&dir);
        assert!(load_costs(&dir).is_empty());
    }

    #[test]
    fn fingerprint_separates_parts() {
        assert_ne!(fingerprint(["ab", "c"]), fingerprint(["a", "bc"]));
        assert_eq!(fingerprint(["ab", "c"]), fingerprint(["ab", "c"]));
    }

    #[test]
    fn crc32_matches_the_ieee_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
