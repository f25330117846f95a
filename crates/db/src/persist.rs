//! Persistence: snapshots plus an append-only row journal.
//!
//! The GOOFI paper stores all tool data in a portable SQL database so that
//! campaigns survive host restarts and can be moved between host platforms;
//! JSON on disk is our portable equivalent. Two mechanisms cooperate:
//!
//! * **Snapshots** — [`Database::save`] serialises the whole database and
//!   writes it *atomically* (temp file in the same directory, then rename),
//!   so a crash mid-write can never corrupt an existing database file.
//! * **Journal** — a WAL-style sidecar file (`<db>.journal`) holding one
//!   JSON line per appended row. Campaign runners append each finished
//!   experiment as it completes — O(row) bytes per experiment instead of
//!   re-serialising the whole database — and [`Database::load`] replays the
//!   journal over the snapshot. Replay is idempotent: rows already captured
//!   by a later snapshot are skipped, and a torn final line (crash while
//!   appending) is ignored.

use crate::database::Database;
use crate::error::DbError;
use crate::query::Insert;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Path of the journal sidecar belonging to a database file: the database
/// path with `.journal` appended (`goofi.json` → `goofi.json.journal`).
pub fn journal_path(db_path: impl AsRef<Path>) -> PathBuf {
    let p = db_path.as_ref();
    let mut name = p.file_name().unwrap_or_default().to_os_string();
    name.push(".journal");
    p.with_file_name(name)
}

/// One journalled row append.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct JournalEntry {
    /// Target table.
    table: String,
    /// Full-width row values.
    row: Vec<Value>,
}

/// An open append-only row journal (see the module docs).
///
/// A `Journal` belongs to one database file; keep it open for the duration
/// of a campaign and call [`Journal::append`] once per finished row. After
/// a full snapshot ([`Database::save`]) the journal contents are redundant
/// and should be dropped with [`Journal::truncate`].
#[derive(Debug)]
pub struct Journal {
    file: fs::File,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if needed) the journal sidecar of `db_path`.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on filesystem errors.
    pub fn open(db_path: impl AsRef<Path>) -> Result<Journal, DbError> {
        let path = journal_path(db_path);
        let file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| DbError::Io(format!("open journal {}: {e}", path.display())))?;
        Ok(Journal { file, path })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one row destined for `table` as a single JSON line and
    /// flushes it to the OS, so a finished experiment survives a tool
    /// crash.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on serialisation or filesystem errors.
    pub fn append(&mut self, table: &str, row: &[Value]) -> Result<(), DbError> {
        // Span names are string literals (matching goofi-telemetry's
        // `names::JOURNAL_*`) because the telemetry crate sits above this
        // one in the dependency graph.
        let write = {
            let _s = tracing::span("journal.append");
            let entry = JournalEntry {
                table: table.to_owned(),
                row: row.to_vec(),
            };
            let mut line = serde_json::to_string(&entry).map_err(|e| DbError::Io(e.to_string()))?;
            line.push('\n');
            self.file.write_all(line.as_bytes())
        };
        write
            .and_then(|()| {
                let _s = tracing::span("journal.fsync");
                self.file.flush()
            })
            .map_err(|e| DbError::Io(format!("append journal {}: {e}", self.path.display())))
    }

    /// Empties the journal (after its rows were captured by a snapshot).
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on filesystem errors.
    pub fn truncate(&mut self) -> Result<(), DbError> {
        self.file
            .set_len(0)
            .map_err(|e| DbError::Io(format!("truncate journal {}: {e}", self.path.display())))
    }
}

impl Database {
    /// Serialises the database to a JSON string.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] if serialisation fails (it cannot for well-formed
    /// databases; non-finite floats serialise as `null` and will load back
    /// as NULL).
    pub fn to_json(&self) -> Result<String, DbError> {
        serde_json::to_string(self).map_err(|e| DbError::Io(e.to_string()))
    }

    /// Restores a database from [`Database::to_json`] output. Indexes are
    /// rebuilt from row data.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on malformed input.
    pub fn from_json(json: &str) -> Result<Database, DbError> {
        let mut db: Database =
            serde_json::from_str(json).map_err(|e| DbError::Io(e.to_string()))?;
        db.rebuild_all_indexes();
        Ok(db)
    }

    /// Saves a full snapshot of the database to a file, atomically: the
    /// JSON is written to a temporary file in the same directory and then
    /// renamed into place, so a crash mid-write leaves any previous
    /// database file intact.
    ///
    /// Snapshots supersede the journal; callers holding an open [`Journal`]
    /// for this path should [`Journal::truncate`] it after a successful
    /// save.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on filesystem errors.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), DbError> {
        let path = path.as_ref();
        let json = self.to_json()?;
        let mut tmp_name = path.file_name().unwrap_or_default().to_os_string();
        tmp_name.push(".tmp");
        let tmp = path.with_file_name(tmp_name);
        fs::write(&tmp, json).map_err(|e| DbError::Io(format!("write {}: {e}", tmp.display())))?;
        fs::rename(&tmp, path).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            DbError::Io(format!("rename into {}: {e}", path.display()))
        })
    }

    /// Loads a database from a file written by [`Database::save`], then
    /// replays the sidecar journal (if one exists) so rows appended after
    /// the last snapshot reappear. Replay skips rows a snapshot already
    /// holds (unique-key collision) and tolerates a torn final line.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on filesystem or format errors, including a corrupt
    /// (non-final) journal line.
    pub fn load(path: impl AsRef<Path>) -> Result<Database, DbError> {
        let path = path.as_ref();
        let json = fs::read_to_string(path).map_err(|e| DbError::Io(e.to_string()))?;
        let mut db = Database::from_json(&json)?;
        db.replay_journal(journal_path(path))?;
        Ok(db)
    }

    /// Replays an append-only journal file into the database. Returns the
    /// number of rows applied. Missing file means nothing to replay.
    ///
    /// # Errors
    ///
    /// [`DbError::Io`] on a corrupt non-final line; any non-duplicate
    /// insert error (unknown table, FK violation) is surfaced as-is.
    pub fn replay_journal(&mut self, journal: impl AsRef<Path>) -> Result<usize, DbError> {
        let journal = journal.as_ref();
        let text = match fs::read_to_string(journal) {
            Ok(text) => text,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => {
                return Err(DbError::Io(format!(
                    "read journal {}: {e}",
                    journal.display()
                )))
            }
        };
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        let mut applied = 0;
        for (i, line) in lines.iter().enumerate() {
            let entry: JournalEntry = match serde_json::from_str(line) {
                Ok(entry) => entry,
                // A torn final line is the expected signature of a crash
                // mid-append; corruption anywhere else is a real error.
                Err(_) if i + 1 == lines.len() => break,
                Err(e) => {
                    return Err(DbError::Io(format!(
                        "corrupt journal line {} in {}: {e}",
                        i + 1,
                        journal.display()
                    )))
                }
            };
            match self.insert(Insert::into(entry.table, entry.row)) {
                Ok(_) => applied += 1,
                // Row already captured by a later snapshot: replay must be
                // idempotent.
                Err(DbError::UniqueViolation { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(applied)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Insert, Select};
    use crate::schema::{Column, TableSchema};
    use crate::value::{Value, ValueType};

    fn sample() -> Database {
        let mut db = Database::new();
        db.create_table(
            TableSchema::new(
                "t",
                vec![
                    Column::new("id", ValueType::Text).primary_key(),
                    Column::new("v", ValueType::Integer),
                    Column::new("b", ValueType::Blob),
                ],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert(Insert::into(
            "t",
            vec!["a".into(), 1.into(), vec![1u8, 2].into()],
        ))
        .unwrap();
        db.insert(Insert::into(
            "t",
            vec!["b".into(), Value::Null, Value::Null],
        ))
        .unwrap();
        db
    }

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("goofi_db_persist_test")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn json_roundtrip_preserves_rows_and_constraints() {
        let db = sample();
        let json = db.to_json().unwrap();
        let mut restored = Database::from_json(&json).unwrap();
        let rs = restored.query("SELECT id, v FROM t ORDER BY id").unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.rows[0][0], Value::Text("a".into()));
        // Unique index must be live after restore.
        let err = restored
            .insert(Insert::into("t", vec!["a".into(), 9.into(), Value::Null]))
            .unwrap_err();
        assert!(matches!(err, crate::DbError::UniqueViolation { .. }));
    }

    #[test]
    fn file_roundtrip() {
        let db = sample();
        let path = tmpdir("roundtrip").join("db.json");
        db.save(&path).unwrap();
        let restored = Database::load(&path).unwrap();
        assert_eq!(
            restored.select(Select::from("t")).unwrap().len(),
            db.select(Select::from("t")).unwrap().len()
        );
    }

    #[test]
    fn save_is_atomic_no_temp_residue() {
        let db = sample();
        let dir = tmpdir("atomic");
        let path = dir.join("db.json");
        // Save over an existing file; the temp file must be gone after.
        db.save(&path).unwrap();
        db.save(&path).unwrap();
        let entries: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(entries, vec!["db.json"], "no .tmp residue: {entries:?}");
        Database::load(&path).unwrap();
    }

    #[test]
    fn load_missing_file_is_io_error() {
        let err = Database::load("/nonexistent/nowhere.json").unwrap_err();
        assert!(matches!(err, crate::DbError::Io(_)));
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(matches!(
            Database::from_json("{not json"),
            Err(crate::DbError::Io(_))
        ));
    }

    #[test]
    fn deeply_nested_snapshot_is_an_error_not_a_stack_overflow() {
        let hostile = format!("{{\"tables\":{}", "[".repeat(1_000_000));
        match Database::from_json(&hostile) {
            Err(crate::DbError::Io(msg)) => assert!(msg.contains("recursion limit"), "{msg}"),
            other => panic!("expected an I/O error, got {other:?}"),
        }
    }

    #[test]
    fn journal_replays_rows_appended_after_snapshot() {
        let db = sample();
        let path = tmpdir("journal").join("db.json");
        db.save(&path).unwrap();
        let mut journal = Journal::open(&path).unwrap();
        journal
            .append("t", &["c".into(), 3.into(), Value::Null])
            .unwrap();
        journal
            .append("t", &["d".into(), 4.into(), Value::Null])
            .unwrap();
        let restored = Database::load(&path).unwrap();
        assert_eq!(restored.select(Select::from("t")).unwrap().len(), 4);
    }

    #[test]
    fn journal_replay_is_idempotent_after_snapshot() {
        let mut db = sample();
        let path = tmpdir("idempotent").join("db.json");
        db.save(&path).unwrap();
        let mut journal = Journal::open(&path).unwrap();
        journal
            .append("t", &["c".into(), 3.into(), Value::Null])
            .unwrap();
        // Snapshot now also contains row c (crash happened between rename
        // and truncate): replay must skip the duplicate.
        db.insert(Insert::into("t", vec!["c".into(), 3.into(), Value::Null]))
            .unwrap();
        db.save(&path).unwrap();
        let restored = Database::load(&path).unwrap();
        assert_eq!(restored.select(Select::from("t")).unwrap().len(), 3);
    }

    #[test]
    fn torn_final_journal_line_is_ignored() {
        let db = sample();
        let path = tmpdir("torn").join("db.json");
        db.save(&path).unwrap();
        let mut journal = Journal::open(&path).unwrap();
        journal
            .append("t", &["c".into(), 3.into(), Value::Null])
            .unwrap();
        // Simulate a crash mid-append: half a JSON line at the end.
        let jp = journal_path(&path);
        let mut text = fs::read_to_string(&jp).unwrap();
        text.push_str("{\"table\":\"t\",\"row\":[");
        fs::write(&jp, text).unwrap();
        let restored = Database::load(&path).unwrap();
        assert_eq!(restored.select(Select::from("t")).unwrap().len(), 3);
    }

    #[test]
    fn corrupt_middle_journal_line_is_an_error() {
        let db = sample();
        let path = tmpdir("corrupt").join("db.json");
        db.save(&path).unwrap();
        let jp = journal_path(&path);
        fs::write(&jp, "garbage\n{\"table\":\"t\",\"row\":[\"c\",3,null]}\n").unwrap();
        assert!(matches!(Database::load(&path), Err(DbError::Io(_))));
    }

    #[test]
    fn journal_truncate_empties_file() {
        let path = tmpdir("truncate").join("db.json");
        sample().save(&path).unwrap();
        let mut journal = Journal::open(&path).unwrap();
        journal
            .append("t", &["c".into(), 3.into(), Value::Null])
            .unwrap();
        journal.truncate().unwrap();
        assert_eq!(fs::metadata(journal.path()).unwrap().len(), 0);
        assert_eq!(
            Database::load(&path)
                .unwrap()
                .select(Select::from("t"))
                .unwrap()
                .len(),
            2
        );
    }

    #[test]
    fn journal_bytes_scale_linearly_not_quadratically() {
        // The streaming-persistence guarantee: appending n rows writes
        // O(n) journal bytes total, unlike n full snapshots (O(n^2)).
        let db = sample();
        let path = tmpdir("linear").join("db.json");
        db.save(&path).unwrap();
        let mut journal = Journal::open(&path).unwrap();
        let mut sizes = Vec::new();
        for i in 0..50 {
            journal
                .append(
                    "t",
                    &[
                        format!("row{i:04}").into(),
                        (1000 + i as i64).into(),
                        Value::Null,
                    ],
                )
                .unwrap();
            sizes.push(fs::metadata(journal.path()).unwrap().len());
        }
        let deltas: Vec<u64> = sizes.windows(2).map(|w| w[1] - w[0]).collect();
        let (min, max) = (*deltas.iter().min().unwrap(), *deltas.iter().max().unwrap());
        assert_eq!(min, max, "every append writes the same number of bytes");
        let restored = Database::load(&path).unwrap();
        assert_eq!(restored.select(Select::from("t")).unwrap().len(), 52);
    }
}
