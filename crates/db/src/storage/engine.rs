//! The paged storage engine: catalog, per-table row heaps, primary-key
//! B-tree indexes, WAL-backed appends and checkpoint/recovery.
//!
//! Checkpoint protocol (torn-page safe):
//!
//! 1. append a full image of every dirty page to the WAL,
//! 2. append a commit marker and flush the WAL,
//! 3. write the dirty pages in place (ascending page id) and flush,
//! 4. truncate the WAL.
//!
//! Between checkpoints the data file is never touched (the buffer
//! pool's no-steal policy), so recovery sees exactly one of two
//! states: *no commit marker in the WAL* — the data file is the last
//! checkpoint, replay the logical records (tolerating a torn tail);
//! *commit marker present* — a checkpoint died mid-write, reapply the
//! (idempotent) page images, then replay any logical records after
//! the marker.

use super::btree::BTree;
use super::buffer::BufferPool;
use super::codec::{decode_row, decode_value, encode_row, encode_value};
use super::disk::DiskManager;
use super::heap;
use super::page::{get_u32, put_u32, PageId, FORMAT_VERSION, MAGIC, PAGE_SIZE};
use super::wal::{Wal, WalRecord};
use crate::database::Database;
use crate::error::DbError;
use crate::schema::TableSchema;
use crate::table::{IndexKey, Row, Table};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::io::Read;
use std::path::{Path, PathBuf};

// Header page (page 0) field offsets.
const H_MAGIC: usize = 0;
const H_VERSION: usize = 8;
const H_PAGE_SIZE: usize = 12;
const H_PAGE_COUNT: usize = 16;
const H_CATALOG_ROOT: usize = 20;
const H_CATALOG_LEN: usize = 24;

const CHAIN_CAP: usize = PAGE_SIZE - 8;

/// Serialized catalog entry: one table's schema and heap chain.
#[derive(Serialize, Deserialize)]
struct CatalogEntry {
    name: String,
    schema: TableSchema,
    first_page: PageId,
    last_page: PageId,
}

struct EngineTable {
    name: String,
    schema: TableSchema,
    first_page: PageId,
    last_page: PageId,
    pk: Option<usize>,
    /// Primary key → row location. Deletions blank the value (the
    /// B-tree is append-only); the tree is rebuilt on every open.
    index: BTree<IndexKey, Option<heap::RowId>>,
    live_rows: u64,
    dead_slots: u64,
}

/// The WAL path that belongs to the data file at `db_path` — the data
/// file's name with `.wal` appended (mirrors [`crate::journal_path`]).
pub fn wal_path(db_path: impl AsRef<Path>) -> PathBuf {
    let p = db_path.as_ref();
    let mut name = p.file_name().unwrap_or_default().to_os_string();
    name.push(".wal");
    p.with_file_name(name)
}

/// Whether the file at `path` starts with the paged-engine magic.
/// Missing or short files answer `false` (legacy JSON path).
pub fn is_paged_file(path: impl AsRef<Path>) -> bool {
    let mut buf = [0u8; 8];
    match std::fs::File::open(path.as_ref()) {
        Ok(mut f) => f.read_exact(&mut buf).is_ok() && &buf == MAGIC,
        Err(_) => false,
    }
}

/// A database stored as fixed-size pages with WAL durability.
pub struct PagedEngine {
    disk: DiskManager,
    pool: BufferPool,
    wal: Wal,
    catalog_root: PageId,
    catalog_len: u32,
    tables: Vec<EngineTable>,
}

impl std::fmt::Debug for PagedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedEngine")
            .field("path", &self.path())
            .field("tables", &self.tables.len())
            .finish()
    }
}

/// Sizes and fragmentation counters for `goofi db stats`.
#[derive(Debug, Clone, Serialize)]
pub struct EngineStats {
    /// Bytes per page.
    pub page_size: usize,
    /// Logically allocated pages (including the header).
    pub page_count: u32,
    /// Data file size on disk in bytes.
    pub file_bytes: u64,
    /// WAL size on disk in bytes.
    pub wal_bytes: u64,
    /// Valid records currently in the WAL.
    pub wal_records: usize,
    /// Per-table heap/index statistics, in catalog order.
    pub tables: Vec<TableStats>,
}

/// Per-table statistics within [`EngineStats`].
#[derive(Debug, Clone, Serialize)]
pub struct TableStats {
    /// Table name.
    pub name: String,
    /// Pages in the table's heap chain (overflow pages excluded).
    pub heap_pages: usize,
    /// Live rows.
    pub live_rows: u64,
    /// Tombstoned slots awaiting `compact`.
    pub dead_slots: u64,
    /// Entries in the primary-key index (equals live rows when the
    /// table has a primary key).
    pub index_entries: u64,
}

impl PagedEngine {
    /// Creates a fresh, empty engine file at `path` (truncating), with
    /// its WAL beside it.
    pub fn create(path: &Path) -> Result<PagedEngine, DbError> {
        let mut disk = DiskManager::create(path)?;
        let mut pool = BufferPool::new();
        let hdr = pool.page_mut(&mut disk, 0)?;
        hdr.fill(0);
        hdr[H_MAGIC..H_MAGIC + 8].copy_from_slice(MAGIC);
        put_u32(hdr, H_VERSION, FORMAT_VERSION);
        put_u32(hdr, H_PAGE_SIZE, PAGE_SIZE as u32);
        put_u32(hdr, H_PAGE_COUNT, 1);
        let wal = Wal::open(&wal_path(path), 0)?;
        Ok(PagedEngine {
            disk,
            pool,
            wal,
            catalog_root: 0,
            catalog_len: 0,
            tables: Vec::new(),
        })
    }

    /// Opens the engine at `path`, running WAL recovery: reapply a
    /// committed checkpoint image set if one is present, then replay
    /// the logical record tail (tolerating a torn final record).
    /// Recovery mutates only the buffer pool — the data file is not
    /// written until the next checkpoint. The WAL is cut back to the
    /// prefix it replayed, so later appends extend exactly that history.
    pub fn open(path: &Path) -> Result<PagedEngine, DbError> {
        let mut disk = DiskManager::open(path)?;
        let mut pool = BufferPool::new();
        let (records, valid_len) = Wal::read_all(&wal_path(path))?;
        let last_commit = records.iter().rposition(|r| matches!(r, WalRecord::Commit));
        if let Some(ci) = last_commit {
            for rec in &records[..ci] {
                if let WalRecord::PageImage { page, data } = rec {
                    pool.install(*page, data);
                }
            }
        }
        let (page_count, catalog_root, catalog_len) = {
            let hdr = pool.page(&mut disk, 0)?;
            if &hdr[H_MAGIC..H_MAGIC + 8] != MAGIC {
                return Err(DbError::Io(format!(
                    "{} is not a paged goofi database",
                    path.display()
                )));
            }
            if get_u32(hdr, H_VERSION) != FORMAT_VERSION {
                return Err(DbError::Io(format!(
                    "unsupported paged format version {}",
                    get_u32(hdr, H_VERSION)
                )));
            }
            if get_u32(hdr, H_PAGE_SIZE) as usize != PAGE_SIZE {
                return Err(DbError::Io(format!(
                    "unsupported page size {}",
                    get_u32(hdr, H_PAGE_SIZE)
                )));
            }
            (
                get_u32(hdr, H_PAGE_COUNT),
                get_u32(hdr, H_CATALOG_ROOT),
                get_u32(hdr, H_CATALOG_LEN),
            )
        };
        disk.set_page_count(page_count);
        let wal = Wal::open(&wal_path(path), valid_len)?;
        let mut engine = PagedEngine {
            disk,
            pool,
            wal,
            catalog_root,
            catalog_len,
            tables: Vec::new(),
        };
        engine.load_catalog()?;
        engine.rebuild_indexes()?;
        let tail = match last_commit {
            Some(ci) => &records[ci + 1..],
            None => &records[..],
        };
        for rec in tail {
            match rec {
                WalRecord::Insert { table, row } => {
                    let row = decode_row(row)?;
                    engine.apply_insert(table, &row)?;
                }
                WalRecord::Delete { table, key } => {
                    let mut pos = 0usize;
                    let key = decode_value(key, &mut pos)?;
                    engine.apply_delete(table, &key)?;
                }
                WalRecord::PageImage { .. } | WalRecord::Commit => {
                    return Err(DbError::Io(
                        "unexpected page image after checkpoint commit".into(),
                    ));
                }
            }
        }
        Ok(engine)
    }

    fn load_catalog(&mut self) -> Result<(), DbError> {
        if self.catalog_root == 0 || self.catalog_len == 0 {
            return Ok(());
        }
        let bytes = self.read_chain(self.catalog_root, self.catalog_len as usize)?;
        let text = String::from_utf8(bytes)
            .map_err(|_| DbError::Io("catalog is not valid UTF-8".into()))?;
        let entries: Vec<CatalogEntry> =
            serde_json::from_str(&text).map_err(|e| DbError::Io(format!("bad catalog: {e}")))?;
        self.tables = entries
            .into_iter()
            .map(|e| {
                let pk = e.schema.primary_key_index();
                EngineTable {
                    name: e.name,
                    schema: e.schema,
                    first_page: e.first_page,
                    last_page: e.last_page,
                    pk,
                    index: BTree::new(),
                    live_rows: 0,
                    dead_slots: 0,
                }
            })
            .collect();
        Ok(())
    }

    /// Rebuilds every table's primary-key index and live/dead counters
    /// by scanning the heaps.
    fn rebuild_indexes(&mut self) -> Result<(), DbError> {
        for ti in 0..self.tables.len() {
            let first = self.tables[ti].first_page;
            let pk = self.tables[ti].pk;
            let mut index = BTree::new();
            let mut live = 0u64;
            let mut dead = 0u64;
            let chain = heap::chain(&mut self.pool, &mut self.disk, first)?;
            for pid in chain {
                let (_, total) = heap::page_slots(&mut self.pool, &mut self.disk, pid)?;
                for slot in 0..total {
                    match heap::read_row(&mut self.pool, &mut self.disk, (pid, slot))? {
                        Some(bytes) => {
                            live += 1;
                            if let Some(col) = pk {
                                let row = decode_row(&bytes)?;
                                index.insert(IndexKey(row[col].clone()), Some((pid, slot)));
                            }
                        }
                        None => dead += 1,
                    }
                }
            }
            let t = &mut self.tables[ti];
            t.index = index;
            t.live_rows = live;
            t.dead_slots = dead;
        }
        Ok(())
    }

    /// Path of the data file.
    pub fn path(&self) -> &Path {
        self.disk.path()
    }

    /// Table names in catalog (creation) order.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.iter().map(|t| t.name.clone()).collect()
    }

    /// The schema of `table`, if it exists.
    pub fn schema_of(&self, table: &str) -> Option<&TableSchema> {
        self.tables
            .iter()
            .find(|t| t.name == table)
            .map(|t| &t.schema)
    }

    fn table_idx(&self, name: &str) -> Result<usize, DbError> {
        self.tables
            .iter()
            .position(|t| t.name == name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))
    }

    /// Adds a table to the catalog and allocates its first heap page.
    /// Durable only after the next checkpoint — callers create tables
    /// during bulk builds and checkpoint immediately after.
    pub fn create_table(&mut self, schema: &TableSchema) -> Result<(), DbError> {
        if self.tables.iter().any(|t| t.name == schema.name()) {
            return Err(DbError::TableExists(schema.name().to_owned()));
        }
        let first = self.disk.allocate();
        let page = self.pool.page_mut(&mut self.disk, first)?;
        heap::init_page(page);
        self.tables.push(EngineTable {
            name: schema.name().to_owned(),
            schema: schema.clone(),
            first_page: first,
            last_page: first,
            pk: schema.primary_key_index(),
            index: BTree::new(),
            live_rows: 0,
            dead_slots: 0,
        });
        Ok(())
    }

    fn check_pk_free(&self, ti: usize, row: &Row) -> Result<(), DbError> {
        let t = &self.tables[ti];
        if let Some(col) = t.pk {
            if col >= row.len() {
                return Err(DbError::ArityMismatch {
                    expected: t.schema.arity(),
                    got: row.len(),
                });
            }
            let key = IndexKey(row[col].clone());
            if t.index.get(&key).is_some_and(|v| v.is_some()) {
                return Err(DbError::UniqueViolation {
                    table: t.name.clone(),
                    column: t.schema.columns()[col].name().to_owned(),
                });
            }
        }
        Ok(())
    }

    fn apply_insert(&mut self, table: &str, row: &Row) -> Result<(), DbError> {
        let ti = self.table_idx(table)?;
        self.check_pk_free(ti, row)?;
        self.apply_insert_at(ti, row)
    }

    /// [`Self::apply_insert`] with the table index and uniqueness check
    /// already done by the caller.
    fn apply_insert_at(&mut self, ti: usize, row: &Row) -> Result<(), DbError> {
        let bytes = encode_row(row);
        let (rowid, new_last) = heap::append_row(
            &mut self.pool,
            &mut self.disk,
            self.tables[ti].last_page,
            &bytes,
        )?;
        let t = &mut self.tables[ti];
        t.last_page = new_last;
        t.live_rows += 1;
        if let Some(col) = t.pk {
            t.index.insert(IndexKey(row[col].clone()), Some(rowid));
        }
        Ok(())
    }

    fn apply_delete(&mut self, table: &str, key: &Value) -> Result<bool, DbError> {
        let ti = self.table_idx(table)?;
        let t = &self.tables[ti];
        let Some(_col) = t.pk else { return Ok(false) };
        let k = IndexKey(key.clone());
        let Some(Some(rowid)) = t.index.get(&k).cloned() else {
            return Ok(false);
        };
        heap::delete_row(&mut self.pool, &mut self.disk, rowid)?;
        let t = &mut self.tables[ti];
        t.index.insert(k, None);
        t.live_rows -= 1;
        t.dead_slots += 1;
        Ok(true)
    }

    /// Appends `row` to `table`: one WAL record, then the in-page
    /// write. O(row), not O(database) — this is the sustained-append
    /// path `goofi run` streams experiment rows through.
    pub fn append(&mut self, table: &str, row: &Row) -> Result<(), DbError> {
        let ti = self.table_idx(table)?;
        self.check_pk_free(ti, row)?;
        self.wal.append(&WalRecord::Insert {
            table: table.to_owned(),
            row: encode_row(row),
        })?;
        self.apply_insert_at(ti, row)
    }

    /// Deletes the row of `table` whose primary key equals `key`.
    /// Returns whether a row was deleted. No-op (and no WAL record)
    /// when the key is absent.
    pub fn delete_by_pk(&mut self, table: &str, key: &Value) -> Result<bool, DbError> {
        let ti = self.table_idx(table)?;
        let t = &self.tables[ti];
        let Some(_) = t.pk else { return Ok(false) };
        let k = IndexKey(key.clone());
        if !t.index.get(&k).is_some_and(|v| v.is_some()) {
            return Ok(false);
        }
        let mut kb = Vec::new();
        encode_value(key, &mut kb);
        self.wal.append(&WalRecord::Delete {
            table: table.to_owned(),
            key: kb,
        })?;
        self.apply_delete(table, key)
    }

    /// Inserts without writing a WAL record — bulk-build path where
    /// durability comes from the closing checkpoint + rename.
    fn insert_direct(&mut self, table: &str, row: &Row) -> Result<(), DbError> {
        self.apply_insert(table, row)
    }

    /// O(log n) point lookup through the primary-key index.
    pub fn pk_get(&mut self, table: &str, key: &Value) -> Result<Option<Row>, DbError> {
        let ti = self.table_idx(table)?;
        let k = IndexKey(key.clone());
        let Some(Some(rowid)) = self.tables[ti].index.get(&k).cloned() else {
            return Ok(None);
        };
        match heap::read_row(&mut self.pool, &mut self.disk, rowid)? {
            Some(bytes) => Ok(Some(decode_row(&bytes)?)),
            None => Ok(None),
        }
    }

    /// All live rows of `table` in heap (insertion) order.
    pub fn rows(&mut self, table: &str) -> Result<Vec<Row>, DbError> {
        let ti = self.table_idx(table)?;
        let first = self.tables[ti].first_page;
        let chain = heap::chain(&mut self.pool, &mut self.disk, first)?;
        let mut out = Vec::new();
        for pid in chain {
            let (_, total) = heap::page_slots(&mut self.pool, &mut self.disk, pid)?;
            for slot in 0..total {
                if let Some(bytes) = heap::read_row(&mut self.pool, &mut self.disk, (pid, slot))? {
                    out.push(decode_row(&bytes)?);
                }
            }
        }
        Ok(out)
    }

    /// Writes `data` into the catalog chain, reusing existing chain
    /// pages and allocating more as needed. Returns the chain root.
    fn write_chain(&mut self, existing: PageId, data: &[u8]) -> Result<PageId, DbError> {
        let mut reuse = existing;
        let mut first: PageId = 0;
        let mut prev: PageId = 0;
        let chunks: Vec<&[u8]> = if data.is_empty() {
            vec![&[]]
        } else {
            data.chunks(CHAIN_CAP).collect()
        };
        for chunk in chunks {
            let (cur, next_reuse) = if reuse != 0 {
                let next = get_u32(self.pool.page(&mut self.disk, reuse)?, 0);
                (reuse, next)
            } else {
                (self.disk.allocate(), 0)
            };
            reuse = next_reuse;
            let page = self.pool.page_mut(&mut self.disk, cur)?;
            page.fill(0);
            put_u32(page, 4, chunk.len() as u32);
            page[8..8 + chunk.len()].copy_from_slice(chunk);
            if first == 0 {
                first = cur;
            } else {
                let prev_page = self.pool.page_mut(&mut self.disk, prev)?;
                put_u32(prev_page, 0, cur);
            }
            prev = cur;
        }
        Ok(first)
    }

    fn read_chain(&mut self, first: PageId, total: usize) -> Result<Vec<u8>, DbError> {
        let mut out = Vec::with_capacity(total);
        let mut id = first;
        let limit = self.disk.page_count() as usize + 1;
        let mut hops = 0usize;
        while id != 0 && out.len() < total {
            hops += 1;
            if hops > limit {
                return Err(DbError::Io("catalog chain cycle".into()));
            }
            let page = self.pool.page(&mut self.disk, id)?;
            let used = get_u32(page, 4) as usize;
            if used > CHAIN_CAP {
                return Err(DbError::Io("corrupt catalog page".into()));
            }
            out.extend_from_slice(&page[8..8 + used]);
            id = get_u32(page, 0);
        }
        if out.len() < total {
            return Err(DbError::Io("short catalog chain".into()));
        }
        out.truncate(total);
        Ok(out)
    }

    fn write_catalog_and_header(&mut self) -> Result<(), DbError> {
        let entries: Vec<CatalogEntry> = self
            .tables
            .iter()
            .map(|t| CatalogEntry {
                name: t.name.clone(),
                schema: t.schema.clone(),
                first_page: t.first_page,
                last_page: t.last_page,
            })
            .collect();
        let json =
            serde_json::to_string(&entries).map_err(|e| DbError::Io(format!("catalog: {e}")))?;
        self.catalog_root = self.write_chain(self.catalog_root, json.as_bytes())?;
        self.catalog_len = json.len() as u32;
        let page_count = self.disk.page_count();
        let catalog_root = self.catalog_root;
        let catalog_len = self.catalog_len;
        let hdr = self.pool.page_mut(&mut self.disk, 0)?;
        hdr.fill(0);
        hdr[H_MAGIC..H_MAGIC + 8].copy_from_slice(MAGIC);
        put_u32(hdr, H_VERSION, FORMAT_VERSION);
        put_u32(hdr, H_PAGE_SIZE, PAGE_SIZE as u32);
        put_u32(hdr, H_PAGE_COUNT, page_count);
        put_u32(hdr, H_CATALOG_ROOT, catalog_root);
        put_u32(hdr, H_CATALOG_LEN, catalog_len);
        Ok(())
    }

    fn flush_dirty(&mut self, log_images: bool) -> Result<(), DbError> {
        self.write_catalog_and_header()?;
        let dirty = self.pool.dirty_ids();
        if log_images {
            for id in &dirty {
                let data = self
                    .pool
                    .resident(*id)
                    .expect("dirty pages are resident")
                    .to_vec();
                self.wal.append(&WalRecord::PageImage { page: *id, data })?;
            }
            self.wal.append(&WalRecord::Commit)?;
        }
        // Durability point: every logged record (rows since the last
        // checkpoint, the page images, the commit marker) must reach
        // the OS before the in-place writes below can tear anything.
        self.wal.flush()?;
        for id in &dirty {
            let data = *self.pool.resident(*id).expect("dirty pages are resident");
            self.disk.write_page(*id, &data)?;
        }
        self.disk.sync()?;
        self.wal.truncate()?;
        self.pool.mark_all_clean();
        Ok(())
    }

    /// Checkpoints: makes the data file current and empties the WAL.
    /// This is what `save` amounts to on the paged engine — O(dirty
    /// pages), not O(total rows). No-op when nothing changed.
    pub fn checkpoint(&mut self) -> Result<(), DbError> {
        if self.pool.dirty_ids().is_empty() && self.wal.size()? == 0 {
            return Ok(());
        }
        let _s = tracing::span("checkpoint");
        self.flush_dirty(true)
    }

    /// Reconstructs an in-memory [`Database`] from the engine: tables
    /// in catalog order, rows in heap (insertion) order. Constraints are
    /// *not* re-validated — the rows passed every check when they were
    /// originally inserted, and skipping validation frees this path from
    /// any particular table or row ordering (catalog order is
    /// alphabetical, which need not topologically sort the FK graph).
    pub fn to_database(&mut self) -> Result<Database, DbError> {
        let mut db = Database::new();
        let names = self.table_names();
        for name in &names {
            let schema = self.schema_of(name).expect("catalog entry exists").clone();
            let mut table = Table::new(schema);
            for row in self.rows(name)? {
                table.push_unchecked(row);
            }
            table.rebuild_indexes();
            db.install_table(table);
        }
        Ok(db)
    }

    /// Size and fragmentation statistics for `goofi db stats`.
    pub fn stats(&mut self) -> Result<EngineStats, DbError> {
        // Buffered appends must hit the file for the record count below.
        self.wal.flush()?;
        let mut tables = Vec::new();
        for ti in 0..self.tables.len() {
            let first = self.tables[ti].first_page;
            let chain = heap::chain(&mut self.pool, &mut self.disk, first)?;
            let t = &self.tables[ti];
            tables.push(TableStats {
                name: t.name.clone(),
                heap_pages: chain.len(),
                live_rows: t.live_rows,
                dead_slots: t.dead_slots,
                index_entries: if t.pk.is_some() { t.live_rows } else { 0 },
            });
        }
        Ok(EngineStats {
            page_size: PAGE_SIZE,
            page_count: self.disk.page_count(),
            file_bytes: self.disk.file_len()?,
            wal_bytes: self.wal.size()?,
            wal_records: Wal::read_all(self.wal.path())?.0.len(),
            tables,
        })
    }
}

/// Atomically rewrites `path` as a fresh paged file holding exactly
/// `db`'s logical content (tables in name order, live rows in row-id
/// order): build into a `.tmp` sibling, checkpoint, rename over. Also
/// removes any stale WAL beside `path`, since the new file is fully
/// current. This is the compaction path — tombstoned slots and leaked
/// overflow pages do not survive it — and the byte-deterministic
/// `save` path for stores with no attached engine.
pub fn write_database(path: &Path, db: &Database) -> Result<(), DbError> {
    let tmp = {
        let mut name = path.file_name().unwrap_or_default().to_os_string();
        name.push(".tmp");
        path.with_file_name(name)
    };
    let build = (|| -> Result<(), DbError> {
        let mut engine = PagedEngine::create(&tmp)?;
        for name in db.table_names() {
            let table = db.table(name)?;
            engine.create_table(table.schema())?;
        }
        for name in db.table_names() {
            let table = db.table(name)?;
            for (_, row) in table.iter() {
                engine.insert_direct(name, row)?;
            }
        }
        engine.flush_dirty(false)
    })();
    if let Err(e) = build {
        let _ = std::fs::remove_file(&tmp);
        let _ = std::fs::remove_file(wal_path(&tmp));
        return Err(e);
    }
    std::fs::rename(&tmp, path).map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        DbError::Io(format!(
            "rename {} over {}: {e}",
            tmp.display(),
            path.display()
        ))
    })?;
    let _ = std::fs::remove_file(wal_path(&tmp));
    let _ = std::fs::remove_file(wal_path(path));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Insert;
    use crate::schema::Column;
    use crate::value::ValueType;

    fn tmpdir() -> PathBuf {
        let dir = std::env::temp_dir().join("goofi_engine_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fresh(name: &str) -> PathBuf {
        let p = tmpdir().join(name);
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(wal_path(&p));
        p
    }

    fn demo_schema() -> TableSchema {
        TableSchema::new(
            "T",
            vec![
                Column::new("id", ValueType::Text).primary_key(),
                Column::new("n", ValueType::Integer),
                Column::new("blob", ValueType::Blob),
            ],
        )
        .unwrap()
    }

    fn row(i: usize, blob_len: usize) -> Row {
        vec![
            Value::Text(format!("row-{i:05}")),
            Value::Integer(i as i64),
            Value::Blob(vec![(i % 251) as u8; blob_len]),
        ]
    }

    #[test]
    fn append_checkpoint_reopen_roundtrips() {
        let path = fresh("roundtrip.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        for i in 0..100 {
            e.append("T", &row(i, 16)).unwrap();
        }
        e.checkpoint().unwrap();
        drop(e);
        assert!(is_paged_file(&path));
        let mut e = PagedEngine::open(&path).unwrap();
        let rows = e.rows("T").unwrap();
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[42], row(42, 16));
        assert_eq!(
            e.pk_get("T", &Value::Text("row-00007".into())).unwrap(),
            Some(row(7, 16))
        );
    }

    #[test]
    fn uncheckpointed_tail_recovers_from_wal() {
        let path = fresh("tail.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        for i in 0..10 {
            e.append("T", &row(i, 8)).unwrap();
        }
        e.checkpoint().unwrap();
        for i in 10..25 {
            e.append("T", &row(i, 8)).unwrap();
        }
        drop(e); // crash: no checkpoint for the tail
        let mut e = PagedEngine::open(&path).unwrap();
        assert_eq!(e.rows("T").unwrap().len(), 25);
        // Recovery did not touch the data file; a second open replays
        // the same tail again.
        drop(e);
        let mut e = PagedEngine::open(&path).unwrap();
        assert_eq!(e.rows("T").unwrap().len(), 25);
        e.checkpoint().unwrap();
        assert_eq!(std::fs::metadata(wal_path(&path)).unwrap().len(), 0);
    }

    #[test]
    fn appends_after_a_torn_tail_survive_the_next_recovery() {
        let path = fresh("torn_append.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        e.checkpoint().unwrap();
        for i in 0..5 {
            e.append("T", &row(i, 8)).unwrap();
        }
        drop(e);
        // Tear the last of the five records, as a crash mid-append would.
        let wal = wal_path(&path);
        let len = std::fs::metadata(&wal).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let mut e = PagedEngine::open(&path).unwrap();
        assert_eq!(e.rows("T").unwrap().len(), 4);
        e.append("T", &row(5, 8)).unwrap();
        drop(e); // crash again: the new row lives only in the WAL
        let mut e = PagedEngine::open(&path).unwrap();
        let rows = e.rows("T").unwrap();
        assert_eq!(
            rows.len(),
            5,
            "the row appended after the torn tail was lost"
        );
        assert_eq!(rows[4], row(5, 8));
    }

    #[test]
    fn oversized_rows_take_the_overflow_path() {
        let path = fresh("overflow.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        e.append("T", &row(0, 3 * PAGE_SIZE)).unwrap();
        e.append("T", &row(1, 10)).unwrap();
        e.checkpoint().unwrap();
        drop(e);
        let mut e = PagedEngine::open(&path).unwrap();
        let rows = e.rows("T").unwrap();
        assert_eq!(rows[0], row(0, 3 * PAGE_SIZE));
        assert_eq!(rows[1], row(1, 10));
    }

    #[test]
    fn delete_by_pk_tombstones_and_recovers() {
        let path = fresh("delete.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        for i in 0..6 {
            e.append("T", &row(i, 4)).unwrap();
        }
        e.checkpoint().unwrap();
        assert!(e
            .delete_by_pk("T", &Value::Text("row-00003".into()))
            .unwrap());
        assert!(!e
            .delete_by_pk("T", &Value::Text("row-00003".into()))
            .unwrap());
        e.append("T", &row(3, 4)).unwrap(); // re-insert after delete
        drop(e); // tail: delete + insert, not checkpointed
        let mut e = PagedEngine::open(&path).unwrap();
        let rows = e.rows("T").unwrap();
        assert_eq!(rows.len(), 6);
        let stats = e.stats().unwrap();
        assert_eq!(stats.tables[0].dead_slots, 1);
        assert_eq!(stats.tables[0].live_rows, 6);
    }

    #[test]
    fn torn_checkpoint_replays_page_images() {
        let path = fresh("torn_ckpt.gdb");
        let mut e = PagedEngine::create(&path).unwrap();
        e.create_table(&demo_schema()).unwrap();
        for i in 0..20 {
            e.append("T", &row(i, 8)).unwrap();
        }
        // Simulate a checkpoint that wrote its WAL images + commit but
        // died before writing the data file: log images, then "crash".
        e.write_catalog_and_header().unwrap();
        let dirty = e.pool.dirty_ids();
        for id in &dirty {
            let data = e.pool.resident(*id).unwrap().to_vec();
            e.wal
                .append(&WalRecord::PageImage { page: *id, data })
                .unwrap();
        }
        e.wal.append(&WalRecord::Commit).unwrap();
        drop(e); // data file still holds only the (empty) create state
        let mut e = PagedEngine::open(&path).unwrap();
        assert_eq!(e.rows("T").unwrap().len(), 20);
        e.checkpoint().unwrap();
        drop(e);
        let mut e = PagedEngine::open(&path).unwrap();
        assert_eq!(e.rows("T").unwrap().len(), 20);
    }

    #[test]
    fn write_database_is_deterministic_and_compacts() {
        let mut db = Database::new();
        db.create_table(demo_schema()).unwrap();
        let mut ins = Insert::into("T", row(0, 8));
        for i in 1..50 {
            ins.rows.push(row(i, 8));
        }
        db.insert(ins).unwrap();
        let a = fresh("bulk_a.gdb");
        let b = fresh("bulk_b.gdb");
        write_database(&a, &db).unwrap();
        write_database(&b, &db).unwrap();
        assert_eq!(std::fs::read(&a).unwrap(), std::fs::read(&b).unwrap());
        assert!(!wal_path(&a).exists());
        let mut e = PagedEngine::open(&a).unwrap();
        assert_eq!(e.rows("T").unwrap().len(), 50);
    }
}
