//! Digest-keyed result cache with the runner's checksummed journal
//! format as its write-ahead log.
//!
//! The cache file reuses the envelope line format of
//! [`osoffload_runner::journal`]: line one is a header
//! (`{"journal":"osoffload-serve-cache","version":1}`), and every
//! subsequent line records one completed point as
//! `{"digest":"<16-hex>","stamp":N,"config":<wire config>,"stable":<stable row>}`
//! — the `stable` key deliberately last, like the runner's journal, so
//! the original archive text can be sliced back out byte-for-byte.
//! Every insert is an fsynced append, so a killed daemon restarts warm
//! with everything it ever acknowledged.
//!
//! Both files share one line reader,
//! [`osoffload_runner::journal::scan_envelope_lines`]; the cache runs
//! it in [`ScanMode::Tolerant`] where the journal runs it in strict
//! mode. Two deliberate differences from the runner's journal loader
//! follow from that:
//!
//! - **Corrupt lines are skipped, not fatal.** `journal::load` stops at
//!   the first bad line because later records may depend on a prefix; a
//!   cache is content-addressed, so a record that fails its checksum or
//!   its digest recomputation is dropped with a warning and the rest of
//!   the file stays usable. A torn, unterminated tail (the classic
//!   `kill -9` artefact) is discarded silently, exactly as the runner's
//!   `--resume` does.
//! - **Records store the full wire configuration.** The 64-bit digest
//!   keys the index, but the archive-side `config_json` it hashes omits
//!   topology fields, so colliding configurations are possible. Lookup
//!   therefore requires digest *and* wire-config equality: a collision
//!   recomputes rather than ever serving the wrong row.
//!
//! Each record carries a monotone **stamp** — virtual seconds since the
//! cache was first created, never wall-clock time, so replaying a WAL
//! is deterministic. A freshly opened cache resumes its clock from the
//! largest stamp on disk and advances it with a monotonic timer; when a
//! TTL is configured ([`ResultCache::open_limited`]), entries whose age
//! exceeds it are evicted durably at open/compaction time. Records
//! written before stamps existed load as stamp `0` (maximally old).
//!
//! Duplicate digests are last-wins (a re-inserted row supersedes the
//! old one and counts as freshest for eviction). When the loader had to
//! drop anything, or eviction trims the cache, the file is compacted
//! through [`osoffload_obs::atomic_write`] — temp file, fsync, rename —
//! so a crash mid-compaction leaves either the old or the new cache,
//! never a mangled hybrid.

use osoffload_obs::atomic_write;
use osoffload_runner::journal::{
    envelope, rekey_stable, restore_from_stable, scan_envelope_lines, Journal, ScanMode,
};
use osoffload_runner::jsonv;
use osoffload_runner::PointResult;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Header body of a serve cache file (line one, enveloped).
pub const HEADER_BODY: &str = "{\"journal\":\"osoffload-serve-cache\",\"version\":1}";

/// One cached point: its digest key, the full wire configuration the
/// digest was computed from, and the restored result row (whose
/// `restored` field always holds the verbatim archive text, so
/// `stable_json` is a clone, never a render).
#[derive(Debug, Clone)]
pub struct CacheEntry {
    /// 16-hex-digit FNV-1a digest of the point's archive `config_json`.
    pub digest: String,
    /// Monotone insertion stamp (virtual seconds, not wall clock).
    pub stamp: u64,
    /// The point's full wire configuration (collision guard).
    pub config: String,
    /// The cached row, restored as if resumed from a journal.
    pub row: PointResult,
}

impl CacheEntry {
    fn body(&self) -> String {
        format!(
            "{{\"digest\":\"{}\",\"stamp\":{},\"config\":{},\"stable\":{}}}",
            self.digest,
            self.stamp,
            self.config,
            self.row.stable_json()
        )
    }
}

/// A persistent digest-keyed result cache.
///
/// Entries are held oldest-first; the in-memory index maps digests to
/// positions. All mutation goes through the WAL before it is visible.
#[derive(Debug)]
pub struct ResultCache {
    path: PathBuf,
    capacity: usize,
    ttl_secs: u64,
    stamp_base: u64,
    opened: Instant,
    entries: Vec<CacheEntry>,
    index: HashMap<String, usize>,
    writer: Option<Journal>,
    warnings: Vec<String>,
}

fn parse_record(body: &str) -> Result<CacheEntry, String> {
    let rest = body
        .strip_prefix("{\"digest\":\"")
        .ok_or("record does not start with a digest")?;
    let digest = rest.get(..16).ok_or("record digest truncated")?;
    if !digest.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("record digest {digest:?} is not hex"));
    }
    // The stamp is optional: records written before cache TTLs existed
    // omit it and load as maximally old.
    let mut stamp = 0u64;
    let rest = if let Some(after) = rest[16..].strip_prefix("\",\"stamp\":") {
        let digits = after.bytes().take_while(u8::is_ascii_digit).count();
        stamp = after[..digits]
            .parse()
            .map_err(|_| "record stamp is not a number".to_string())?;
        after[digits..]
            .strip_prefix(",\"config\":")
            .ok_or("record missing config")?
    } else {
        rest[16..]
            .strip_prefix("\",\"config\":")
            .ok_or("record missing config")?
    };
    let stable_at = rest
        .find(",\"stable\":")
        .ok_or("record missing stable row")?;
    let config = &rest[..stable_at];
    jsonv::parse(config).map_err(|e| format!("record config unparsable: {e}"))?;
    let stable = rest[stable_at + ",\"stable\":".len()..]
        .strip_suffix('}')
        .ok_or("record not brace-terminated")?;
    let row = restore_from_stable(stable).ok_or("record stable row does not restore")?;
    if !row.is_ok() {
        return Err("record row is not a completed point".into());
    }
    if row.config_digest() != digest {
        return Err(format!(
            "record digest {digest} does not match its row ({})",
            row.config_digest()
        ));
    }
    Ok(CacheEntry {
        digest: digest.to_string(),
        stamp,
        config: config.to_string(),
        row,
    })
}

fn load_entries(path: &Path) -> Result<(Vec<CacheEntry>, Vec<String>), String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read cache {}: {e}", path.display()))?;
    let (lines, issues) = scan_envelope_lines(&text, ScanMode::Tolerant);
    let Some(&(header_lineno, header_body)) = lines.first() else {
        return Err(format!("cache {} has no header line", path.display()));
    };
    if header_lineno != 1 || header_body != HEADER_BODY {
        return Err(format!(
            "cache {} has an unrecognised header; refusing to treat it as a serve cache",
            path.display()
        ));
    }
    let mut entries: Vec<CacheEntry> = Vec::new();
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut warnings: Vec<String> = issues
        .iter()
        .map(|i| {
            format!(
                "cache {} line {}: {}; record skipped",
                path.display(),
                i.lineno,
                i.why
            )
        })
        .collect();
    for &(lineno, body) in &lines[1..] {
        match parse_record(body) {
            Ok(entry) => {
                if let Some(&old) = index.get(&entry.digest) {
                    // Last-wins: drop the superseded record and shift
                    // the index left over the removed slot.
                    entries.remove(old);
                    for pos in index.values_mut() {
                        if *pos > old {
                            *pos -= 1;
                        }
                    }
                }
                index.insert(entry.digest.clone(), entries.len());
                entries.push(entry);
            }
            Err(why) => warnings.push(format!(
                "cache {} line {lineno}: {why}; record skipped",
                path.display()
            )),
        }
    }
    Ok((entries, warnings))
}

/// Reads a cache file without opening it for writing or healing it:
/// the surviving entries (duplicates already collapsed last-wins) plus
/// warnings for skipped records. This is the read-only loader
/// `osoffload inspect` uses, so inspection never mutates an artefact.
pub fn read_entries(path: &Path) -> Result<(Vec<CacheEntry>, Vec<String>), String> {
    load_entries(path)
}

impl ResultCache {
    /// Opens (or creates) the cache at `path`. `capacity` bounds the
    /// entry count (`0` = unbounded). Unreadable records are skipped
    /// with warnings (see [`ResultCache::warnings`]) and the file is
    /// compacted to drop them; a file that is not a serve cache at all
    /// is an error rather than silently overwritten.
    pub fn open(path: &Path, capacity: usize) -> Result<ResultCache, String> {
        ResultCache::open_limited(path, capacity, 0)
    }

    /// [`ResultCache::open`] with an additional age limit: entries whose
    /// stamp age exceeds `ttl_secs` (`0` = no limit) are evicted — and
    /// the file compacted — before the cache is usable.
    pub fn open_limited(
        path: &Path,
        capacity: usize,
        ttl_secs: u64,
    ) -> Result<ResultCache, String> {
        let (entries, warnings) = if path.exists() {
            load_entries(path)?
        } else {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)
                        .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
                }
            }
            atomic_write(path, envelope(HEADER_BODY).as_bytes())
                .map_err(|e| format!("cannot create cache {}: {e}", path.display()))?;
            (Vec::new(), Vec::new())
        };
        let index = entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.digest.clone(), i))
            .collect();
        let stamp_base = entries.iter().map(|e| e.stamp).max().unwrap_or(0);
        let mut cache = ResultCache {
            path: path.to_path_buf(),
            capacity,
            ttl_secs,
            stamp_base,
            opened: Instant::now(),
            entries,
            index,
            writer: None,
            warnings,
        };
        // Heal: rewrite the file whenever replay dropped anything (bad
        // records, torn tail, superseded duplicates) so damage cannot
        // accumulate across restarts.
        if cache.canonical_bytes() != std::fs::read(path).unwrap_or_default() {
            cache.compact()?;
        }
        cache.evict_expired()?;
        cache.enforce_capacity()?;
        cache.writer = Some(
            Journal::open_append(path)
                .map_err(|e| format!("cannot append to cache {}: {e}", path.display()))?,
        );
        Ok(cache)
    }

    /// Warnings emitted while replaying the WAL (skipped records).
    pub fn warnings(&self) -> &[String] {
        &self.warnings
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All entries, oldest first.
    pub fn entries(&self) -> &[CacheEntry] {
        &self.entries
    }

    /// The cache's current monotone stamp: virtual seconds resumed from
    /// the largest stamp on disk and advanced by a monotonic timer —
    /// never wall-clock time, so WAL replay stays deterministic.
    pub fn now_stamp(&self) -> u64 {
        self.stamp_base + self.opened.elapsed().as_secs()
    }

    /// The entry for `digest` — only if its stored wire configuration is
    /// byte-equal to `config` (the digest-collision guard).
    pub fn lookup(&self, digest: &str, config: &str) -> Option<&CacheEntry> {
        let entry = &self.entries[*self.index.get(digest)?];
        (entry.config == config).then_some(entry)
    }

    /// Serves a cached row re-keyed to a new plan position: the stored
    /// verbatim stable text gets `index`/`id`/`seed` spliced in and
    /// everything else is cloned, so the served row's archive text is
    /// byte-identical to a fresh computation at that position. Nothing
    /// is re-parsed: the row equals what a journal-style
    /// [`restore_from_stable`] of the re-keyed text would give.
    pub fn serve(
        &self,
        digest: &str,
        config: &str,
        index: usize,
        id: &str,
        seed: u64,
    ) -> Option<PointResult> {
        let row = &self.lookup(digest, config)?.row;
        let stable = row.restored.as_deref()?;
        Some(PointResult {
            index,
            id: id.to_string(),
            seed,
            config_json: row.config_json.clone(),
            outcome: row.outcome.clone(),
            wall_ms: row.wall_ms,
            start_ms: row.start_ms,
            worker: row.worker,
            attempts: row.attempts,
            attempt_ms: row.attempt_ms.clone(),
            injected_faults: row.injected_faults,
            restored: Some(rekey_stable(stable, index, id, seed)?),
        })
    }

    /// Inserts a completed row under its configuration digest, appending
    /// it to the WAL (fsynced) before it becomes visible. Returns `true`
    /// if the row was cached, `false` if it was refused (failed rows are
    /// never cached). A duplicate digest supersedes the old entry.
    pub fn insert(&mut self, config: &str, row: &PointResult) -> Result<bool, String> {
        self.insert_stamped(config, row, self.now_stamp())
    }

    /// [`ResultCache::insert`] with an explicit stamp instead of the
    /// cache's current one — how TTL tests plant entries of known age.
    pub fn insert_stamped(
        &mut self,
        config: &str,
        row: &PointResult,
        stamp: u64,
    ) -> Result<bool, String> {
        if !row.is_ok() {
            return Ok(false);
        }
        // Store the row exactly as a WAL replay would load it: its stable
        // text kept verbatim, the rest restored from that text. Serving
        // it then never renders or parses anything.
        let entry = CacheEntry {
            digest: row.config_digest(),
            stamp,
            config: config.to_string(),
            row: restore_from_stable(&row.stable_json())
                .ok_or("completed row's stable text does not restore")?,
        };
        self.writer
            .as_mut()
            .expect("cache writer is open outside compaction")
            .append(&entry.body())
            .map_err(|e| format!("cache append failed: {e}"))?;
        if let Some(&old) = self.index.get(&entry.digest) {
            self.entries.remove(old);
            for pos in self.index.values_mut() {
                if *pos > old {
                    *pos -= 1;
                }
            }
        }
        self.index.insert(entry.digest.clone(), self.entries.len());
        self.entries.push(entry);
        Ok(true)
    }

    /// Evicts entries older than the configured TTL (no-op when the TTL
    /// is `0`), compacting the file if anything was dropped. Returns the
    /// eviction count.
    pub fn evict_expired(&mut self) -> Result<usize, String> {
        if self.ttl_secs == 0 {
            return Ok(0);
        }
        let now = self.now_stamp();
        let ttl = self.ttl_secs;
        let before = self.entries.len();
        self.entries.retain(|e| now.saturating_sub(e.stamp) <= ttl);
        let evicted = before - self.entries.len();
        if evicted > 0 {
            self.rebuild_index();
            self.compact()?;
        }
        Ok(evicted)
    }

    /// Evicts oldest entries beyond the configured capacity, compacting
    /// the file if anything was dropped. Returns the eviction count.
    pub fn enforce_capacity(&mut self) -> Result<usize, String> {
        if self.capacity == 0 || self.entries.len() <= self.capacity {
            return Ok(0);
        }
        let evict = self.entries.len() - self.capacity;
        self.entries.drain(..evict);
        self.rebuild_index();
        self.compact()?;
        Ok(evict)
    }

    /// Applies both eviction policies — age first, then capacity — and
    /// returns the total eviction count. The daemon calls this after
    /// every submission.
    pub fn enforce_limits(&mut self) -> Result<usize, String> {
        Ok(self.evict_expired()? + self.enforce_capacity()?)
    }

    fn rebuild_index(&mut self) {
        self.index = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| (e.digest.clone(), i))
            .collect();
    }

    fn canonical_bytes(&self) -> Vec<u8> {
        let mut bytes = envelope(HEADER_BODY).into_bytes();
        for entry in &self.entries {
            bytes.extend_from_slice(envelope(&entry.body()).as_bytes());
        }
        bytes
    }

    /// Rewrites the cache file to exactly the in-memory entries, via an
    /// atomic temp-file + fsync + rename, and reopens the append handle
    /// on the new file.
    pub fn compact(&mut self) -> Result<(), String> {
        // Drop the append handle first: after the rename it would point
        // at the unlinked old inode and appends would vanish.
        self.writer = None;
        atomic_write(&self.path, &self.canonical_bytes())
            .map_err(|e| format!("cache compaction failed: {e}"))?;
        self.writer = Some(
            Journal::open_append(&self.path)
                .map_err(|e| format!("cannot reopen cache {}: {e}", self.path.display()))?,
        );
        Ok(())
    }
}
