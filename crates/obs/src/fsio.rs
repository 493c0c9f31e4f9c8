//! Crash-safe file output.
//!
//! Every results or telemetry file the workspace writes goes through
//! [`atomic_write`]: the bytes land in a temporary file in the target
//! directory, are fsynced, and are renamed over the destination, after
//! which the directory itself is fsynced. A reader (or a run that
//! crashed mid-write and was resumed) therefore sees either the
//! complete previous file or the complete new one — never a torn
//! prefix. [`atomic_write_if_changed`] skips the rewrite when the
//! destination already holds the bytes, and only syncs it in place.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Numbers this process's staging files, so two threads writing the
/// same destination never share one.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Writes `bytes` to `path` atomically (temp file + fsync + rename +
/// directory fsync), creating parent directories as needed.
///
/// The temporary file's name embeds the process id and a per-call
/// sequence number, so concurrent writers — in different processes or
/// in threads of one — cannot collide on the staging file; concurrent
/// writers to the *same* destination still last-write-win, as with a
/// plain write.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = parent_dir(path);
    fs::create_dir_all(dir)?;
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_string_lossy()
        .into_owned();
    let tmp = dir.join(format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));

    let result = (|| {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        // Persist the rename itself.
        sync_dir(dir);
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// [`atomic_write`], except that a destination already holding exactly
/// `bytes` is left in place: it is fsynced, and so is its directory,
/// which gives the same durability guarantee without a second write.
/// Any other destination — missing, not a regular file, unreadable,
/// of another length or with other contents — goes through
/// [`atomic_write`] unchanged, errors included.
pub fn atomic_write_if_changed(path: &Path, bytes: &[u8]) -> io::Result<()> {
    if let Some(file) = holding(path, bytes) {
        file.sync_all()?;
        sync_dir(parent_dir(path));
        return Ok(());
    }
    atomic_write(path, bytes)
}

/// The directory `path` lives in (`.` for a bare file name).
fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    }
}

/// Fsyncs a directory so renames and creations in it persist. Not
/// every filesystem supports opening a directory for sync (and none of
/// the portable fallbacks do better), so this is best-effort.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

/// The open destination when it is a regular file whose contents are
/// exactly `bytes`; `None` on any mismatch or error.
fn holding(path: &Path, bytes: &[u8]) -> Option<File> {
    let mut file = File::open(path).ok()?;
    let meta = file.metadata().ok()?;
    if !meta.is_file() || meta.len() != bytes.len() as u64 {
        return None;
    }
    let mut existing = Vec::with_capacity(bytes.len());
    file.read_to_end(&mut existing).ok()?;
    (existing == bytes).then_some(file)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("osoffload-fsio-{tag}-{}", std::process::id()))
    }

    #[test]
    fn writes_and_overwrites() {
        let dir = tmp_dir("basic");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("out.json");
        atomic_write(&path, b"one").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"one");
        atomic_write(&path, b"two-longer").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"two-longer");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leaves_no_temp_files_behind() {
        let dir = tmp_dir("clean");
        let _ = fs::remove_dir_all(&dir);
        atomic_write(&dir.join("a.txt"), b"x").unwrap();
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["a.txt".to_string()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_of_one_path_all_succeed() {
        let dir = tmp_dir("race");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("same.json");
        let payloads: Vec<Vec<u8>> = (0..8u8).map(|t| vec![b'a' + t; 64 * 1024]).collect();
        let start = std::sync::Barrier::new(payloads.len());
        std::thread::scope(|s| {
            for payload in &payloads {
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    start.wait();
                    for _ in 0..20 {
                        atomic_write(path, payload).unwrap();
                    }
                });
            }
        });
        let last = fs::read(&path).unwrap();
        assert!(
            payloads.contains(&last),
            "final file is one writer's payload"
        );
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["same.json".to_string()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[cfg(unix)]
    fn inode(path: &Path) -> u64 {
        std::os::unix::fs::MetadataExt::ino(&fs::metadata(path).unwrap())
    }

    #[cfg(unix)]
    #[test]
    fn identical_bytes_are_synced_in_place() {
        let dir = tmp_dir("same");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("archive.json");
        atomic_write(&path, b"{\"rows\":[1,2,3]}").unwrap();
        let before = inode(&path);
        atomic_write_if_changed(&path, b"{\"rows\":[1,2,3]}").unwrap();
        assert_eq!(inode(&path), before, "the file was not replaced");
        assert_eq!(fs::read(&path).unwrap(), b"{\"rows\":[1,2,3]}");
        assert_eq!(
            names(&dir),
            vec!["archive.json".to_string()],
            "no temp file"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_differing_or_truncated_files_are_replaced() {
        let dir = tmp_dir("differ");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("archive.json");
        let want = b"{\"rows\":[1,2,3]}";
        atomic_write_if_changed(&path, want).unwrap();
        assert_eq!(fs::read(&path).unwrap(), want, "missing file written");
        for stale in [
            &b"{\"rows\":[1,2,4]}"[..],
            &want[..7],
            b"",
            b"{\"rows\":[1,2,3]}\n",
        ] {
            fs::write(&path, stale).unwrap();
            #[cfg(unix)]
            let before = inode(&path);
            atomic_write_if_changed(&path, want).unwrap();
            assert_eq!(fs::read(&path).unwrap(), want, "stale {stale:?} replaced");
            #[cfg(unix)]
            assert_ne!(inode(&path), before, "replaced by rename, not in place");
            assert_eq!(
                names(path.parent().unwrap()),
                vec!["archive.json".to_string()]
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unreadable_destination_fails_as_atomic_write_does() {
        let dir = tmp_dir("unreadable");
        let _ = fs::remove_dir_all(&dir);
        let target = dir.join("occupied");
        fs::create_dir_all(&target).unwrap();
        let plain = atomic_write(&target, b"x").unwrap_err();
        let checked = atomic_write_if_changed(&target, b"x").unwrap_err();
        assert_eq!(checked.kind(), plain.kind());
        assert_eq!(checked.to_string(), plain.to_string());
        assert_eq!(names(&dir), vec!["occupied".to_string()]);
        assert!(target.is_dir(), "the destination is untouched");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failing_write_cleans_up_its_temp_file() {
        let dir = tmp_dir("dirpath");
        let _ = fs::remove_dir_all(&dir);
        let target = dir.join("occupied");
        fs::create_dir_all(&target).unwrap();
        // Renaming a file over an existing directory fails; the staged
        // temp file must not be left behind.
        assert!(atomic_write(&target, b"x").is_err());
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["occupied".to_string()]);
        let _ = fs::remove_dir_all(&dir);
    }
}
