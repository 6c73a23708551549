//! The size-capped, rotating `<dir>/events.log` writer and the
//! rotation-aware incremental tail `queue watch` reads it back with.
//!
//! The feed was previously unbounded append-only — fine for one
//! campaign, a disk-filler for a long-lived service. [`EventLog`] rotates
//! the live file to a single `events.log.1` generation when an append
//! would cross the size cap; [`EventTail`] detects the rotation (the
//! live file's inode changed), finishes reading the rotated generation
//! from its old offset, and continues at the top of the new file — so a
//! watcher misses no lines across a rotation boundary. If more than one
//! rotation happens between two polls, the intervening generation is
//! gone and its unread lines with it; the poll cadence of `queue watch`
//! (milliseconds) against the cap (megabytes) makes that a non-event in
//! practice.

use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::os::unix::fs::MetadataExt;
use std::path::PathBuf;

use parking_lot::Mutex;

/// Append-only event feed writer with size-capped rotation; see the
/// [module docs](self).
pub struct EventLog {
    path: PathBuf,
    rotated: PathBuf,
    /// Rotation threshold in bytes; 0 disables rotation.
    max_bytes: u64,
    file: Mutex<fs::File>,
}

impl EventLog {
    /// Open (appending) the feed at `path`, rotating to `rotated` when an
    /// append would push the file past `max_bytes` (0 = never rotate).
    pub fn open(
        path: impl Into<PathBuf>,
        rotated: impl Into<PathBuf>,
        max_bytes: u64,
    ) -> io::Result<EventLog> {
        let path = path.into();
        let file = fs::File::options().create(true).append(true).open(&path)?;
        Ok(EventLog {
            path,
            rotated: rotated.into(),
            max_bytes,
            file: Mutex::new(file),
        })
    }

    /// Append one feed line (a trailing newline is added), rotating first
    /// when the line would cross the cap. Oversized single lines still
    /// land — rotation bounds the *file*, it never drops the line.
    pub fn append_line(&self, line: &str) -> io::Result<()> {
        let mut file = self.file.lock();
        if self.max_bytes > 0 {
            let len = file.metadata()?.len();
            if len > 0 && len + line.len() as u64 + 1 > self.max_bytes {
                // Rename is atomic on the same filesystem; a reader polling
                // mid-rotation sees either the old live file or the new
                // (initially empty) one, never a torn state.
                fs::rename(&self.path, &self.rotated)?;
                *file = fs::File::options()
                    .create(true)
                    .append(true)
                    .open(&self.path)?;
            }
        }
        writeln!(file, "{line}")
    }
}

/// Incremental reader of an [`EventLog`] feed that follows rotation; see
/// the [module docs](self).
#[derive(Debug)]
pub struct EventTail {
    path: PathBuf,
    rotated: PathBuf,
    offset: u64,
    /// Inode of the generation `offset` points into (`None` until the
    /// live file is first observed).
    ino: Option<u64>,
}

impl EventTail {
    /// A tail starting at the top of the live file.
    pub fn new(path: impl Into<PathBuf>, rotated: impl Into<PathBuf>) -> EventTail {
        EventTail {
            path: path.into(),
            rotated: rotated.into(),
            offset: 0,
            ino: None,
        }
    }

    /// Read every complete line appended since the last poll (empty when
    /// nothing new). A live file with a different inode than last time
    /// means a rotation happened: the generation this tail was reading is
    /// finished first — it is now the rotated file — then reading
    /// restarts at the top of the new live file.
    pub fn poll(&mut self) -> io::Result<Vec<String>> {
        let mut live = match fs::File::open(&self.path) {
            Ok(file) => Some(file),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        let live_ino = match &live {
            Some(file) => Some(file.metadata()?.ino()),
            None => None,
        };
        let rotated_away = match (self.ino, live_ino) {
            (Some(old), Some(new)) => old != new,
            (Some(_), None) => true,
            _ => false,
        };

        let mut lines = Vec::new();
        if rotated_away {
            if let Ok(mut rotated) = fs::File::open(&self.rotated) {
                if Some(rotated.metadata()?.ino()) == self.ino {
                    let (finished, _) = read_complete_lines(&mut rotated, self.offset)?;
                    lines.extend(finished);
                }
                // A different inode here means more than one rotation
                // since the last poll: our generation is gone.
            }
            self.offset = 0;
        }
        if let Some(file) = live.as_mut() {
            let (fresh, consumed) = read_complete_lines(file, self.offset)?;
            lines.extend(fresh);
            self.offset += consumed;
        }
        if live_ino.is_some() {
            self.ino = live_ino;
        }
        Ok(lines)
    }
}

/// Complete lines of `file` starting at byte `offset`, plus the number of
/// bytes they consumed (a trailing partial line is left for next time).
fn read_complete_lines(file: &mut fs::File, offset: u64) -> io::Result<(Vec<String>, u64)> {
    file.seek(SeekFrom::Start(offset))?;
    let mut text = String::new();
    file.read_to_string(&mut text)?;
    let complete = match text.rfind('\n') {
        Some(last) => &text[..=last],
        None => return Ok((Vec::new(), 0)),
    };
    let consumed = complete.len() as u64;
    let lines = complete.lines().map(str::to_string).collect();
    Ok((lines, consumed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_paths(tag: &str) -> (PathBuf, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("latest_eventlog_test_{tag}_{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        fs::create_dir_all(&dir).unwrap();
        (dir.join("events.log"), dir.join("events.log.1"))
    }

    #[test]
    fn appends_are_line_oriented() {
        let (path, rotated) = temp_paths("append");
        let log = EventLog::open(&path, &rotated, 0).unwrap();
        log.append_line("one").unwrap();
        log.append_line("two").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "one\ntwo\n");
        assert!(!rotated.exists(), "cap 0 never rotates");
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn rotation_caps_the_live_file_and_keeps_one_generation() {
        let (path, rotated) = temp_paths("rotate");
        let log = EventLog::open(&path, &rotated, 16).unwrap();
        log.append_line("aaaaaaaa").unwrap(); // 9 bytes
        log.append_line("bbbbbbbb").unwrap(); // would make 18 > 16: rotate
        assert_eq!(fs::read_to_string(&rotated).unwrap(), "aaaaaaaa\n");
        assert_eq!(fs::read_to_string(&path).unwrap(), "bbbbbbbb\n");
        log.append_line("cccccccc").unwrap(); // rotate again: one generation
        assert_eq!(fs::read_to_string(&rotated).unwrap(), "bbbbbbbb\n");
        assert_eq!(fs::read_to_string(&path).unwrap(), "cccccccc\n");
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn tail_follows_successive_rotations() {
        let (path, rotated) = temp_paths("tail");
        let log = EventLog::open(&path, &rotated, 16).unwrap();
        let mut tail = EventTail::new(&path, &rotated);
        assert!(tail.poll().unwrap().is_empty());

        log.append_line("aaaaaaaa").unwrap();
        assert_eq!(tail.poll().unwrap(), vec!["aaaaaaaa"]);
        log.append_line("bbbbbbbb").unwrap(); // rotates
        assert_eq!(tail.poll().unwrap(), vec!["bbbbbbbb"]);
        log.append_line("cccccccc").unwrap(); // rotates again
        assert_eq!(tail.poll().unwrap(), vec!["cccccccc"]);
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn tail_finishes_unread_lines_of_the_rotated_generation() {
        let (path, rotated) = temp_paths("tail_unread");
        let log = EventLog::open(&path, &rotated, 16).unwrap();
        let mut tail = EventTail::new(&path, &rotated);
        log.append_line("aa").unwrap();
        assert_eq!(tail.poll().unwrap(), vec!["aa"]);
        // Unread line, then a rotation before the next poll: the tail must
        // deliver the rotated remainder before the new live content.
        log.append_line("bbbbbbbbbb").unwrap();
        log.append_line("cccccccc").unwrap(); // rotates
        assert_eq!(tail.poll().unwrap(), vec!["bbbbbbbbbb", "cccccccc"]);
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }

    #[test]
    fn tail_ignores_partial_trailing_lines() {
        let (path, rotated) = temp_paths("partial");
        fs::write(&path, "complete\npart").unwrap();
        let mut tail = EventTail::new(&path, &rotated);
        assert_eq!(tail.poll().unwrap(), vec!["complete"]);
        fs::write(&path, "complete\npartial done\n").unwrap();
        assert_eq!(tail.poll().unwrap(), vec!["partial done"]);
        fs::remove_dir_all(path.parent().unwrap()).ok();
    }
}
