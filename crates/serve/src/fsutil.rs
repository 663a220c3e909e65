//! Corpus loading shared by the CLI and the daemon: `adsafe assess`,
//! `adsafe rules check` and `POST /assess` walk, read and digest a
//! corpus directory the same way, so a served assessment sees exactly
//! the file set (and module grouping) a CLI run would.

use adsafe::{Assessment, AssessmentOptions};
use adsafe_ledger::Ledger;
use std::fmt;
use std::path::{Path, PathBuf};

/// File extensions the assessment ingests.
pub const SOURCE_EXTENSIONS: [&str; 8] = ["c", "cc", "cpp", "cxx", "cu", "h", "hpp", "cuh"];

/// One source file of a corpus, read whole.
#[derive(Debug)]
pub struct Source {
    /// The top-level directory the file sits under (see [`load_corpus`]).
    pub module: String,
    /// The file's path as displayed in reports.
    pub path: String,
    /// Raw bytes: non-UTF-8 content is the pipeline's to record as an
    /// ingest fault, not a reason to skip the file.
    pub bytes: Vec<u8>,
}

/// A corpus directory, walked and read.
#[derive(Debug)]
pub struct Corpus {
    /// Sources the walk found, readable or not.
    pub found: usize,
    /// Every readable source, in walk order.
    pub sources: Vec<Source>,
    /// Sources that could not be read, with the reason.
    pub unreadable: Vec<(PathBuf, std::io::Error)>,
}

impl Corpus {
    /// The corpus digest that salts a run ID: the content hashes, in
    /// file order, of the same lossy text the pipeline analyses.
    pub fn digest(&self) -> String {
        let hashes: Vec<u64> = self
            .sources
            .iter()
            .map(|s| adsafe::content_hash(&s.path, &String::from_utf8_lossy(&s.bytes)))
            .collect();
        adsafe_ledger::corpus_digest(&hashes)
    }

    /// The assessment of this corpus under `options`. Rule-pack faults
    /// and the ledger's torn lines come first — every run's fault list
    /// stands alone — then every source.
    pub fn assessment(&self, options: AssessmentOptions, ledger: Option<&Ledger>) -> Assessment {
        let pack_faults = options.rules.as_deref().map_or(&[][..], |p| &p.faults[..]);
        let pack_faults: Vec<_> = pack_faults.iter().map(adsafe::query::pack_fault).collect();
        let mut assessment = Assessment::new().with_options(options);
        for f in pack_faults {
            assessment.add_fault(f);
        }
        if let Some(l) = ledger {
            for torn in l.torn_lines() {
                assessment.add_fault(crate::ledger_torn_fault(&l.file(), torn));
            }
        }
        for s in &self.sources {
            assessment.add_file_bytes(&s.module, &s.path, &s.bytes);
        }
        assessment
    }
}

/// Why a directory could not be loaded as a corpus at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorpusError {
    /// The path is not a directory.
    NotADirectory(String),
    /// The walk found no C/C++/CUDA source.
    NoSources(String),
    /// The walk found sources but none could be read: each path with
    /// the read error's text.
    NothingReadable(String, Vec<(PathBuf, String)>),
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::NotADirectory(dir) => write!(f, "`{dir}` is not a directory"),
            CorpusError::NoSources(dir) => write!(f, "no C/C++/CUDA sources under `{dir}`"),
            CorpusError::NothingReadable(dir, unreadable) => {
                write!(f, "none of the {} sources could be read under `{dir}`", unreadable.len())
            }
        }
    }
}

/// Walks `root` and reads every source under it. A source that cannot
/// be read is listed in [`Corpus::unreadable`], not an error, as long as
/// at least one other source could be read.
pub fn load_corpus(root: &Path) -> Result<Corpus, CorpusError> {
    let dir = || root.display().to_string();
    if !root.is_dir() {
        return Err(CorpusError::NotADirectory(dir()));
    }
    let mut files = Vec::new();
    collect_sources(root, &mut files);
    if files.is_empty() {
        return Err(CorpusError::NoSources(dir()));
    }
    let mut corpus = Corpus { found: files.len(), sources: Vec::new(), unreadable: Vec::new() };
    for f in files {
        match std::fs::read(&f) {
            Ok(bytes) => corpus.sources.push(Source {
                module: module_of(root, &f),
                path: f.display().to_string(),
                bytes,
            }),
            Err(e) => corpus.unreadable.push((f, e)),
        }
    }
    if corpus.sources.is_empty() {
        let unreadable = corpus.unreadable.into_iter().map(|(f, e)| (f, e.to_string())).collect();
        return Err(CorpusError::NothingReadable(dir(), unreadable));
    }
    Ok(corpus)
}

/// Collects every C/C++/CUDA source under `root`, depth-first in
/// sorted directory order — the stable enumeration both determinism
/// gates (CLI vs HTTP byte-identity) rely on.
fn collect_sources(root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root) else { return };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path
            .extension()
            .and_then(|e| e.to_str())
            .is_some_and(|e| SOURCE_EXTENSIONS.contains(&e))
        {
            out.push(path);
        }
    }
}

/// Maps a file to its module: the top-level directory under `root`,
/// mirroring how the paper treats Apollo's module tree.
fn module_of(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .ok()
        .and_then(|rel| rel.components().next())
        .and_then(|c| c.as_os_str().to_str())
        .filter(|c| !c.contains('.'))
        .unwrap_or("root")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_is_the_top_level_directory() {
        let root = Path::new("/corpus");
        assert_eq!(module_of(root, Path::new("/corpus/perception/a.cc")), "perception");
        assert_eq!(module_of(root, Path::new("/corpus/top.cc")), "root");
        assert_eq!(module_of(Path::new("/x"), Path::new("/y/a.cc")), "root");
    }

    #[cfg(unix)]
    #[test]
    fn load_reads_what_it_can_and_lists_the_rest() {
        let root = std::env::temp_dir().join(format!("adsafe-fsutil-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("m")).unwrap();
        std::fs::write(root.join("m/a.cc"), "int f();\n").unwrap();
        std::os::unix::fs::symlink(root.join("gone.cc"), root.join("m/b.cc")).unwrap();
        let corpus = load_corpus(&root).expect("a directory with sources");
        assert_eq!(corpus.found, 2);
        assert_eq!(corpus.sources.len(), 1);
        assert_eq!(corpus.sources[0].module, "m");
        assert_eq!(corpus.unreadable.len(), 1);
        assert!(corpus.unreadable[0].0.ends_with("m/b.cc"));
        std::fs::remove_file(root.join("m/a.cc")).unwrap();
        let dir = root.display().to_string();
        match load_corpus(&root).unwrap_err() {
            CorpusError::NothingReadable(d, unreadable) => {
                assert_eq!(d, dir);
                assert_eq!(unreadable.len(), 1);
                assert!(unreadable[0].0.ends_with("m/b.cc"));
            }
            other => panic!("expected NothingReadable, got {other:?}"),
        }
        std::fs::remove_file(root.join("m/b.cc")).unwrap();
        assert_eq!(load_corpus(&root).unwrap_err(), CorpusError::NoSources(dir.clone()));
        let file = root.join("m/c.cc");
        std::fs::write(&file, "").unwrap();
        let not_dir = CorpusError::NotADirectory(file.display().to_string());
        assert_eq!(load_corpus(&file).unwrap_err(), not_dir);
        let _ = std::fs::remove_dir_all(&root);
    }
}
