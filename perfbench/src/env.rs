//! The environment block printed with every result, so runs from
//! different hosts, SIMD legs or pool sizes are never compared silently.

use std::path::{Path, PathBuf};

/// A one-line JSON object describing the host and build the run used.
#[must_use]
pub fn block() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let var = |name: &str| std::env::var(name).unwrap_or_else(|_| "unset".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"simd_backend\": \"{}\", \"MAS_FORCE_SCALAR\": \"{}\", \
         \"MAS_RAYON_THREADS\": \"{}\", \"pool_threads\": {}, \"git_revision\": \"{}\"}}",
        mas_tensor::simd::backend(),
        escape(&var("MAS_FORCE_SCALAR")),
        escape(&var("MAS_RAYON_THREADS")),
        rayon::current_num_threads(),
        escape(&git_revision().unwrap_or_else(|| "unknown".to_string())),
    )
}

/// The commit checked out in the current directory, read from `.git`
/// without running git, which would search parent directories and read its
/// own configuration; `None` outside a git checkout.
fn git_revision() -> Option<String> {
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    // `.git` is a directory, or in a worktree or submodule a file naming one.
    let git_dir = match read(Path::new(".git")) {
        Some(link) => PathBuf::from(link.trim().strip_prefix("gitdir: ")?),
        None => PathBuf::from(".git"),
    };
    // A worktree keeps its branch refs in the common directory.
    let refs_dir = read(&git_dir.join("commondir"))
        .map_or_else(|| git_dir.clone(), |common| git_dir.join(common.trim()));
    let head = read(&git_dir.join("HEAD"))?;
    let Some(reference) = head.trim().strip_prefix("ref: ") else {
        return Some(head.trim().to_string());
    };
    read(&refs_dir.join(reference))
        .map(|rev| rev.trim().to_string())
        .or_else(|| {
            read(&refs_dir.join("packed-refs"))?
                .lines()
                .find_map(|line| {
                    let (rev, name) = line.split_once(' ')?;
                    (name == reference).then(|| rev.to_string())
                })
        })
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .collect::<String>()
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
}
