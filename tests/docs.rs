//! Guards the design record against growth and rot: DESIGN.md and
//! EXPERIMENTS.md stay within their size budgets and every CHANGES.md
//! entry within its own, every `DESIGN.md §N` citation names a section
//! that exists, every repo path and `hbar` command (with its flags) the
//! design record and README.md name exists, and every PR that CHANGES.md
//! records has a row in EXPERIMENTS.md's trajectory table.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

const DESIGN_MAX_BYTES: u64 = 40 * 1024;
const EXPERIMENTS_MAX_BYTES: u64 = 50 * 1024;
const CHANGES_ENTRY_MAX_BYTES: usize = 1536;
/// The documents that describe the tree as it is (CHANGES.md and
/// ROADMAP.md also describe what it was).
const CURRENT_DOCS: [&str; 3] = ["DESIGN.md", "README.md", "EXPERIMENTS.md"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(name: &str) -> String {
    fs::read_to_string(root().join(name)).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// `N` of a line `PR N…`, the start of a CHANGES.md entry.
fn pr_number(line: &str) -> Option<u32> {
    let digits: String = line
        .strip_prefix("PR ")?
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[test]
fn design_record_fits_its_budget() {
    let mut over = Vec::new();
    for (name, max) in [
        ("DESIGN.md", DESIGN_MAX_BYTES),
        ("EXPERIMENTS.md", EXPERIMENTS_MAX_BYTES),
    ] {
        let len = fs::metadata(root().join(name)).unwrap().len();
        if len > max {
            over.push(format!("{name} is {len} B, over {max} B"));
        }
    }
    for (n, line) in read("CHANGES.md").lines().enumerate() {
        if pr_number(line).is_some() && line.len() > CHANGES_ENTRY_MAX_BYTES {
            over.push(format!(
                "CHANGES.md:{} is {} B, over {CHANGES_ENTRY_MAX_BYTES} B",
                n + 1,
                line.len()
            ));
        }
    }
    assert!(over.is_empty(), "{}", over.join("\n"));
}

/// Every `N` of a `DESIGN.md §N` (or `` `DESIGN.md` §N``) in `text`.
fn design_citations(text: &str) -> Vec<u32> {
    let mut found = Vec::new();
    for (at, _) in text.match_indices("DESIGN.md") {
        let rest = text[at + "DESIGN.md".len()..].trim_start_matches('`');
        if let Some(rest) = rest.trim_start().strip_prefix('§') {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            found.extend(digits.parse::<u32>().ok());
        }
    }
    found
}

/// First-party files below `dir` that `keep` accepts, build output and
/// git's store excluded.
fn files(dir: &Path, keep: &dyn Fn(&Path) -> bool, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            if path
                .file_name()
                .is_some_and(|n| n != "target" && n != ".git")
            {
                files(&path, keep, out);
            }
        } else if keep(&path) {
            out.push(path);
        }
    }
}

#[test]
fn design_section_references_name_a_heading() {
    let sections: BTreeSet<u32> = read("DESIGN.md")
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|h| h.split('.').next()?.parse().ok())
        .collect();
    let mut sources: Vec<PathBuf> = ["README.md", "EXPERIMENTS.md"]
        .iter()
        .map(|f| root().join(f))
        .collect();
    for dir in ["crates", "src", "tests", "examples"] {
        let rust = |p: &Path| p.extension().is_some_and(|e| e == "rs");
        files(&root().join(dir), &rust, &mut sources);
    }
    let mut dangling = Vec::new();
    for path in &sources {
        let text = fs::read_to_string(path).unwrap();
        for n in design_citations(&text) {
            if !sections.contains(&n) {
                let shown = path.strip_prefix(root()).unwrap().display();
                dangling.push(format!("{shown} cites DESIGN.md §{n}"));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "sections are {sections:?}:\n{}",
        dangling.join("\n")
    );
}

/// Inline code spans outside fenced blocks (a span may wrap a line).
fn code_spans(text: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(|span| span.replace('\n', " "))
        .collect()
}

/// `a{b,c}d` → `abd`, `acd` (one brace group is all the docs use).
fn expand_braces(path: &str) -> Vec<String> {
    match (path.find('{'), path.find('}')) {
        (Some(open), Some(close)) if open < close => path[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &path[..open], &path[close + 1..]))
            .collect(),
        _ => vec![path.to_string()],
    }
}

/// Whether `path` names something in the tree; a `*` in the last
/// component must match at least one entry.
fn exists(path: &str) -> bool {
    let full = root().join(path);
    let Some((prefix, suffix)) = path.rsplit('/').next().and_then(|f| f.split_once('*')) else {
        return full.exists();
    };
    let dir = full.parent().unwrap();
    fs::read_dir(dir).is_ok_and(|entries| {
        entries.filter_map(Result::ok).any(|e| {
            let name = e.file_name().to_string_lossy().into_owned();
            name.starts_with(prefix) && name.ends_with(suffix)
        })
    })
}

#[test]
fn named_repo_paths_exist() {
    const TOP: [&str; 8] = [
        "crates/",
        "src/",
        "tests/",
        "examples/",
        "results/",
        "benchmark/",
        "shims/",
        ".github/",
    ];
    let mut missing = Vec::new();
    for doc in CURRENT_DOCS {
        for span in code_spans(&read(doc)) {
            // `path::item` and `path:line` name the file before them.
            let path = span.split("::").next().unwrap();
            let path = path.split(':').next().unwrap();
            if path.contains(' ') || !TOP.iter().any(|t| path.starts_with(t)) {
                continue;
            }
            for p in expand_braces(path) {
                if !exists(&p) {
                    missing.push(format!("{doc} names `{p}`"));
                }
            }
        }
    }
    assert!(missing.is_empty(), "{}", missing.join("\n"));
}

/// Every `` `hbar NAME``, `` …/hbar NAME`` or `$hbar NAME` in the docs
/// and in any `SKILL.md` build recipe is a command that `hbar help`
/// lists, and every `--flag` after it on the same line, up to the next
/// such name, is a flag that `hbar help` lists for that command.
#[test]
fn named_hbar_commands_exist() {
    let help = Command::new(env!("CARGO_BIN_EXE_hbar"))
        .arg("help")
        .output()
        .expect("hbar runs");
    let help = String::from_utf8(help.stdout).unwrap();
    let flags_of: BTreeMap<&str, BTreeSet<&str>> = help
        .lines()
        .filter_map(|l| {
            let mut words = l.trim_start().strip_prefix("hbar ")?.split(' ');
            let name = words.next()?;
            let flags = words.filter_map(|w| w.trim_start_matches('[').strip_prefix("--"));
            Some((name, flags.map(|f| f.trim_end_matches(']')).collect()))
        })
        .chain([("help", BTreeSet::new())])
        .collect();
    let mut missing = Vec::new();
    let mut docs: Vec<PathBuf> = CURRENT_DOCS.iter().map(|d| root().join(d)).collect();
    files(root(), &|p| p.ends_with("SKILL.md"), &mut docs);
    for path in &docs {
        let doc = path.strip_prefix(root()).unwrap().display();
        for line in fs::read_to_string(path).unwrap().lines() {
            let mut named: Vec<(usize, usize)> = ["`hbar ", "/hbar ", "$hbar "]
                .iter()
                .flat_map(|lead| line.match_indices(lead).map(|(at, _)| (at, lead.len())))
                .collect();
            named.sort_unstable();
            for (k, &(at, lead)) in named.iter().enumerate() {
                let rest = &line[at + lead..named.get(k + 1).map_or(line.len(), |n| n.0)];
                let name = word(rest);
                let Some(flags) = flags_of.get(name) else {
                    missing.push(format!("{doc} names `hbar {name}`"));
                    continue;
                };
                for (at, _) in rest.match_indices("--") {
                    let flag = word(&rest[at + 2..]);
                    if !flag.is_empty() && !flags.contains(flag) {
                        missing.push(format!("{doc} names `hbar {name} --{flag}`"));
                    }
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "{}\nhbar help:\n{help}",
        missing.join("\n")
    );
}

/// The leading command or flag name of `text`.
fn word(text: &str) -> &str {
    let end = text
        .find(|c: char| !(c.is_ascii_lowercase() || c == '-'))
        .unwrap_or(text.len());
    &text[..end]
}

#[test]
fn every_recorded_pr_has_a_trajectory_row() {
    let recorded: BTreeSet<u32> = read("CHANGES.md").lines().filter_map(pr_number).collect();
    let experiments = read("EXPERIMENTS.md");
    let rows: BTreeSet<u32> = experiments
        .split("\n## ")
        .find(|s| s.starts_with("Trajectory"))
        .map(|section| {
            section
                .lines()
                .filter_map(|l| l.strip_prefix("| "))
                .filter_map(|l| l.split(' ').next()?.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    let absent: Vec<u32> = recorded.difference(&rows).copied().collect();
    assert!(
        absent.is_empty(),
        "CHANGES.md records PRs without a trajectory row: {absent:?}"
    );
}
