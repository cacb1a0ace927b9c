//! The documents are checked against the code. DESIGN.md stays within its
//! size budget; every file path and every name that DESIGN.md or README.md
//! puts in backticks exists in the tree; and every `DESIGN.md §N.M` that a
//! source file, CI or a document cites names a heading, and the paragraph
//! it names after the number, if any, lies in that section.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// DESIGN.md's size budget in bytes.
const DESIGN_BUDGET: u64 = 40 * 1024;

/// The directories a cited name must be found in. The vendored stand-ins
/// under `crates/vendor` are not the project's code.
const TREE: &[&str] = &["crates", "src", "tests", "examples", "benchmark/src", ".github"];
const VENDOR: &str = "crates/vendor";

/// The documents whose `DESIGN.md §N.M` citations are checked along with
/// the source files and CI.
const CITING_DOCS: &[&str] = &["README.md", "EXPERIMENTS.md"];

fn read(rel: &str) -> String {
    fs::read_to_string(Path::new(ROOT).join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// Every file under `TREE`, as a path relative to the root with `/`
/// separators.
fn tree_files() -> Vec<String> {
    fn walk(dir: &Path, rel: &str, out: &mut Vec<String>) {
        let Ok(entries) = fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let rel = format!("{rel}/{name}");
            if rel == VENDOR || name == "target" {
                continue;
            }
            let path = entry.path();
            if path.is_dir() {
                walk(&path, &rel, out);
            } else {
                out.push(rel);
            }
        }
    }
    let mut out = Vec::new();
    for dir in TREE {
        walk(&Path::new(ROOT).join(dir), dir, &mut out);
    }
    out.sort();
    out
}

/// Every identifier in `text`.
fn identifiers(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// What a cited name is looked up in: the files of the tree and every
/// identifier their text holds.
struct Tree {
    files: Vec<String>,
    words: BTreeSet<String>,
    ignored: Vec<String>,
}

impl Tree {
    fn index() -> Self {
        let files = tree_files();
        let mut words = BTreeSet::new();
        for f in &files {
            if let Ok(text) = fs::read_to_string(Path::new(ROOT).join(f)) {
                words.extend(identifiers(&text).map(str::to_owned));
            }
        }
        // A file a run writes is named in `.gitignore` rather than tracked.
        let ignored = read(".gitignore")
            .lines()
            .map(|l| l.trim().trim_start_matches('/').to_owned())
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .collect();
        Tree {
            files,
            words,
            ignored,
        }
    }

    /// `p` is a path from the root, a path inside some directory of the
    /// tree (`benches/x.rs`), a file name in the tree, or a file a run
    /// writes.
    fn has_path(&self, p: &str) -> bool {
        let p = p.trim_end_matches('/');
        Path::new(ROOT).join(p).exists()
            || self.ignored.iter().any(|i| i == p)
            || self
                .files
                .iter()
                .any(|f| f.ends_with(&format!("/{p}")) || f.contains(&format!("/{p}/")))
    }

    /// Every `::` segment of `name` is an identifier of the tree, or a file
    /// in it (`span.rs::try_emit_span`).
    fn has_name(&self, name: &str) -> bool {
        name.split("::").all(|seg| {
            if is_file_name(seg) {
                self.has_path(seg)
            } else {
                self.words.contains(seg)
            }
        })
    }
}

fn is_identifier(s: &str) -> bool {
    s.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn is_file_name(s: &str) -> bool {
    const EXT: &[&str] = &[".rs", ".md", ".json", ".jsonl", ".txt", ".toml", ".yml", ".log"];
    EXT.iter().any(|e| s.ends_with(e)) && is_identifier(s.split('.').next().unwrap_or(""))
}

/// A cited item the tree must hold.
#[derive(Debug, PartialEq)]
enum Cited<'a> {
    Path(&'a str),
    Name(&'a str),
}

/// What a backticked span cites, if it is a file path or a name: a call's
/// argument list is dropped (`stats()`, `Lane::stop(now)`); expressions,
/// commands and field values cite nothing.
fn cited(span: &str) -> Option<Cited<'_>> {
    let span = match span.find('(') {
        Some(i) if span.ends_with(')') => &span[..i],
        _ => span,
    };
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let last = span.rsplit('/').next().unwrap_or(span);
    let first = span.split('/').next().unwrap_or(span);
    // A slash alone does not make a path (`shufflenet/hc-store-fwd` is a
    // scheme's name): a path ends in a file or a `/`, or starts at a
    // directory of the root.
    let path = is_file_name(last)
        || (span.contains('/') && (span.ends_with('/') || Path::new(ROOT).join(first).is_dir()));
    if path {
        let starts = span.starts_with(|c: char| c.is_ascii_alphabetic() || c == '.' || c == '_');
        return (starts && span.chars().all(path_char)).then_some(Cited::Path(span));
    }
    let segments_ok = span
        .split("::")
        .all(|seg| is_identifier(seg) || is_file_name(seg));
    segments_ok.then_some(Cited::Name(span))
}

/// The backticked spans of a Markdown document outside fenced code blocks,
/// each with its line number.
fn backticked(md: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut fenced = false;
    let mut open: Option<(usize, String)> = None;
    for (i, line) in md.lines().enumerate() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        if fenced {
            continue;
        }
        for c in line.chars() {
            match (&mut open, c) {
                (None, '`') => open = Some((i + 1, String::new())),
                (Some(_), '`') => out.extend(open.take()),
                (Some((_, s)), c) => s.push(c),
                (None, _) => {}
            }
        }
        if let Some((_, s)) = &mut open {
            s.push(' ');
        }
    }
    out.into_iter().filter(|(_, s)| !s.trim().is_empty()).collect()
}

/// The numbered sections of DESIGN.md: number and text, heading included.
fn design_sections(design: &str) -> Vec<(String, String)> {
    let lines: Vec<&str> = design.lines().collect();
    let level = |l: &str| l.chars().take_while(|&c| c == '#').count();
    let mut out = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        let lv = level(line);
        if lv < 2 {
            continue;
        }
        let number = line[lv..].split_whitespace().next().unwrap_or("");
        let number = number.trim_end_matches('.');
        if number.is_empty() || !number.chars().all(|c| c.is_ascii_digit() || c == '.') {
            continue;
        }
        let end = (i + 1..lines.len())
            .find(|&j| (1..=lv).contains(&level(lines[j])))
            .unwrap_or(lines.len());
        out.push((number.to_owned(), lines[i..end].join("\n")));
    }
    out
}

/// Each `DESIGN.md §N.M` citation in `text`, comment markers and line
/// breaks taken out, with the paragraph name that follows it, if any: a
/// run of words in asterisks or double quotes
/// (`DESIGN.md §3.1, *Receiver-paced spans*`).
fn citations(text: &str) -> Vec<(String, Option<String>)> {
    let flat: String = text
        .lines()
        .map(|l| {
            l.trim_start()
                .trim_start_matches("//!")
                .trim_start_matches("///")
                .trim_start_matches("//")
                .trim_start_matches('#')
                .trim()
        })
        .collect::<Vec<_>>()
        .join(" ");
    let mut out = Vec::new();
    let mut rest = flat.as_str();
    while let Some(i) = rest.find("DESIGN.md") {
        rest = &rest[i + "DESIGN.md".len()..];
        let Some(after) = rest.trim_start().strip_prefix('§') else {
            continue;
        };
        let digits = after
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(after.len());
        let number = after[..digits].trim_end_matches('.').to_owned();
        if number.is_empty() {
            continue;
        }
        let tail = after[digits..].trim_start_matches(',').trim_start();
        let name = ['*', '"'].iter().find_map(|&q| {
            let inner = tail.strip_prefix(q)?;
            let name = &inner[..inner.find(q)?];
            let words = |c: char| c.is_alphabetic() || " -'".contains(c);
            (!name.is_empty() && name.chars().all(words)).then(|| name.to_owned())
        });
        out.push((number, name));
    }
    out
}

#[test]
fn design_fits_its_budget() {
    let bytes = fs::metadata(Path::new(ROOT).join("DESIGN.md"))
        .expect("DESIGN.md")
        .len();
    assert!(
        bytes <= DESIGN_BUDGET,
        "DESIGN.md is {bytes} bytes, over its {DESIGN_BUDGET}-byte budget"
    );
}

#[test]
fn every_backticked_path_and_name_in_the_docs_exists() {
    let tree = Tree::index();
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        for (line, span) in backticked(&read(doc)) {
            let found = match cited(&span) {
                Some(Cited::Path(p)) => tree.has_path(p),
                Some(Cited::Name(n)) => tree.has_name(n),
                None => true,
            };
            if !found {
                missing.push(format!("{doc}:{line}: `{span}`"));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "names the tree does not hold:\n{}",
        missing.join("\n")
    );
}

#[test]
fn every_cited_design_section_and_paragraph_exists() {
    let sections = design_sections(&read("DESIGN.md"));
    let mut sources: Vec<String> = tree_files()
        .into_iter()
        .filter(|f| f.ends_with(".rs") || f.ends_with("ci.yml"))
        .collect();
    sources.extend(CITING_DOCS.iter().map(|d| d.to_string()));
    let mut wrong = Vec::new();
    let mut found = 0;
    for file in &sources {
        for (number, name) in citations(&read(file)) {
            found += 1;
            let Some((_, body)) = sections.iter().find(|(n, _)| *n == number) else {
                wrong.push(format!("{file}: §{number} is no heading of DESIGN.md"));
                continue;
            };
            if let Some(name) = name {
                let body = body.replace('\n', " ").to_lowercase();
                if !body.contains(&name.to_lowercase()) {
                    wrong.push(format!("{file}: §{number} has no \"{name}\""));
                }
            }
        }
    }
    assert!(found > 0, "no DESIGN.md citation found: the scan is broken");
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

#[test]
fn the_scanners_read_what_they_are_given() {
    assert_eq!(cited("crates/sim/src/span.rs"), Some(Cited::Path("crates/sim/src/span.rs")));
    assert_eq!(cited("Lane::stop(now)"), Some(Cited::Name("Lane::stop")));
    assert_eq!(cited("span.rs::try_emit_span"), Some(Cited::Name("span.rs::try_emit_span")));
    assert_eq!(cited("q + 2 < Ks"), None);
    assert_eq!(cited("route-consumed"), None);
    assert_eq!(cited("1/2/4"), None);
    assert_eq!(cited("shufflenet/hc-store-fwd"), None);
    assert_eq!(cited("examples/run_config"), Some(Cited::Path("examples/run_config")));
    let md = "a `x_y` b\n```\n`not_me`\n```\n`split\nspan` and `z::w()`";
    let spans: Vec<String> = backticked(md).into_iter().map(|(_, s)| s).collect();
    assert_eq!(spans, ["x_y", "split span", "z::w()"]);
    let rs = "/// see (DESIGN.md\n/// §3.1, *Receiver-paced\n/// spans*) and DESIGN.md §2.";
    assert_eq!(
        citations(rs),
        [
            ("3.1".to_owned(), Some("Receiver-paced spans".to_owned())),
            ("2".to_owned(), None)
        ]
    );
    let design = "## 2. Two\ntext\n### 2.1 Sub\nsub text\n## 3. Three\n";
    let numbers: Vec<String> = design_sections(design).into_iter().map(|s| s.0).collect();
    assert_eq!(numbers, ["2", "2.1", "3"]);
}
