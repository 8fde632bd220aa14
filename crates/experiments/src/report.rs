//! Experiment artifact writing: human-readable text and machine-readable
//! JSON, side by side.
//!
//! Every I/O error a [`Report`] returns names the path it failed on, so a
//! binary can report `cannot write <path>: <error>` and exit (see
//! [`cli::or_exit`](crate::cli::or_exit)) instead of panicking.

use serde::Serialize;
use std::fs;
use std::path::{Path, PathBuf};

/// A sink for experiment outputs.
#[derive(Debug, Clone)]
pub struct Report {
    dir: PathBuf,
    sections: Vec<(String, String)>,
}

impl Report {
    /// Creates a report rooted at `dir` (created if absent).
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(at(&dir))?;
        Ok(Report {
            dir,
            sections: Vec::new(),
        })
    }

    /// Records one experiment: its display text goes into the combined
    /// report, its JSON next to it as `<id>.json`.
    ///
    /// # Errors
    ///
    /// Propagates serialization and I/O failures.
    pub fn add<T: Serialize + std::fmt::Display>(
        &mut self,
        id: &str,
        value: &T,
    ) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(value)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        self.write(&format!("{id}.json"), json)?;
        self.sections.push((id.to_string(), value.to_string()));
        Ok(())
    }

    /// Writes a standalone artifact (an SVG chart, …) as `<name>` inside
    /// the report dir.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write(&self, name: &str, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
        let path = self.dir.join(name);
        fs::write(&path, contents).map_err(at(&path))
    }

    /// Writes the combined text report as `<name>` inside the report dir
    /// and returns its path.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_combined(&self, name: &str) -> std::io::Result<PathBuf> {
        let mut text = String::new();
        for (id, body) in &self.sections {
            text.push_str(&format!("## {id}\n\n```text\n{}\n```\n\n", body.trim_end()));
        }
        self.write(name, text)?;
        Ok(self.dir.join(name))
    }

    /// The accumulated sections (id, rendered text).
    pub fn sections(&self) -> &[(String, String)] {
        &self.sections
    }
}

/// Tags an I/O error with the path it concerns.
fn at(path: &Path) -> impl FnOnce(std::io::Error) -> std::io::Error + '_ {
    move |e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Serialize)]
    struct Demo {
        x: u32,
    }
    impl std::fmt::Display for Demo {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "x = {}", self.x)
        }
    }

    #[test]
    fn writes_json_and_combined_text() {
        let dir = std::env::temp_dir().join(format!("tocttou-report-{}", std::process::id()));
        let mut report = Report::new(&dir).unwrap();
        report.add("demo", &Demo { x: 7 }).unwrap();
        let combined = report.write_combined("REPORT.md").unwrap();
        let json = std::fs::read_to_string(dir.join("demo.json")).unwrap();
        assert!(json.contains("\"x\": 7"));
        let text = std::fs::read_to_string(combined).unwrap();
        assert!(text.contains("## demo"));
        assert!(text.contains("x = 7"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn errors_name_the_path() {
        let file = std::env::temp_dir().join(format!("tocttou-report-file-{}", std::process::id()));
        std::fs::write(&file, "not a directory").unwrap();
        let err = Report::new(file.join("sub")).unwrap_err();
        assert!(
            err.to_string()
                .starts_with(&file.join("sub").display().to_string()),
            "{err}"
        );
        std::fs::remove_file(&file).ok();
    }
}
