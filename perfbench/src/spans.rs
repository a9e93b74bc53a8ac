//! Spans of a traced run, kept in memory and written out at the end.
//!
//! The benchmark records one span around each call it makes into a layer
//! (the generator's requests, `kvclient` and `chameleondb` calls); the server's tracer adds
//! its own per-request spans with their stage stamps. All timestamps are
//! wall-clock nanoseconds in the [`chameleon_obs::trace::now_ns`] domain,
//! so client and server spans line up. A server span's parent is the
//! client span of the same operation and key whose interval contains it.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;

use chameleon_obs::SpanRecord;

/// Directory, relative to the working directory, that traced runs write
/// their span files into.
pub const OUT_DIR: &str = ".perfbench";

/// One call the benchmark made into a layer.
pub struct ClientSpan {
    /// `put`, `get` or `scan` for the generator's requests;
    /// `kvclient.put` / `.get` / `.scan` for `kvclient` calls;
    /// `chameleondb.get` / `.put` for direct engine calls.
    pub name: &'static str,
    pub key: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Default)]
pub struct SpanLog {
    pub client: Vec<ClientSpan>,
    pub server: Vec<SpanRecord>,
}

impl SpanLog {
    /// Writes every span as one JSON object per line to
    /// `.perfbench/<name>.jsonl`: client spans first (ids from 1), then
    /// each server span followed by one child span per stage.
    pub fn write(&self, name: &str) -> Result<(), String> {
        let mut by_op: HashMap<(&str, u64), Vec<usize>> = HashMap::new();
        for (i, c) in self.client.iter().enumerate() {
            by_op.entry((op(c.name), c.key)).or_default().push(i);
        }
        let mut text = String::new();
        for (i, c) in self.client.iter().enumerate() {
            let layer = c.name.split_once('.').map_or("gen", |(layer, _)| layer);
            let row = Row(
                i as u64 + 1,
                None,
                layer,
                c.name,
                c.key,
                c.start_ns,
                c.end_ns,
            );
            row.write(&mut text);
        }
        let mut next = self.client.len() as u64 + 1;
        for s in &self.server {
            let parent = by_op.get(&(s.op.as_str(), s.key)).and_then(|ids| {
                ids.iter()
                    .find(|&&i| {
                        let c = &self.client[i];
                        c.start_ns <= s.start_ns && s.start_ns <= c.end_ns
                    })
                    .map(|&i| i as u64 + 1)
            });
            let id = next;
            next += 1;
            let end = s.start_ns + s.total_ns;
            Row(id, parent, "kvserver", &s.op, s.key, s.start_ns, end).write(&mut text);
            let mut at = s.start_ns;
            for (stage, ns) in &s.stages {
                Row(next, Some(id), "stage", stage, s.key, at, at + ns).write(&mut text);
                next += 1;
                at += ns;
            }
        }
        std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
        let path = Path::new(OUT_DIR).join(format!("{name}.jsonl"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// The operation a client span names, as the server's spans name it.
fn op(name: &str) -> &str {
    name.rsplit('.').next().unwrap_or(name)
}

/// One output span: id, parent, layer, name, key, start and end ns.
struct Row<'a>(u64, Option<u64>, &'a str, &'a str, u64, u64, u64);

impl Row<'_> {
    fn write(&self, text: &mut String) {
        let Row(id, parent, layer, name, key, start, end) = *self;
        let parent = parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"id\": {id}, \"parent\": {parent}, \"layer\": \"{layer}\", \"name\": \"{name}\", \
             \"key\": {key}, \"start_ns\": {start}, \"end_ns\": {end}}}"
        );
    }
}
