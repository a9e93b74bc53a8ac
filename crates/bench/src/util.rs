//! Output formatting and experiment plumbing shared by the harness.

use std::io::Write as _;
use std::path::PathBuf;

use serde::Serialize;

/// Command-line options shared by every experiment.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Unique keys to load before measuring.
    pub keys: u64,
    /// Measured operations.
    pub ops: u64,
    /// Max thread count.
    pub threads: usize,
    /// Directory for machine-readable JSON artifacts (None = stdout only).
    pub out_dir: Option<PathBuf>,
    /// Quick mode: shrink everything ~10x (CI smoke runs).
    pub quick: bool,
    /// Write the unified observability snapshot (pretty JSON) here; a
    /// sibling `.prom` file gets the Prometheus text rendering.
    pub obs_json: Option<PathBuf>,
    /// Opt-in periodic progress reporter on stderr.
    pub progress: bool,
    /// TCP port for `repro serve` (loopback only).
    pub port: u16,
    /// Request-trace sampling for `repro serve`: trace one request in N
    /// (0 = off; the wire trace flag still forces individual requests).
    pub trace: u64,
    /// Port for the plain-HTTP metrics sidecar (`/metrics`,
    /// `/snapshot.json`). `repro serve` only starts the sidecar when this
    /// is set; `repro top` polls it (default 7879 when unset).
    pub http_port: Option<u16>,
    /// Connection-scaling target for `repro serve-bench`: run the
    /// reactor at this many concurrent connections against itself at 16
    /// (0 = skip the scaling phase).
    pub conns: usize,
    /// Add the open-loop latency-vs-offered-load sweep to
    /// `repro serve-bench` (coordinated-omission-free; see
    /// `kvclient::openloop`).
    pub open_loop: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            keys: 4_000_000,
            ops: 1_000_000,
            threads: 16,
            out_dir: Some(PathBuf::from("results")),
            quick: false,
            obs_json: None,
            progress: false,
            port: 7878,
            trace: 0,
            http_port: None,
            conns: 0,
            open_loop: false,
        }
    }
}

impl Opts {
    /// Parses `--keys N --ops N --threads N --out DIR --quick` style flags.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut opts = Self::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--keys" => {
                    opts.keys = it
                        .next()
                        .ok_or("--keys needs a value")?
                        .parse()
                        .map_err(|e| format!("--keys: {e}"))?;
                }
                "--ops" => {
                    opts.ops = it
                        .next()
                        .ok_or("--ops needs a value")?
                        .parse()
                        .map_err(|e| format!("--ops: {e}"))?;
                }
                "--threads" => {
                    opts.threads = it
                        .next()
                        .ok_or("--threads needs a value")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?;
                }
                "--out" => {
                    opts.out_dir = Some(PathBuf::from(it.next().ok_or("--out needs a value")?));
                }
                "--no-out" => opts.out_dir = None,
                "--quick" => opts.quick = true,
                "--obs-json" => {
                    opts.obs_json =
                        Some(PathBuf::from(it.next().ok_or("--obs-json needs a value")?));
                }
                "--progress" => opts.progress = true,
                "--port" => {
                    opts.port = it
                        .next()
                        .ok_or("--port needs a value")?
                        .parse()
                        .map_err(|e| format!("--port: {e}"))?;
                }
                "--trace" => {
                    opts.trace = it
                        .next()
                        .ok_or("--trace needs a value (sample one request in N; 0 = off)")?
                        .parse()
                        .map_err(|e| format!("--trace: {e}"))?;
                }
                "--http-port" => {
                    opts.http_port = Some(
                        it.next()
                            .ok_or("--http-port needs a value")?
                            .parse()
                            .map_err(|e| format!("--http-port: {e}"))?,
                    );
                }
                "--conns" => {
                    opts.conns = it
                        .next()
                        .ok_or("--conns needs a value")?
                        .parse()
                        .map_err(|e| format!("--conns: {e}"))?;
                }
                "--open-loop" => opts.open_loop = true,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if opts.quick {
            opts.keys /= 10;
            opts.ops /= 10;
        }
        Ok(opts)
    }

    /// Scale derived from these options.
    pub fn scale(&self) -> crate::stores::Scale {
        crate::stores::Scale {
            keys: self.keys,
            value_size: 8,
            extra_ops: self.ops * 2,
        }
    }
}

/// Writes a JSON artifact for one experiment.
pub fn write_json<T: Serialize>(opts: &Opts, name: &str, value: &T) {
    let Some(dir) = &opts.out_dir else { return };
    std::fs::create_dir_all(dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create artifact");
    serde_json::to_writer_pretty(&mut f, value).expect("serialize artifact");
    writeln!(f).ok();
    println!("  [artifact] {}", path.display());
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats a simulated-nanosecond duration human-readably.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Issues a minimal HTTP/1.1 GET against the metrics sidecar and returns
/// `(status_code, body)`. Deliberately tiny: loopback only, `Connection:
/// close`, whole response read to EOF.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<(u16, String)> {
    use std::io::Read as _;
    let mut s = std::net::TcpStream::connect(addr)?;
    s.set_read_timeout(Some(std::time::Duration::from_secs(5)))?;
    s.set_write_timeout(Some(std::time::Duration::from_secs(5)))?;
    let req = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    s.write_all(req.as_bytes())?;
    let mut raw = String::new();
    s.read_to_string(&mut raw)?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "no header break"))?;
    let status_line = head.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    Ok((status, body.to_string()))
}

/// Validates Prometheus text exposition format and returns the number of
/// sample lines. Checks: comment lines are `# TYPE` / `# HELP`, metric
/// names use the legal charset, labels are `key="value"` pairs, and every
/// sample value parses as f64.
pub fn validate_prometheus(text: &str) -> Result<usize, String> {
    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut samples = 0usize;
    for (i, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            let rest = rest.trim_start();
            if !(rest.starts_with("TYPE ") || rest.starts_with("HELP ")) {
                return Err(format!("line {}: bad comment {line:?}", i + 1));
            }
            continue;
        }
        // name[{labels}] value
        let (name_labels, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value in {line:?}", i + 1))?;
        let name = match name_labels.split_once('{') {
            Some((name, labels)) => {
                let labels = labels
                    .strip_suffix('}')
                    .ok_or_else(|| format!("line {}: unterminated labels", i + 1))?;
                for pair in labels.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {}: bad label {pair:?}", i + 1))?;
                    if !name_ok(k) || !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                        return Err(format!("line {}: bad label {pair:?}", i + 1));
                    }
                }
                name
            }
            None => name_labels,
        };
        if !name_ok(name) {
            return Err(format!("line {}: bad metric name {name:?}", i + 1));
        }
        value
            .parse::<f64>()
            .map_err(|e| format!("line {}: bad value {value:?}: {e}", i + 1))?;
        samples += 1;
    }
    Ok(samples)
}

/// Formats bytes human-readably.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2}GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.2}MB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.2}KB", b as f64 / (1u64 << 10) as f64)
    } else {
        format!("{b}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags() {
        let args: Vec<String> = ["--keys", "100", "--threads", "4", "--no-out"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Opts::parse(&args).unwrap();
        assert_eq!(o.keys, 100);
        assert_eq!(o.threads, 4);
        assert!(o.out_dir.is_none());
        assert!(o.obs_json.is_none());
        assert!(!o.progress);
    }

    #[test]
    fn parse_obs_flags() {
        let args: Vec<String> = ["--obs-json", "/tmp/obs.json", "--progress"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Opts::parse(&args).unwrap();
        assert_eq!(
            o.obs_json.as_deref(),
            Some(std::path::Path::new("/tmp/obs.json"))
        );
        assert!(o.progress);
        assert!(Opts::parse(&["--obs-json".to_string()]).is_err());
    }

    #[test]
    fn parse_port() {
        assert_eq!(Opts::parse(&[]).unwrap().port, 7878);
        let args: Vec<String> = ["--port", "9000"].iter().map(|s| s.to_string()).collect();
        assert_eq!(Opts::parse(&args).unwrap().port, 9000);
        let args: Vec<String> = ["--port", "potato"].iter().map(|s| s.to_string()).collect();
        assert!(Opts::parse(&args).is_err());
    }

    #[test]
    fn parse_trace_and_http_port() {
        let o = Opts::parse(&[]).unwrap();
        assert_eq!(o.trace, 0);
        assert!(o.http_port.is_none());
        let args: Vec<String> = ["--trace", "64", "--http-port", "7879"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Opts::parse(&args).unwrap();
        assert_eq!(o.trace, 64);
        assert_eq!(o.http_port, Some(7879));
        assert!(Opts::parse(&["--trace".to_string()]).is_err());
        let bad: Vec<String> = ["--http-port", "potato"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(Opts::parse(&bad).is_err());
    }

    #[test]
    fn parse_conns_and_open_loop() {
        let o = Opts::parse(&[]).unwrap();
        assert_eq!(o.conns, 0);
        assert!(!o.open_loop);
        let args: Vec<String> = ["--conns", "1000", "--open-loop"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = Opts::parse(&args).unwrap();
        assert_eq!(o.conns, 1000);
        assert!(o.open_loop);
        assert!(Opts::parse(&["--conns".to_string()]).is_err());
        let bad: Vec<String> = ["--conns", "many"].iter().map(|s| s.to_string()).collect();
        assert!(Opts::parse(&bad).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let args = vec!["--bogus".to_string()];
        assert!(Opts::parse(&args).is_err());
    }

    #[test]
    fn quick_scales_down() {
        let args = vec!["--quick".to_string()];
        let o = Opts::parse(&args).unwrap();
        assert_eq!(o.keys, Opts::default().keys / 10);
    }

    #[test]
    fn prometheus_validation() {
        let good = "# TYPE chameleon_op_count gauge\n\
                    chameleon_op_count{op=\"put\"} 42\n\
                    chameleon_win_ops_per_sec 1234.5\n\
                    chameleon_trace_stage_ns{stage=\"batch_seal\",quantile=\"0.99\"} 9\n";
        assert_eq!(validate_prometheus(good).unwrap(), 3);
        assert!(validate_prometheus("bad name! 1\n").is_err());
        assert!(validate_prometheus("# BOGUS comment\n").is_err());
        assert!(validate_prometheus("metric{op=put} 1\n").is_err());
        assert!(validate_prometheus("metric{op=\"x\"} notanumber\n").is_err());
        assert!(validate_prometheus("metric_no_value\n").is_err());
        assert_eq!(validate_prometheus("\n\n").unwrap(), 0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_ns(5), "5ns");
        assert_eq!(fmt_ns(1500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
        assert_eq!(fmt_bytes(100), "100B");
        assert_eq!(fmt_bytes(2048), "2.00KB");
        assert_eq!(fmt_bytes(3 << 20), "3.00MB");
    }
}
