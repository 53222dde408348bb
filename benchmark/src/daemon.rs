//! Building, starting and talking to the `rmsa serve` daemon.

use crate::json::{self, Value};
use crate::outcome::Stop;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Where the repository and the benchmark's working files live.
#[derive(Clone, Debug)]
pub struct Layout {
    /// Root of the checkout (the directory holding the workspace manifest).
    pub root: PathBuf,
    /// Directory for port files, snapshots and span dumps.
    pub out: PathBuf,
}

impl Layout {
    pub fn new(root: PathBuf) -> std::io::Result<Layout> {
        let out = root.join(".bench_out");
        std::fs::create_dir_all(&out)?;
        Ok(Layout { root, out })
    }

    /// Build the `rmsa` binary from the checkout's sources (a no-op when
    /// it is up to date) and return its path. Uses the same target
    /// directory as the benchmark's own build.
    pub fn daemon_binary(&self) -> Result<PathBuf, Stop> {
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = Command::new(cargo)
            .current_dir(&self.root)
            .args([
                "build",
                "--release",
                "--quiet",
                "-p",
                "rmsa-cli",
                "--bin",
                "rmsa",
            ])
            .stdout(Stdio::null())
            .status()
            .map_err(|e| Stop::Setup(format!("cargo build: {e}")))?;
        if !status.success() {
            return Err(Stop::Setup(format!(
                "cargo build of the rmsa binary failed: {status}"
            )));
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) => self.root.join(dir),
            None => self.root.join("target"),
        };
        let bin = target.join("release").join("rmsa");
        if bin.is_file() {
            Ok(bin)
        } else {
            Err(Stop::Setup(format!(
                "{} missing after build",
                bin.display()
            )))
        }
    }
}

/// A `Command` for the `rmsa` binary with the caller's `RMSA_*`
/// environment removed, so only explicit flags shape the run.
pub fn rmsa_command(bin: &Path) -> Command {
    let mut cmd = Command::new(bin);
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("RMSA_") {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// A running daemon; dropped daemons are killed and reaped.
pub struct Daemon {
    child: Option<Child>,
    pub addr: String,
    pub pid: u32,
    /// The exact argument list the daemon was started with.
    pub args: Vec<String>,
}

impl Daemon {
    /// Start `rmsa serve` on an ephemeral port with `flags` and wait until
    /// it listens. A daemon that exits or never listens is a fault.
    pub fn spawn(bin: &Path, flags: &[String], port_file: &Path) -> Result<Daemon, Stop> {
        let _ = std::fs::remove_file(port_file);
        let mut args: Vec<String> = ["serve", "--addr", "127.0.0.1:0", "--port-file"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        args.push(port_file.display().to_string());
        args.extend(flags.iter().cloned());
        let child = rmsa_command(bin)
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| Stop::Setup(format!("spawn {}: {e}", bin.display())))?;
        let pid = child.id();
        let mut daemon = Daemon {
            child: Some(child),
            addr: String::new(),
            pid,
            args,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Ok(text) = std::fs::read_to_string(port_file) {
                if text.ends_with('\n') {
                    daemon.addr = text.trim().to_string();
                    return Ok(daemon);
                }
            }
            if let Some(child) = daemon.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("daemon exited before listening: {status}").into());
                }
            }
            if Instant::now() > deadline {
                return Err("daemon did not listen within 60 s".into());
            }
            // Fine-grained polling: set-up of a snapshot-started daemon
            // takes a few milliseconds.
            std::thread::sleep(Duration::from_micros(250));
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// Ask the daemon to stop and wait for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self
            .connect()
            .and_then(|mut c| c.call_json("{\"schema_version\":2,\"op\":\"shutdown\",\"id\":1}"));
        let mut child = self
            .child
            .take()
            .expect("daemon child present until shutdown");
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return asked.map(|_| ()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("daemon did not exit within 30 s of shutdown".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One NDJSON connection: one request line out, one response line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(120)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            line: String::new(),
        })
    }

    /// Send one request line and return the raw response line.
    pub fn call(&mut self, request: &str) -> Result<&str, String> {
        self.send(request)?;
        self.recv()
    }

    pub fn send(&mut self, request: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(request.len() + 1);
        buf.extend_from_slice(request.as_bytes());
        buf.push(b'\n');
        self.writer
            .write_all(&buf)
            .map_err(|e| format!("send: {e}"))
    }

    pub fn recv(&mut self) -> Result<&str, String> {
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => Ok(self.line.trim_end()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    /// Send one request and parse the response.
    pub fn call_json(&mut self, request: &str) -> Result<Value, String> {
        let line = self.call(request)?;
        json::parse(line)
    }
}

/// Counter `name` from a `metrics` RPC answer (0 when absent).
pub fn counter(metrics: &Value, name: &str) -> u64 {
    metrics.get("counters").get(name).as_u64().unwrap_or(0)
}

pub fn metrics_request(id: u64) -> String {
    format!("{{\"schema_version\":2,\"op\":\"metrics\",\"id\":{id}}}")
}

pub fn ping_request(id: u64) -> String {
    format!("{{\"schema_version\":2,\"op\":\"ping\",\"id\":{id}}}")
}

pub fn warm_request(id: u64, dataset: &str) -> String {
    format!(
        "{{\"schema_version\":2,\"op\":\"warm\",\"id\":{id},\"dataset\":\"{dataset}\",\
         \"strategy\":\"standard\"}}"
    )
}
