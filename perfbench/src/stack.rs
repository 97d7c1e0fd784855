//! Starting and stopping the served stack, one `drmap-serve`, and the
//! `drmap-router` the traced run's hop probe puts in front of it.

use std::fs::File;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use drmap_service::client::Client;

/// How long a process may take to accept its first connection.
const READY_TIMEOUT: Duration = Duration::from_secs(30);
/// How long a graceful shutdown may take before the process is killed.
const STOP_TIMEOUT: Duration = Duration::from_secs(10);

/// A fresh directory for one run's stores and logs, removed with
/// everything in it when dropped.
#[derive(Debug)]
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Create `parent/run-<pid>-<nanos>`; fails if it already exists.
    pub fn create(parent: &Path) -> std::io::Result<RunDir> {
        std::fs::create_dir_all(parent)?;
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = parent.join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir(&path)?;
        Ok(RunDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// A loopback port that was free a moment ago.
fn free_port() -> Result<u16, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    Ok(listener.local_addr().map_err(|e| e.to_string())?.port())
}

/// One child process of the stack. Killed and reaped on drop if it was
/// not stopped before.
#[derive(Debug)]
pub struct Proc {
    child: Option<Child>,
    /// The address it listens on.
    pub addr: String,
    graceful: bool,
}

impl Proc {
    /// Start `bin` with `args` plus `--addr` on a free loopback port,
    /// its output going to `log`. `graceful` processes are stopped with
    /// the `shutdown` verb (so a store is synced), others are killed.
    pub fn spawn(bin: &Path, args: &[String], log: &Path, graceful: bool) -> Result<Proc, String> {
        let addr = format!("127.0.0.1:{}", free_port()?);
        let out = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let err = out.try_clone().map_err(|e| e.to_string())?;
        let child = Command::new(bin)
            .args(args)
            .arg("--addr")
            .arg(&addr)
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        Ok(Proc {
            child: Some(child),
            addr,
            graceful,
        })
    }

    /// Wait until the process accepts a connection.
    pub fn wait_ready(&mut self) -> Result<(), String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if TcpStream::connect(&self.addr).is_ok() {
                return Ok(());
            }
            if let Some(child) = self.child.as_mut() {
                if let Ok(Some(status)) = child.try_wait() {
                    return Err(format!("process on {} exited: {status}", self.addr));
                }
            }
            if Instant::now() > deadline {
                return Err(format!("nothing listening on {} after 30 s", self.addr));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Peak resident memory so far (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let pid = self.child.as_ref().map_or(0, Child::id);
        let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
            .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| format!("no VmHWM for pid {pid}"))?;
        Ok(kib / 1024.0)
    }

    /// Stop the process and reap it.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        if self.graceful {
            if let Ok(mut client) = Client::connect(&self.addr) {
                let _ = client.shutdown();
            }
            let deadline = Instant::now() + STOP_TIMEOUT;
            while Instant::now() < deadline {
                if let Ok(Some(_)) = child.try_wait() {
                    return;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Start a `drmap-router` over `backend` and wait until it accepts
/// connections (it admits its backend before serving the first one).
pub fn start_router(
    bin_dir: &Path,
    log_dir: &Path,
    tag: &str,
    backend: &str,
) -> Result<Proc, String> {
    let args = ["--backend".to_owned(), backend.to_owned()];
    let log = log_dir.join(format!("{tag}-router.log"));
    let mut router = Proc::spawn(&bin_dir.join("drmap-router"), &args, &log, false)?;
    router.wait_ready()?;
    Ok(router)
}

/// The running stack: one `drmap-serve`.
#[derive(Debug)]
pub struct Stack {
    serve: Proc,
    /// Where clients connect.
    pub addr: String,
}

/// What to start.
#[derive(Debug, Clone)]
pub struct StackSpec {
    /// Directory holding `drmap-serve` and `drmap-router`.
    pub bin_dir: PathBuf,
    /// Directory for logs.
    pub log_dir: PathBuf,
    /// Extra `drmap-serve` flags (store, cache bound).
    pub serve_args: Vec<String>,
}

impl Stack {
    /// Start the server and wait until it accepts connections.
    pub fn start(spec: &StackSpec, tag: &str) -> Result<Stack, String> {
        let mut args = vec!["--workers".to_owned(), crate::WORKERS.to_string()];
        args.extend(spec.serve_args.iter().cloned());
        let log = spec.log_dir.join(format!("{tag}-serve.log"));
        let mut serve = Proc::spawn(&spec.bin_dir.join("drmap-serve"), &args, &log, true)?;
        serve.wait_ready()?;
        let addr = serve.addr.clone();
        Ok(Stack { serve, addr })
    }

    /// Peak resident memory of the server, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.serve.peak_rss_mb()
    }

    /// Stop the server.
    pub fn stop(self) {
        self.serve.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_run_gets_a_fresh_directory_that_is_removed_afterwards() {
        let target = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
            || Path::new(env!("CARGO_MANIFEST_DIR")).join("target"),
            PathBuf::from,
        );
        let parent = target.join(format!("perfbench-test-{}", std::process::id()));
        let first = RunDir::create(&parent).unwrap();
        std::fs::write(first.path().join("store.wal"), b"x").unwrap();
        let second = RunDir::create(&parent).unwrap();
        assert_ne!(first.path(), second.path());
        assert_eq!(std::fs::read_dir(second.path()).unwrap().count(), 0);
        let (a, b) = (first.path().to_owned(), second.path().to_owned());
        drop(first);
        drop(second);
        assert!(!a.exists() && !b.exists());
        std::fs::remove_dir_all(&parent).unwrap();
    }
}
