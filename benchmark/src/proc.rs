//! Running one `ncss-cli` command as a child process, with its wall time
//! and peak resident memory.
//!
//! std's `Child::wait` does not return resource usage, so the child is
//! reaped with `wait4(2)`, which fills a `struct rusage`. std already links
//! the C library, so declaring the one function keeps the package free of
//! external crates.
//!
//! Linux carries the spawning process's peak RSS into the child's
//! `ru_maxrss` across `exec`. A command spawned straight from the
//! benchmark, which holds inputs and replica state, would report the
//! benchmark's peak rather than its own. So [`Cli`] spawns commands from a
//! launcher: this same binary, started with `--launcher` before anything
//! large is allocated, which runs each command and sends the result back
//! over a pipe. What `wait4` adds to a command's own peak is then at most
//! the launcher's few MiB.

use crate::json::Json;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads child resource usage through 64-bit Linux wait4(2)");

/// `struct timeval` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 `long`s of which
/// the first is `ru_maxrss` in KiB.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// A finished child.
#[derive(Debug)]
pub struct Finished {
    /// Exit code, `None` when a signal ended the process.
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
    /// Spawn to reap.
    pub wall_s: f64,
    /// Peak resident set size of the child, in KiB.
    pub maxrss_kib: u64,
}

/// Run `program args…` to completion with stdin closed.
pub fn run(program: &Path, args: &[String]) -> std::io::Result<Finished> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let pid = i32::try_from(child.id()).expect("Linux pids fit in i32");
    let mut out_pipe = child.stdout.take().expect("stdout was piped");
    let mut err_pipe = child.stderr.take().expect("stderr was piped");
    // Drain stderr on its own thread so neither pipe can fill and stall
    // the child while the other is being read.
    let (stdout, stderr) = std::thread::scope(|s| {
        let err = s.spawn(move || {
            let mut text = String::new();
            err_pipe.read_to_string(&mut text).map(|_| text)
        });
        let mut text = String::new();
        let out = out_pipe.read_to_string(&mut text).map(|_| text);
        (out, err.join().expect("stderr reader does not panic"))
    });
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `pid` is our own unreaped child (std's `Child` never waits
        // unless asked, and we do not ask it), and both out-pointers refer
        // to live, writable locals of the exact C layout declared above.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    // WIFEXITED / WEXITSTATUS from <sys/wait.h>.
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Finished {
        code,
        stdout: stdout?,
        stderr: stderr?,
        wall_s,
        maxrss_kib: u64::try_from(usage.ru_maxrss).unwrap_or(0),
    })
}

fn bad_reply(what: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, format!("launcher: {what}"))
}

/// The `ncss-cli` binary, and the launcher that spawns it (if any).
pub struct Cli {
    program: PathBuf,
    launcher: Option<(Child, ChildStdin, BufReader<ChildStdout>)>,
}

impl Cli {
    /// Spawn commands from this process.
    #[cfg(test)]
    pub fn direct(program: PathBuf) -> Cli {
        Cli {
            program,
            launcher: None,
        }
    }

    /// Spawn commands from a launcher process (see the module docs).
    pub fn launched(program: PathBuf) -> std::io::Result<Cli> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--launcher")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let to = child.stdin.take().expect("stdin was piped");
        let from = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(Cli {
            program,
            launcher: Some((child, to, from)),
        })
    }

    pub fn program(&self) -> &Path {
        &self.program
    }

    /// Run `ncss-cli args…` to completion.
    pub fn run(&mut self, args: &[String]) -> std::io::Result<Finished> {
        let Some((_, to, from)) = self.launcher.as_mut() else {
            return run(&self.program, args);
        };
        let request: Vec<Json> = std::iter::once(self.program.display().to_string())
            .chain(args.iter().cloned())
            .map(Json::from)
            .collect();
        writeln!(to, "{}", Json::Arr(request).compact())?;
        to.flush()?;
        let mut line = String::new();
        if from.read_line(&mut line)? == 0 {
            return Err(bad_reply("exited"));
        }
        let reply = Json::parse(&line).map_err(|e| bad_reply(&e))?;
        if let Some(err) = reply.get("error").and_then(Json::as_str) {
            return Err(std::io::Error::other(err.to_string()));
        }
        let text = |k: &str| {
            reply
                .get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| bad_reply(k))
        };
        let num = |k: &str| {
            reply
                .get(k)
                .and_then(Json::as_f64)
                .ok_or_else(|| bad_reply(k))
        };
        Ok(Finished {
            code: reply.get("code").and_then(Json::as_f64).map(|c| c as i32),
            stdout: text("stdout")?,
            stderr: text("stderr")?,
            wall_s: num("wall_s")?,
            maxrss_kib: num("maxrss_kib")? as u64,
        })
    }
}

impl Drop for Cli {
    /// Closing the launcher's stdin ends its loop; wait for it to exit.
    fn drop(&mut self) {
        if let Some((mut child, to, _)) = self.launcher.take() {
            drop(to);
            let _ = child.wait();
        }
    }
}

/// The launcher's loop: one JSON array `[program, args…]` per input line,
/// one JSON object describing the finished command per output line.
pub fn serve() -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    for line in std::io::stdin().lock().lines() {
        let request = Json::parse(&line?).map_err(|e| bad_reply(&e))?;
        let parts: Vec<&str> = request.items().iter().filter_map(Json::as_str).collect();
        let (program, args) = parts
            .split_first()
            .ok_or_else(|| bad_reply("empty request"))?;
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        let reply = match run(Path::new(program), &args) {
            Ok(f) => Json::obj()
                .with(
                    "code",
                    f.code.map_or(Json::Null, |c| Json::Num(f64::from(c))),
                )
                .with("stdout", f.stdout)
                .with("stderr", f.stderr)
                .with("wall_s", f.wall_s)
                .with("maxrss_kib", f.maxrss_kib),
            Err(e) => Json::obj().with("error", e.to_string()),
        };
        writeln!(out, "{}", reply.compact())?;
        out.flush()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_exit_code_output_and_memory() {
        let sh = Path::new("/bin/sh");
        let ok = run(sh, &["-c".into(), "echo out; echo err >&2".into()]).unwrap();
        assert_eq!(ok.code, Some(0));
        assert_eq!((ok.stdout.as_str(), ok.stderr.as_str()), ("out\n", "err\n"));
        assert!(ok.maxrss_kib > 0 && ok.wall_s > 0.0);
        let bad = run(sh, &["-c".into(), "exit 3".into()]).unwrap();
        assert_eq!(bad.code, Some(3));
        let killed = run(sh, &["-c".into(), "kill -9 $$".into()]).unwrap();
        assert_eq!(killed.code, None);
    }
}
