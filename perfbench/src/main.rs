//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints a table, then one JSON result line as the last line of
//! standard output. `perfbench --print-expected` prints the suite
//! digests that `expected/suite-lint.txt` records.

use pta_perfbench::{pipeline, Args, Workload, WORKLOADS};
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name()).collect();
    format!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1\n       perfbench --print-expected",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_owned());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.unwrap_or(false),
    })
}

/// Limits glibc's allocator to one arena. It must run before any thread
/// starts. With per-thread arenas, `serve-edit`'s peak RSS depended on
/// whether a new server thread reused a freed arena or opened another
/// (33 MB against 41–45 MB in about one run in ten); with at most one
/// busy thread at a time, one arena costs no contention.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn one_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator parameter, and no other
    // thread exists yet to allocate concurrently.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn one_malloc_arena() {}

/// Pins the process, and every thread it starts later, to the CPU it
/// runs on. Only one thread is busy at a time (the loop is closed), so
/// one CPU is enough. On `serve-edit` it keeps every hand-off between
/// client and server thread on one CPU. Unpinned, there were phases of
/// minutes in which a round trip took 50-75 us of wall time instead of
/// about 27 us and a third more CPU time, while the server's own
/// handling time did not change: the extra wall time is waiting for a
/// wake-up, which is what a hand-off to the other vCPU costs.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments; `sched_setaffinity`
    // reads a `cpu_set_t` of `size` bytes (1024 bits), which `mask` is.
    unsafe {
        let cpu = sched_getcpu();
        if !(0..1024).contains(&cpu) {
            return;
        }
        let mut mask = [0u64; 16];
        mask[cpu as usize / 64] |= 1 << (cpu % 64);
        sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr());
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_to_one_cpu() {}

fn main() -> ExitCode {
    one_malloc_arena();
    pin_to_one_cpu();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--print-expected"] {
        print!("{}", pipeline::print_expected());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match pta_perfbench::run(&args) {
        Ok(result) => {
            let title = format!(
                "{} seed {} ({} run, {:.1} s)",
                args.workload.name(),
                args.seed,
                if args.trace { "traced" } else { "untraced" },
                args.seconds.as_secs_f64()
            );
            print!("{}", result.table(&title));
            println!("{}", result.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
