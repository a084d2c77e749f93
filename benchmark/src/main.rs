//! The repo benchmark: four workloads timed from outside the crates.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload NAME [--seed S] [--seconds T] [--trace 0|1] [--quick] [--out DIR]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ledger (and writes `DIR/trace.json`). The last line of standard output
//! is the result object `BENCHMARK.json`'s contract describes. See
//! `README.md` for what each workload and metric is for.

#![forbid(unsafe_code)]

mod inputs;
mod metrics;
mod pipeline;
mod probes;
mod stats;
mod trace;
mod workloads;

use inputs::Rng;
use metrics::Report;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::Tracer;
use workloads::Workload;

/// What a workload needs to know about this run.
pub struct Ctx {
    pub workload: &'static str,
    pub seed: u64,
    /// Measurement time of the end-to-end pass.
    pub seconds: f64,
    /// Smoke sizes: same metric names, numbers never compared.
    pub quick: bool,
    /// Enabled in the traced pass, off in the end-to-end pass.
    pub tracer: Arc<Tracer>,
    /// This host's GEMM rate, measured once per traced run: the roofline
    /// denominator (1 in the end-to-end pass, which never divides by it).
    pub peak_gflops: f64,
}

impl Ctx {
    /// The seed of one named input of this workload.
    pub fn seed_for(&self, stream: &str) -> u64 {
        inputs::derive(self.seed, self.workload, stream)
    }

    pub fn rng(&self, stream: &str) -> Rng {
        Rng::new(self.seed_for(stream))
    }

    /// States the generated points on standard output: the same seed gives
    /// the same digest, on any host.
    pub fn announce_inputs(&self, points: &kfds_tree::PointSet) {
        let digest = inputs::digest(points.as_slice());
        println!("# inputs n={} d={} digest={digest:016x}", points.len(), points.dim());
    }

    /// `full`, or `quick` under `--quick`.
    pub fn size(&self, full: usize, quick: usize) -> usize {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

/// The measurement window of an end-to-end pass: repetitions run until the
/// next one would no longer fit.
pub struct Budget {
    start: Instant,
    seconds: f64,
}

impl Budget {
    pub fn new(seconds: f64) -> Self {
        Budget { start: Instant::now(), seconds }
    }

    /// `true` while an operation of `cost` seconds still fits.
    pub fn fits(&self, cost: f64) -> bool {
        self.start.elapsed().as_secs_f64() + cost <= self.seconds
    }
}

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: std::path::PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: workloads::ALL.iter().collect(),
        seed: 1,
        seconds: 25.0,
        trace: false,
        quick: false,
        out: "benchmark/out".into(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let known = workloads::ALL.iter().find(|w| w.name == name);
                parsed.workloads = vec![known.ok_or(format!("unknown workload {name}"))?];
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = value()?.into(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Names of the registry switches that the environment turns off. A ledger
/// row may only come from the default paths, never from a reference path.
fn switches_off() -> Vec<&'static str> {
    kfds_switches::ALL.iter().filter(|s| s.is_off()).map(|s| s.name).collect()
}

/// 0 when every report is correct, 1 otherwise.
pub fn exit_code(reports: &[Report]) -> u8 {
    u8::from(!reports.iter().all(Report::correct))
}

fn host_json(threads: usize, nproc: usize) -> String {
    format!(
        "{{\"nproc\": {nproc}, \"threads\": {threads}, \"simd\": \"{}\"}}",
        kfds_la::simd::detected_features()
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("kfds-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let off = switches_off();
    if !off.is_empty() {
        eprintln!("kfds-benchmark: refusing to run with {} off its default", off.join(", "));
        return ExitCode::from(2);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |v| v.get());
    let threads = nproc.min(4);
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("the rayon shim's pool builder is infallible");
    let tracer = Arc::new(Tracer::new(args.trace));

    let mut reports = Vec::new();
    let mut out_rows = Vec::new();
    for &Workload { name: workload, run } in &args.workloads {
        let mut report = Report::new(args.trace);
        let peak_gflops = if args.trace { probes::common(&mut report, args.quick) } else { 1.0 };
        let ctx = Ctx {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            quick: args.quick,
            tracer: Arc::clone(&tracer),
            peak_gflops,
        };
        tracer.set_context(workload, 0);
        pool.install(|| run(&ctx, &mut report));
        if args.trace {
            report.set("bench.threads", threads as f64, 1);
            report.set("bench.nproc", nproc as f64, 1);
        }
        println!("# workload {workload} seed {} trace {}", args.seed, u8::from(args.trace));
        print!("{}", report.to_text());
        out_rows.push(format!("\"{workload}\": {}", report.to_json_line()));
        reports.push(report);
    }

    let written = std::fs::create_dir_all(&args.out).and_then(|()| {
        let pass = if args.trace { "layers" } else { "end_to_end" };
        let body = format!(
            "{{\"seed\": {}, \"seconds\": {}, \"quick\": {}, \"host\": {}, \"workloads\": {{\n{}\n}}}}\n",
            args.seed,
            args.seconds,
            args.quick,
            host_json(threads, nproc),
            out_rows.join(",\n")
        );
        std::fs::write(args.out.join(format!("{pass}.json")), body)?;
        if args.trace {
            std::fs::write(args.out.join("trace.json"), tracer.to_json())?;
        }
        Ok(())
    });
    if let Err(e) = written {
        eprintln!("kfds-benchmark: cannot write to {}: {e}", args.out.display());
        return ExitCode::from(1);
    }

    // The driver reads the last line of standard output.
    if let Some(last) = reports.last() {
        println!("{}", last.to_json_line());
    }
    ExitCode::from(exit_code(&reports))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args(&[
            "--workload",
            "covtype_hybrid",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workloads.len(), 1);
        assert_eq!(a.workloads[0].name, "covtype_hybrid");
        assert_eq!((a.seed, a.seconds, a.trace, a.quick), (7, 3.0, true, false));
        assert_eq!(args(&[]).unwrap().workloads.len(), workloads::ALL.len());
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
    }

    #[test]
    fn budget_stops_before_overrunning() {
        let b = Budget::new(0.05);
        assert!(b.fits(0.01));
        assert!(!b.fits(1.0));
    }
}
