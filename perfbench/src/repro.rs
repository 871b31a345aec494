//! The batch sweep `instrep-repro --scale small --jobs 1` performs — all
//! ten families at the Small skip/window, the default analysis tier, one
//! `Session` on one thread, then every table and figure rendered through
//! `core::report` — and its output checks. The traced run makes one
//! sweep; the layer suite reuses the build and the renderers.

use std::time::Instant;

use instrep_asm::Image;
use instrep_core::report::{self, Named};
use instrep_core::service::{report_json, scale_windows};
use instrep_core::{AnalysisConfig, AnalysisJob, Session, WorkloadReport};
use instrep_workloads::Scale;

use crate::util::{digest, secs};
use crate::Run;

/// Digests of the sweep's outputs at [`crate::DEFAULT_SEED`]:
/// `<kind> [<family>] <digest>` lines, `#` comments.
const PINNED: &str = include_str!("../pinned-seed1998.txt");
/// Worker threads of the sweep (`--jobs 1`).
pub const JOBS: usize = 1;

/// The sweep's analysis configuration: the Small skip and window, as
/// `instrep-repro --scale small` runs them.
pub fn config() -> AnalysisConfig {
    let (skip, window) = scale_windows("small").expect("known scale");
    AnalysisConfig { skip, window, ..AnalysisConfig::default() }
}

/// The ten families, built and with their inputs generated.
pub struct Built {
    /// Family names, in roster order.
    pub names: Vec<&'static str>,
    /// Compiled images.
    pub images: Vec<Image>,
    /// Input streams at the sweep's scale and seed.
    pub inputs: Vec<Vec<u8>>,
}

/// Compiles every family and generates its input at `scale`, with the
/// seed `seed_of(family index)`.
pub fn build_all(scale: Scale, seed_of: impl Fn(usize) -> u64) -> Result<Built, String> {
    let mut built = Built { names: Vec::new(), images: Vec::new(), inputs: Vec::new() };
    for (i, wl) in instrep_workloads::all().into_iter().enumerate() {
        let image = wl.build().map_err(|e| format!("building {}: {e}", wl.name))?;
        built.names.push(wl.name);
        built.images.push(image);
        built.inputs.push(wl.input(scale, seed_of(i)));
    }
    Ok(built)
}

/// Every table and figure in the order `instrep-repro` prints them with
/// no selection flags, one `println!` each: the digest of this string
/// equals the digest of that command's standard output.
pub fn render_all(named: &[Named<'_>]) -> String {
    let parts = [
        report::table1(named),
        report::figure1(named),
        report::table2(named),
        report::figure3(named),
        report::figure4(named),
        report::table3(named),
        report::table4(named),
        report::tables5_6_7(named),
        report::table8(named),
        report::figure5(named),
        report::table9(named),
        report::figure6(named),
        report::table10(named),
        report::ext_classes(named),
        report::ext_predict(named),
    ];
    let mut out = String::new();
    for p in parts {
        out.push_str(&p);
        out.push('\n');
    }
    out
}

/// One sweep's cost, and digests of its outputs (taken after its clock
/// stops, so the reports need not be kept).
pub struct Sweep {
    /// Wall time of analysis plus rendering, in seconds.
    pub wall_s: f64,
    /// Measured instructions: the sum of Table 1's dynamic totals.
    pub events: u64,
    /// Each family's dynamic total, in roster order.
    pub totals: Vec<u64>,
    /// `report <family>` digests of the canonical report JSON, then the
    /// `tables` digest.
    pub digests: Vec<(String, String)>,
}

/// Runs one sweep.
pub fn sweep(built: &Built) -> Result<Sweep, String> {
    let t0 = Instant::now();
    let jobs: Vec<AnalysisJob<'_>> = built
        .names
        .iter()
        .zip(&built.images)
        .zip(&built.inputs)
        .map(|((name, image), input)| AnalysisJob { image, input: input.clone(), label: name })
        .collect();
    let results = Session::new(config()).jobs(JOBS).run(jobs);
    let mut reports: Vec<WorkloadReport> = Vec::with_capacity(results.len());
    for (name, r) in built.names.iter().zip(results) {
        reports.push(r.map_err(|e| format!("analyzing {name} trapped: {e}"))?.report);
    }
    let named: Vec<Named<'_>> = built.names.iter().copied().zip(&reports).collect();
    let tables = render_all(&named);
    let wall_s = secs(t0);

    let mut digests: Vec<(String, String)> = named
        .iter()
        .map(|(n, r)| (format!("report {n}"), digest(report_json(r).as_bytes())))
        .collect();
    digests.push(("tables".to_string(), digest(tables.as_bytes())));
    let totals: Vec<u64> = reports.iter().map(|r| r.dynamic_total).collect();
    Ok(Sweep { wall_s, events: totals.iter().sum(), totals, digests })
}

/// The pinned digests as `(kind, digest)` pairs.
fn pinned() -> Vec<(&'static str, &'static str)> {
    PINNED
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .map(|(k, d)| (k.trim(), d))
        .collect()
}

/// Output checks, outside the timed region: each family's
/// measured-instruction count must match a bare simulator run, and at
/// the default seed every digest must match the pinned one.
pub fn check(built: &Built, sweep: &Sweep, seed: u64, run: &mut Run) {
    let (skip, window) = (config().skip, config().window);
    for (i, (name, &total)) in built.names.iter().zip(&sweep.totals).enumerate() {
        match crate::layers::bare_run(&built.images[i], &built.inputs[i], skip, window) {
            Ok(bare) if bare.measured == total => {}
            Ok(bare) => run.fail(format!(
                "{name}: report measured {total} instructions, bare simulator {}",
                bare.measured
            )),
            Err(e) => run.fail(format!("{name}: bare simulator run trapped: {e}")),
        }
    }
    if seed != crate::DEFAULT_SEED {
        return;
    }
    let pins = pinned();
    for (kind, got) in &sweep.digests {
        match pins.iter().find(|(k, _)| k == kind) {
            Some((_, d)) if d == got => {}
            Some((_, d)) => run.fail(format!("{kind}: digest {got}, pinned {d}")),
            None => run.fail(format!("{kind}: no pinned digest (computed {got})")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep at the default seed whose digests are the pinned ones,
    /// with the `tables` digest replaced by `tables`.
    fn check_with_tables(tables: &str) -> u64 {
        let digests: Vec<(String, String)> = pinned()
            .into_iter()
            .map(|(k, d)| (k.to_string(), if k == "tables" { tables } else { d }.to_string()))
            .collect();
        let sweep = Sweep { wall_s: 1.0, events: 0, totals: Vec::new(), digests };
        let built = Built { names: Vec::new(), images: Vec::new(), inputs: Vec::new() };
        let mut run = Run::default();
        check(&built, &sweep, crate::DEFAULT_SEED, &mut run);
        run.failed
    }

    #[test]
    fn pinned_digests_pass_and_a_corrupted_one_fails() {
        let pinned_tables =
            pinned().into_iter().find(|(k, _)| *k == "tables").expect("a tables digest").1;
        assert_eq!(check_with_tables(pinned_tables), 0);
        let flipped = format!(
            "{}{}",
            if pinned_tables.starts_with('0') { '1' } else { '0' },
            &pinned_tables[1..]
        );
        assert_eq!(check_with_tables(&flipped), 1);
    }
}
