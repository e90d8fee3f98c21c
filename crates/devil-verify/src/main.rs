//! `devil-verify`: run every static verification pass over the
//! embedded spec library (8 shipped drivers + 5 synthetic specs).
//!
//! Exit status is non-zero on any diagnostic or any unproven
//! superplan — the PR gate CI runs.

fn main() {
    let mut failures = 0usize;
    let mut specs = 0usize;
    let mut points = 0usize;
    let mut proven = 0usize;
    let mut total = 0usize;
    for (name, ir) in devil_fuzz::spec_library() {
        specs += 1;
        let report = devil_verify::verify(&ir);
        points += ir.dispatch_points();
        proven += report.superplans_proven;
        total += report.superplans_total;
        let status = if report.clean() { "ok" } else { "FAIL" };
        println!(
            "{name}: {status} — {} diagnostic(s), {}/{} superplans proven, {} surface point(s)",
            report.diagnostics.len(),
            report.superplans_proven,
            report.superplans_total,
            ir.dispatch_points()
        );
        for d in &report.diagnostics {
            println!("  {d}");
            failures += 1;
        }
        failures += report.superplans_total - report.superplans_proven;
    }
    println!(
        "{specs} spec(s): {points} surface point(s), {proven}/{total} superplans proven, \
         {failures} failure(s)"
    );
    if failures > 0 {
        std::process::exit(1);
    }
}
