//! Prints the constant-level dependency DAG of the swap-list module repair
//! as Graphviz DOT, so the wavefront scheduler's achievable width is
//! inspectable (`cargo run --example repair_dag | dot -Tsvg > dag.svg`).
//!
//! Nodes are grouped `rank=same` per wave; edges point dependency →
//! dependent. The scheduling summary (waves, widths, merge time, per-worker
//! whnf calls) goes to stderr so stdout stays valid DOT.

use pumpkin_pi::*;

fn main() -> pumpkin_core::Result<()> {
    let mut env = pumpkin_stdlib::std_env();
    let report = case_studies::swap_list_module_parallel(&mut env, pumpkin_core::default_jobs())?;
    eprintln!("schedule: {}", report.schedule);
    eprintln!(
        "{} constants repaired across {} waves",
        report.repaired.len(),
        report.schedule.waves
    );
    print!("{}", report.dag_dot());
    Ok(())
}
