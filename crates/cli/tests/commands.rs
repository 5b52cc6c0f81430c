//! End-to-end CLI tests: parse a command line, run it, and check it
//! neither errors nor panics (output goes to stdout; correctness of the
//! underlying numbers is covered by the core test-suite).

use rpr_cli::{args, commands};

fn run(line: &str) -> Result<(), String> {
    let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
    commands::run(args::parse(&argv)?)
}

#[test]
fn plan_command_runs_for_every_scheme() {
    for scheme in ["rpr", "car", "chain", "traditional", "traditional-local"] {
        run(&format!(
            "plan --code 6,2 --fail d1 --scheme {scheme} --block-mib 16"
        ))
        .unwrap_or_else(|e| panic!("{scheme}: {e}"));
    }
}

#[test]
fn plan_with_gantt_and_dot() {
    run("plan --code 4,2 --fail d0 --gantt --dot --block-mib 8").expect("viz outputs");
}

#[test]
fn compare_single_and_multi_failure() {
    run("compare --code 8,4 --fail d0 --block-mib 16").expect("single");
    run("compare --code 8,4 --fail d0,d3 --block-mib 16").expect("multi");
}

#[test]
fn compare_with_custom_ratio_and_cost() {
    run("compare --code 6,3 --fail p0 --ratio 5 --cost ec2 --block-mib 16").expect("ec2 cost");
    run("compare --code 6,3 --fail 2 --cost free --block-mib 16").expect("free cost");
}

#[test]
fn topo_for_all_placements() {
    for placement in ["compact", "preplaced", "flat"] {
        run(&format!("topo --code 6,2 --placement {placement}"))
            .unwrap_or_else(|e| panic!("{placement}: {e}"));
    }
}

#[test]
fn analyze_with_custom_times() {
    run("analyze").expect("defaults");
    run("analyze --ti-ms 2 --tc-ms 40").expect("custom");
}

#[test]
fn parity_failures_through_the_cli() {
    run("plan --code 12,4 --fail p2 --block-mib 8").expect("parity repair");
    run("plan --code 12,4 --fail p0,p1 --block-mib 8").expect("double parity");
}

#[test]
fn supervised_commands_reject_non_rpr_schemes() {
    for verb in ["inject", "chaos"] {
        run(&format!(
            "{verb} --code 6,3 --fail d1 --scheme rpr --block-mib 16 --json"
        ))
        .unwrap_or_else(|e| panic!("{verb}: {e}"));
        for scheme in ["car", "traditional"] {
            let err = run(&format!(
                "{verb} --code 6,3 --fail d1 --scheme {scheme} --block-mib 16 --json"
            ))
            .unwrap_err();
            assert!(err.contains(&format!("--scheme {scheme}")), "{verb}: {err}");
        }
    }
}
