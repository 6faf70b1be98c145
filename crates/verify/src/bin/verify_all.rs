//! Runs the full correctness gauntlet: kernel differential suites,
//! contraction exactness audits, executor parity (including concurrent
//! Arc-shared plan replay and the quantized-plan accuracy budget), and the
//! training seed sweep.
//!
//! Usage: `verify_all [--fast] [--quant-smoke]`. `--quant-smoke` runs only
//! the quantized-plan column at worker width 1 (the ci.sh smoke stage).
//! Exits non-zero on any divergence and prints the offending per-case /
//! per-layer tables.

use nb_verify::audit::run_audit_suite;
use nb_verify::concurrent::run_concurrent_suite;
use nb_verify::diff::{
    run_batchnorm_suite, run_conv_suite, run_depthwise_suite, run_gemm_suite, run_pool_suite,
};
use nb_verify::dp::run_dp_suite;
use nb_verify::parity::run_parity_suite;
use nb_verify::quant::run_quant_suite;
use netbooster_core::vanilla_easy_task_sweep;

fn main() {
    let fast = std::env::args().any(|a| a == "--fast");
    let quant_smoke = std::env::args().any(|a| a == "--quant-smoke");
    if quant_smoke {
        // CI smoke stage: the quantized column alone, pinned to width 1 by
        // capping the pool.
        println!("== nb-verify (quant smoke) ==");
        let quant = nb_tensor::with_thread_cap(1, || run_quant_suite(true));
        println!("[quant] {}", quant.summary_line());
        if !quant.pass() {
            print!("{}", quant.render_failures());
            println!("verify_all: FAILED");
            std::process::exit(1);
        }
        println!("verify_all: OK");
        return;
    }
    let mode = if fast { "fast" } else { "full" };
    println!("== nb-verify ({mode} mode) ==");
    let mut failed = false;

    // 1. differential oracles
    for (name, report) in [
        ("gemm", run_gemm_suite(fast)),
        ("conv", run_conv_suite(fast)),
        ("depthwise", run_depthwise_suite(fast)),
        ("pool", run_pool_suite(fast)),
        ("batchnorm", run_batchnorm_suite(fast)),
    ] {
        println!("[diff:{name}] {}", report.summary_line());
        if !report.pass() {
            failed = true;
            print!("{}", report.render_failures());
        }
    }

    // 2. contraction exactness audit over the Q1 x Q2 x Q3 grid
    let audits = run_audit_suite(fast, 1e-4);
    let bad = audits.iter().filter(|a| !a.pass()).count();
    println!("[audit] {} plans, {} failures", audits.len(), bad);
    for a in &audits {
        if !a.pass() {
            failed = true;
            print!("{}", a.render());
        }
    }

    // 3. train/eval parity: taped eval vs the compiled plan, bitwise with
    // folding and fusion off, ULP-bounded with folding on
    let parity = run_parity_suite();
    println!("[parity] {}", parity.summary_line());
    if !parity.pass() {
        failed = true;
        print!("{}", parity.render_failures());
    }

    // 4. concurrent replay parity: Arc-shared plans vs serial, bitwise
    let concurrent = run_concurrent_suite();
    println!("[concurrent] {}", concurrent.summary_line());
    if !concurrent.pass() {
        failed = true;
        print!("{}", concurrent.render_failures());
    }

    // 5. quantized-plan parity: top-1 accuracy budget + bitwise width
    // invariance for the int8 compiled plan
    let quant = run_quant_suite(fast);
    println!("[quant] {}", quant.summary_line());
    if !quant.pass() {
        failed = true;
        print!("{}", quant.render_failures());
    }

    // 6. data-parallel training parity: fit_parallel vs fit, bitwise, and
    // worker-count invariance at fixed gradient grain
    let dp = run_dp_suite(fast);
    println!("[dp] {}", dp.summary_line());
    if !dp.pass() {
        failed = true;
        print!("{}", dp.render_failures());
    }

    // 7. training seed sweep (statistical pass criterion)
    let seeds: Vec<u64> = if fast {
        (0..5).collect()
    } else {
        (0..8).collect()
    };
    let report = vanilla_easy_task_sweep(&seeds);
    println!(
        "[sweep] vanilla easy task: {:.0}% of {} seeds passed (need {:.0}%)",
        report.pass_fraction() * 100.0,
        report.runs.len(),
        report.criterion.min_pass_fraction * 100.0,
    );
    if !report.passes() {
        failed = true;
        print!("{}", report.summary());
    }

    if failed {
        println!("verify_all: FAILED");
        std::process::exit(1);
    }
    println!("verify_all: OK");
}
