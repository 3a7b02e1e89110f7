//! `repro` — regenerates every table and figure of the paper's
//! Chapter 5 evaluation (and the Chapter 6 oracle study).
//!
//! ```text
//! repro [EXPERIMENT ...]
//!
//! EXPERIMENTS:
//!   table5.1 fig5.1 table5.2 table5.3 table5.4 fig5.2 table5.5
//!   table5.6 table5.7 fig5.3-5.5 table5.8 table5.9 oracle ablation
//!   interpretive utilization guest-profile
//!   all        (default: everything)
//! ```

use daisy_bench::tables;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name || a == "all");
    let mut ran = false;

    if want("table5.1") {
        ran = true;
        println!("{}", tables::print_table5_1(&tables::table5_1()));
    }
    if want("fig5.1") {
        ran = true;
        println!("{}", tables::print_fig5_1(&tables::fig5_1()));
    }
    if want("table5.2") {
        ran = true;
        println!("{}", tables::print_table5_2(&tables::table5_2()));
    }
    if want("table5.3") || want("table5.4") || want("fig5.2") {
        ran = true;
        let t53 = tables::table5_3();
        if want("table5.3") {
            println!("{}", tables::print_table5_3(&t53));
        }
        if want("table5.4") {
            println!("{}", tables::print_table5_4(&tables::table5_4(&t53)));
        }
        if want("fig5.2") {
            println!("{}", tables::print_fig5_2(&tables::fig5_2(&t53)));
        }
    }
    if want("table5.5") {
        ran = true;
        println!("{}", tables::print_table5_5(&tables::table5_5()));
    }
    if want("table5.6") {
        ran = true;
        println!("{}", tables::print_table5_6(&tables::table5_6()));
    }
    if want("table5.7") {
        ran = true;
        println!("{}", tables::print_table5_7(&tables::table5_7()));
    }
    if want("fig5.3-5.5") || want("fig5.3") || want("fig5.4") || want("fig5.5") {
        ran = true;
        println!("{}", tables::print_page_sweep(&tables::page_sweep()));
    }
    if want("table5.8") {
        ran = true;
        println!("{}", tables::print_table5_8(&tables::table5_8()));
    }
    if want("table5.9") {
        ran = true;
        println!("{}", tables::print_table5_9(&tables::table5_9()));
    }
    if want("oracle") {
        ran = true;
        println!("{}", tables::print_oracle(&tables::oracle_table()));
    }
    if want("ablation") {
        ran = true;
        println!("{}", tables::print_ablation(&tables::ablation()));
    }
    if want("interpretive") {
        ran = true;
        println!("{}", tables::print_interpretive(&tables::interpretive()));
    }
    if want("utilization") {
        ran = true;
        println!("{}", tables::print_utilization(&tables::utilization()));
    }
    if want("guest-profile") {
        ran = true;
        println!("{}", tables::print_guest_profile(&tables::guest_profile()));
    }
    if !ran {
        eprintln!("unknown experiment(s): {args:?}");
        eprintln!(
            "known: table5.1 fig5.1 table5.2 table5.3 table5.4 fig5.2 table5.5 \
             table5.6 table5.7 fig5.3-5.5 table5.8 table5.9 oracle ablation \
             interpretive utilization guest-profile all"
        );
        std::process::exit(2);
    }
}
