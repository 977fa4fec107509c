//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run --release -p pvr-bench --bin repro -- all
//! cargo run --release -p pvr-bench --bin repro -- table1 table3 fig5 fig6 fig7 fig8 icache table2 fig9
//! cargo run --release -p pvr-bench --bin repro -- table2 --quick   # down-scaled sweep
//! ```

use pvr_bench::{
    ckpt_exp, cow_exp, degrade_exp, elastic_exp, faults_exp, fig5, fig6, fig7, fig8, icache_exp,
    overlap_exp, parallel_exp, scaling, tables, tracing_exp,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let wanted: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(|s| s.as_str())
        .collect();
    let wanted: Vec<&str> = if wanted.is_empty() || wanted.contains(&"all") {
        vec![
            "table1", "table3", "fig5", "fig6", "fig7", "fig8", "icache", "table2", "fig9",
        ]
    } else {
        wanted
    };

    // Table 2 and Fig. 9 share one expensive sweep.
    let needs_scaling = wanted.contains(&"table2") || wanted.contains(&"fig9");
    let scaling_result = if needs_scaling {
        let cfg = if quick {
            scaling::ScalingConfig::quick()
        } else {
            scaling::ScalingConfig::full()
        };
        eprintln!(
            "[repro] running scaling sweep (cores {:?}, ratios {:?}) ...",
            cfg.cores, cfg.ratios
        );
        Some((scaling::run(&cfg), cfg))
    } else {
        None
    };

    for what in wanted {
        match what {
            "table1" => println!("{}\n", tables::table1()),
            "table3" => println!("{}\n", tables::table3()),
            "fig5" => println!("{}\n", fig5::report(8)),
            "fig6" => println!("{}\n", fig6::report(if quick { 20_000 } else { 100_000 })),
            "fig7" => println!("{}\n", fig7::report()),
            "fig8" => println!("{}\n", fig8::report(if quick { 3 } else { 7 })),
            "icache" => println!("{}\n", icache_exp::report()),
            "trace" => println!("{}\n", tracing_exp::report()),
            "scaling" => println!("{}\n", parallel_exp::report(quick)),
            "faults" => println!("{}\n", faults_exp::report()),
            "cow" => println!("{}\n", cow_exp::report(quick)),
            "ckpt" => println!("{}\n", ckpt_exp::report(quick)),
            "elastic" => println!("{}\n", elastic_exp::report(quick)),
            "overlap" => println!("{}\n", overlap_exp::report(quick)),
            "degrade" => println!("{}\n", degrade_exp::report()),
            "table2" => {
                let (res, cfg) = scaling_result.as_ref().unwrap();
                println!("{}\n", scaling::report_table2(res, cfg));
            }
            "fig9" => {
                let (res, cfg) = scaling_result.as_ref().unwrap();
                println!("{}\n", scaling::report_fig9(res, cfg));
            }
            other => {
                eprintln!("unknown experiment `{other}`");
                eprintln!(
                    "known: table1 table3 fig5 fig6 fig7 fig8 icache trace scaling faults degrade cow ckpt elastic overlap table2 fig9 all"
                );
                std::process::exit(2);
            }
        }
    }
}
