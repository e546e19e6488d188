//! Runs the full experiment suite, prints every table/figure, and writes
//! JSON reports to `reports/`.
//!
//! Pass `--quick` to run the Fig. 6 training experiment at test scale.

use std::path::PathBuf;

use mbs_bench::experiments::{
    ablation, fig03, fig04, fig05, fig06, fig10, fig11, fig12, fig13, fig14, tables,
};
use mbs_bench::write_json;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let dir = PathBuf::from("reports");

    let t3 = tables::tab03();
    println!("{}", tables::render_tab03(&t3));
    write_json(&dir, "tab03", &t3)?;

    let t4 = tables::tab04();
    println!("{}", tables::render_tab04(&t4));
    write_json(&dir, "tab04", &t4)?;

    let t1 = tables::tab01();
    println!("{}", tables::render_tab01(&t1));
    write_json(&dir, "tab01", &t1)?;

    let t2 = tables::tab02();
    println!("{}", tables::render_tab02(&t2));
    write_json(&dir, "tab02", &t2)?;

    let f3 = fig03::run();
    println!("{}", fig03::render(&f3));
    write_json(&dir, "fig03", &f3)?;

    let f4 = fig04::run();
    println!("{}", fig04::render(&f4));
    write_json(&dir, "fig04", &f4)?;

    let f5 = fig05::run();
    println!("{}", fig05::render(&f5));
    write_json(&dir, "fig05", &f5)?;

    let f10 = fig10::run();
    println!("{}", fig10::render(&f10));
    write_json(&dir, "fig10", &f10)?;

    let f11 = fig11::run();
    println!("{}", fig11::render(&f11));
    write_json(&dir, "fig11", &f11)?;

    let f12 = fig12::run();
    println!("{}", fig12::render(&f12));
    write_json(&dir, "fig12", &f12)?;

    let f13 = fig13::run();
    println!("{}", fig13::render(&f13));
    write_json(&dir, "fig13", &f13)?;

    let f14 = fig14::run();
    println!("{}", fig14::render(&f14));
    write_json(&dir, "fig14", &f14)?;

    let ab = ablation::run();
    println!("{}", ablation::render(&ab));
    write_json(&dir, "ablation_grouping", &ab)?;

    let scale = if quick {
        fig06::Scale::Quick
    } else {
        fig06::Scale::Full
    };
    let f6 = fig06::run(scale);
    println!("{}", fig06::render(&f6));
    write_json(&dir, "fig06", &f6)?;

    println!("JSON reports written to {}", dir.display());
    Ok(())
}
