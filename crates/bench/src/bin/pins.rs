//! `pins` — the deterministic translation pin.
//!
//! ```text
//! pins [--out-dir DIR]
//!
//!   --out-dir DIR  write the document here
//!                  (default: the repository root)
//! ```
//!
//! Writes `BENCH_translate.json`; see [`daisy_bench::pins`] for what
//! it holds.

use daisy_bench::pins;
use std::path::Path;

fn main() {
    // This crate is crates/bench, two levels below the repository root.
    let mut out_dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench has a grandparent")
        .to_path_buf();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out-dir" => out_dir = args.next().expect("--out-dir needs a path").into(),
            "--help" | "-h" => {
                println!("pins [--out-dir DIR]");
                return;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create output directory");
    let write = |file: &str, json: String| {
        let path = out_dir.join(file);
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        println!("wrote {}", path.display());
    };
    write("BENCH_translate.json", pins::translate_json());
}
