//! Runs every experiment binary in the paper's presentation order
//! (Figures 2/12 statistics, Figure 10, Figure 11, Figure 13, Figure 14).
//!
//! Equivalent to invoking `fig10`, `fig11`, `fig12_table`, `fig13` and
//! `fig14` in sequence; scale with the `N` environment variable. The
//! sibling binaries must be built next to this one:
//!
//! ```sh
//! cargo build --release -p igm-bench --bins && target/release/run_all
//! ```

use std::process::Command;

fn main() {
    let me = std::env::current_exe().expect("current exe path");
    let dir = me.parent().expect("exe directory");
    for bin in ["fig10", "fig11", "fig12_table", "fig13", "fig14"] {
        println!("\n################ {bin} ################\n");
        let status = Command::new(dir.join(bin)).status().unwrap_or_else(|e| {
            panic!(
                "failed to launch {bin}: {e} (build every figure binary first: \
                 cargo build --release -p igm-bench --bins && target/release/run_all)"
            )
        });
        assert!(status.success(), "{bin} failed");
    }
}
