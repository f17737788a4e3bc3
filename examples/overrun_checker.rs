//! A miniature Sparrow: scan C code for buffer overruns with the sparse
//! interval analysis — the paper's motivating client (sound static error
//! detection that scales).
//!
//! ```sh
//! cargo run -p sga --example overrun_checker [file.c]
//! ```
//!
//! Without an argument, a built-in demo program with two planted bugs is
//! checked.

use sga::analysis::checker::check_overruns;
use sga::analysis::interval::{AnalyzeOptions, Pipeline};
use sga::frontend;

const DEMO: &str = r#"
int fill(int *buf, int n) {
    int i = 0;
    while (i <= n) {        /* BUG: off-by-one when n == size */
        buf[i] = i;
        i = i + 1;
    }
    return i;
}

int sum_head(int *buf) {
    int s = 0;
    int k = 0;
    while (k < 4) {
        s = s + buf[k];
        k = k + 1;
    }
    return s;
}

int main() {
    int *small = malloc(8);
    int *big = malloc(64);
    fill(small, 8);          /* overruns small[8] */
    fill(big, 32);           /* also joins into the same summary */
    int s = sum_head(small); /* fine: reads [0,3] */
    big[70] = s;             /* BUG: definite out-of-bounds write */
    return s;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (name, src) = match std::env::args().nth(1) {
        Some(path) => (path.clone(), std::fs::read_to_string(&path)?),
        None => ("<demo>".to_string(), DEMO.to_string()),
    };

    let program = frontend::parse(&src)?;
    // Stage the unit once — pre-analysis, def/use, dependencies — and solve
    // it. The checker reads each pointer's value as the input the sparse
    // engine computed at the access: its dependency in-edges.
    let options = AnalyzeOptions::default();
    let staged = Pipeline::prepare(&program, options);
    let result = staged.solve(&options.budget);
    let alarms = check_overruns(&staged.inputs(&result));

    println!(
        "checked {name}: {} potential buffer overrun(s)",
        alarms.len()
    );
    for alarm in &alarms {
        println!("  {alarm}");
    }
    if alarms.is_empty() {
        println!("  no overruns provable or suspected — clean bill of health");
    }

    // Exit nonzero when a definite bug is found, like a real linter.
    if alarms.iter().any(|a| a.definite) {
        std::process::exit(1);
    }
    Ok(())
}
