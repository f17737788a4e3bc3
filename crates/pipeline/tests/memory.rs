//! A unit's memory peak is its result: each stage of
//! [`sga_pipeline::analyze_unit`] frees what it consumed, so the heap's
//! high-water mark above what a stage starts from stays within a small
//! multiple of what the stage hands on.
//!
//! The binary's global allocator counts the live heap bytes of the thread
//! that allocates, in `const` thread-locals: libtest's own threads and
//! their allocations never reach the test thread's counters.

use sga_cgen::GenConfig;
use sga_core::budget::Budget;
use sga_core::checker;
use sga_core::depgen::{self, DepGenOptions};
use sga_core::interval::{AnalyzeOptions, Engine, Pipeline};
use sga_core::triage::{self, TriageMode, TriageOptions};
use sga_core::validate;
use sga_core::widening::WideningConfig;
use sga_pipeline::analyze_unit;
use sga_pipeline::unit::fingerprint_values;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

/// The system allocator, counting per thread.
struct Counting;

thread_local! {
    /// Bytes this thread allocated and has not freed (a free of memory
    /// another thread allocated counts too, so it may wrap below zero).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since the last [`Meter::measure`] began.
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn moved(delta: isize) {
    // `try_with`: a thread being torn down has no counters left to move.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters are
// thread-locals with `const` initializers and no destructor, which neither
// allocate nor touch the allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            moved(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: same layout the caller vouched for.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            moved(layout.size() as isize);
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`; the caller vouches for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            moved(new_size as isize - layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`.
        unsafe { System.dealloc(ptr, layout) };
        moved(-(layout.size() as isize));
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// One stage's heap use on this thread: above the live bytes it started
/// from, its high-water mark and what it left live (what it returned, less
/// what it freed of its inputs).
#[derive(Clone, Copy, Debug)]
struct Use {
    peak: isize,
    kept: isize,
}

/// The stages measured so far, as a table for the failure messages.
#[derive(Default)]
struct Meter {
    table: String,
}

impl Meter {
    /// Runs `f`, recording its [`Use`] under `stage`.
    fn measure<T>(&mut self, stage: &str, f: impl FnOnce() -> T) -> (T, Use) {
        let start = LIVE.with(Cell::get);
        PEAK.with(|peak| peak.set(start));
        let out = f();
        let used = Use {
            peak: PEAK.with(Cell::get) - start,
            kept: LIVE.with(Cell::get) - start,
        };
        writeln!(
            self.table,
            "{stage:>12}: high-water +{:>9} B, kept {:>+10} B",
            used.peak, used.kept
        )
        .expect("writing to a String");
        (out, used)
    }

    /// Asserts `used.peak ≤ ratio × of`.
    fn assert_within(&self, what: &str, used: Use, ratio: f64, of: isize) {
        assert!(
            used.peak as f64 <= ratio * of as f64,
            "{what}: high-water +{} B above its start exceeds {ratio} × {of} B\n{}",
            used.peak,
            self.table
        );
    }
}

/// The `batch_scc` shape: Table 1's nethack row halved around its recursion
/// cycle, which holds nine tenths of the procedures.
fn scc_unit() -> GenConfig {
    let loc = 211 * 1000 / 40;
    let functions = loc / 25 / 2;
    GenConfig {
        seed: 65261,
        target_loc: loc / 2,
        functions,
        globals: loc / 90 / 2,
        global_ptrs: loc / 400 / 2,
        max_scc: functions * 9 / 10,
        ..GenConfig::sized(65261, 1)
    }
}

/// Each stage of a generated SCC-heavy unit, in [`analyze_unit`]'s order,
/// then the unit as [`analyze_unit`] runs it: dependency generation peaks at
/// most twice the relation it returns above its start, the value
/// fingerprint at 0.21× the rows it reads, the solve at 1.42× the rows it
/// returns and at 0.63× the staging it reads, and the staging,
/// the checks, triage and the whole unit within a small multiple of what
/// they hand on. The product's `--validate` check reads the solve's rows as
/// they are and peaks at 10.1× them, for the whole-unit octagon and the
/// sparse and dense constant propagations it solves of its own.
#[test]
fn each_stage_peaks_near_what_it_hands_on() {
    let program = sga_cfront::parse(&sga_cgen::generate(&scc_unit())).expect("parses");
    let (depgen_options, widening) = (DepGenOptions::default(), WideningConfig::default());
    let analyze = AnalyzeOptions {
        depgen: depgen_options,
        widening,
        ..AnalyzeOptions::default()
    };
    let budget = Budget::default();
    let mut meter = Meter::default();

    let (staged, prepared) = meter.measure("prepare", || Pipeline::prepare(&program, analyze));
    let (deps, dep) = meter.measure("depgen", || {
        depgen::generate(&program, &staged.pre, &staged.du, depgen_options)
    });
    assert_eq!(deps.stats.final_edges, staged.deps.stats.final_edges);
    drop(deps);
    let (answer, solved) = meter.measure("solve", || staged.solve(&budget));
    let q = staged.inputs(&answer);
    let (mut diags, checked) =
        meter.measure("check", || checker::check_all_staged(&q, &staged.pre));
    let (_, hashed) = meter.measure("fingerprint", || {
        fingerprint_values(answer.rows.iter(), answer.rows.locs())
    });
    let topts = TriageOptions {
        engine: Engine::Sparse,
        depgen: depgen_options,
        widening,
        budget: triage::derived_budget(answer.stats.iterations, &budget),
        mode: TriageMode::Both,
        ..TriageOptions::default()
    };
    let (_, triaged) = meter.measure("triage", || {
        triage::discharge_staged(&staged.pre, &q, &mut diags, &topts)
    });
    assert!(!diags.is_empty(), "the unit raises alarms to triage");
    let (verdict, validated) = meter.measure("validate", || {
        let options = AnalyzeOptions { budget, ..analyze };
        let rows = &answer.rows;
        validate::validate_rows(
            &program,
            &staged.pre,
            &staged.du,
            &staged.deps,
            rows,
            options,
        )
    });
    assert!(verdict.is_valid());
    drop((q, diags));
    drop((answer, staged));

    let (unit, whole) = meter.measure("analyze_unit", || {
        analyze_unit(
            &program,
            depgen_options,
            widening,
            TriageMode::Both,
            &budget,
        )
    });
    drop(unit);
    eprintln!("{}", meter.table);

    meter.assert_within("dependency generation", dep, 2.0, dep.kept);
    meter.assert_within("the fingerprint", hashed, 0.21, solved.kept);
    meter.assert_within("the staging", prepared, 1.5, prepared.kept);
    meter.assert_within("the solve", solved, 1.42, solved.kept);
    meter.assert_within("the solve", solved, 0.63, prepared.kept);
    meter.assert_within("the checks", checked, 1.0, solved.kept);
    meter.assert_within("triage", triaged, 1.0, solved.kept);
    meter.assert_within("the oracle", validated, 10.1, solved.kept);
    meter.assert_within("the unit", whole, 1.25, whole.kept);
}
