//! Pipeline viewer: write a kernel in text assembly, watch it flow
//! through the out-of-order pipeline, and see a return misprediction
//! being repaired.
//!
//! The kernel below has a two-deep call chain and an alternating branch
//! that mispredicts while the predictor is cold; the stage chart shows
//! wrong-path micro-ops being fetched, squashed (`s`) and drained, while
//! correct-path work commits (`C`).
//!
//! ```sh
//! cargo run --release --example pipeline_viewer
//! ```

use hydrascalar::isa::asm;
use hydrascalar::pipeline::PipeTrace;
use hydrascalar::{Core, CoreConfig};

const KERNEL: &str = "
; A small call-heavy kernel with a poorly-predictable branch.
main:
    li   sp, 0
    li   r5, 12          ; outer iterations
loop:
    jal  outer
    xori r6, r6, 1       ; alternates 1,0,1,0,...
    beq  r6, zero, skip
    jal  leaf            ; conditionally-executed call site
skip:
    subi r5, r5, 1
    bgt  r5, zero, loop
    halt

outer:
    addi sp, sp, 1
    sw   ra, 0(sp)
    jal  leaf
    lw   ra, 0(sp)
    subi sp, sp, 1
    ret

leaf:
    addi r1, r1, 1
    ret
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = asm::parse_program(KERNEL)?;
    println!("kernel: {} instructions\n", program.len());

    let mut core = Core::new(CoreConfig::baseline(), &program);
    core.set_tap(PipeTrace::CLASSES);
    let stats = core.run(10_000);

    println!(
        "committed {} instructions in {} cycles (IPC {:.2}); \
         {} returns, {} predicted; {} wrong-path uops squashed\n",
        stats.committed,
        stats.cycles,
        stats.ipc(),
        stats.returns,
        stats.return_hits,
        stats.squashed_uops
    );

    // Fold the tapped stage marks into a chart of the last 4096 uops.
    let mut events = Vec::new();
    core.drain_tap(&mut events);
    let mut trace = PipeTrace::new(4096);
    for e in &events {
        trace.record(e);
    }
    // Find an interesting window: the first squash.
    let focus = trace
        .records()
        .find(|r| r.squashed_at.is_some())
        .map(|r| r.fetched_at.saturating_sub(4))
        .unwrap_or(0);
    println!("pipeline activity around the first misprediction:");
    println!("{}", trace.render_window(focus, 64));
    println!("stages: F fetch, D dispatch, I issue, X complete, C commit, s squashed");
    Ok(())
}
