//! Proves the executor's steady-state loop is allocation-free.
//!
//! A counting global allocator is armed around two runs of the same warm
//! accelerator — one short program and one many times longer, covering
//! every execution mode. Per-run bookkeeping (the `RunReport` config
//! fingerprint) may allocate a constant amount, but the per-instruction
//! count must be exactly zero, so both runs must allocate the same number
//! of times.

use pudiannao_accel::isa::{
    AluOp, BufferRead, CounterOp, FuOps, Instruction, MiscOp, OutputSlot, Program, ReadOp, WriteOp,
};
use pudiannao_accel::{Accelerator, ArchConfig, Dram};
use pudiannao_softfp::NonLinearFn;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let out = f();
    ARMED.store(false, Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst))
}

/// One block of instructions exercising every mode the executor supports.
fn mode_mix() -> Vec<Instruction> {
    let seeded_out = |read_addr: u64, stride: u32, iter: u32, store: u64| OutputSlot {
        read_op: ReadOp::Load,
        read_dram_addr: read_addr,
        addr: 0,
        stride,
        iter,
        write_op: WriteOp::Store,
        write_dram_addr: store,
    };
    vec![
        // Distance with the k-sorter (kNN/k-Means). Distance and dot
        // instructions reduce more than 8 rows, so the groups of adder
        // trees include a partial one.
        Instruction {
            name: "knn".into(),
            hot: BufferRead::load(0, 0, 16, 12),
            cold: BufferRead::load(1000, 0, 16, 2),
            out: OutputSlot::store(2000, 6, 2),
            fu: FuOps::distance(Some(3)),
            hot_row_base: 0,
        },
        // Plain distance through the interpolation unit (RBF kernel).
        Instruction {
            name: "rbf".into(),
            hot: BufferRead::load(0, 0, 16, 9),
            cold: BufferRead::load(1000, 0, 16, 2),
            out: OutputSlot::store(2100, 9, 2),
            fu: {
                let mut ops = FuOps::distance(None);
                ops.misc = MiscOp::Interp(NonLinearFn::ExpNeg);
                ops
            },
            hot_row_base: 0,
        },
        // Broadcast dot with sigmoid (LR predict).
        Instruction {
            name: "lr".into(),
            hot: BufferRead::load(0, 0, 16, 1),
            cold: BufferRead::load(1000, 0, 16, 11),
            out: OutputSlot::store(2200, 1, 11),
            fu: FuOps::dot_broadcast(Some(NonLinearFn::Sigmoid)),
            hot_row_base: 0,
        },
        // Pairwise dot (SVM kernel matrix, batched layers).
        Instruction {
            name: "pairwise".into(),
            hot: BufferRead::load(0, 0, 16, 10),
            cold: BufferRead::load(1000, 0, 16, 2),
            out: OutputSlot::store(2700, 10, 2),
            fu: FuOps::dot_broadcast(None),
            hot_row_base: 0,
        },
        // Counting (NB training).
        Instruction {
            name: "nb".into(),
            hot: BufferRead::load(0, 0, 16, 2),
            cold: BufferRead::load(1000, 0, 16, 2),
            out: OutputSlot::store(2300, 16, 2),
            fu: FuOps::count(CounterOp::CountEq),
            hot_row_base: 0,
        },
        // Weighted column sum (gradient accumulation).
        Instruction {
            name: "wsum".into(),
            hot: BufferRead::load(0, 0, 2, 1),
            cold: BufferRead::load(1000, 0, 16, 2),
            out: OutputSlot::store(2400, 16, 1),
            fu: FuOps::weighted_sum(),
            hot_row_base: 0,
        },
        // Product reduction (NB predict).
        Instruction {
            name: "prod".into(),
            hot: BufferRead::null(),
            cold: BufferRead::load(1000, 0, 16, 2),
            out: OutputSlot::store(2500, 1, 2),
            fu: FuOps::product_reduce(),
            hot_row_base: 0,
        },
        // Seeded elementwise division (k-Means centroid update).
        Instruction {
            name: "div".into(),
            hot: BufferRead::null(),
            cold: BufferRead::load(1000, 0, 16, 1),
            out: seeded_out(0, 16, 1, 2600),
            fu: FuOps::alu_only(AluOp::Div),
            hot_row_base: 0,
        },
        // Tree step (DT inference).
        Instruction {
            name: "tree".into(),
            hot: BufferRead::load(3000, 0, 4, 3),
            cold: BufferRead::load(1000, 0, 16, 2),
            out: seeded_out(3100, 1, 2, 3100),
            fu: FuOps::alu_only(AluOp::TreeStep),
            hot_row_base: 0,
        },
    ]
}

fn program_of(blocks: usize) -> Program {
    let insts: Vec<Instruction> = (0..blocks).flat_map(|_| mode_mix()).collect();
    Program::new(insts).unwrap()
}

fn seeded_dram() -> Dram {
    let mut dram = Dram::new(1 << 16);
    for i in 0..256u64 {
        dram.write_f32(i * 4, &[(i % 7) as f32, 0.5, (i % 3) as f32, 1.5]);
    }
    // Decision-tree nodes: a split and two leaves.
    dram.write_f32(3000, &[0.0, 0.5, 1.0, 2.0]);
    dram.write_f32(3004, &[-1.0, 7.0, 0.0, 0.0]);
    dram.write_f32(3008, &[-1.0, 9.0, 0.0, 0.0]);
    dram.write_f32(3100, &[0.0, 0.0]);
    dram
}

#[test]
fn steady_state_run_does_not_allocate_per_instruction() {
    let short = program_of(1);
    let long = program_of(50);
    let mut dram = seeded_dram();
    let mut accel = Accelerator::new(ArchConfig::paper_default()).unwrap();

    // Warm-up: grows the scratch arena and builds the interp tables.
    accel.run(&long, &mut dram).unwrap();

    let (r_short, allocs_short) = counted(|| accel.run(&short, &mut dram));
    r_short.unwrap();
    let (r_long, allocs_long) = counted(|| accel.run(&long, &mut dram));
    r_long.unwrap();

    assert_eq!(
        allocs_long,
        allocs_short,
        "a {}-instruction run allocated {} times vs {} for {} instructions: \
         the instruction loop is allocating",
        long.len(),
        allocs_long,
        allocs_short,
        short.len(),
    );
}
