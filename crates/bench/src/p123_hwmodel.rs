//! §5.1's hardware-model validation experiment: three programs that
//! traverse (P1) a non-contiguously allocated linked list, (P2) a linked
//! list laid out contiguously, and (P3) an array. The paper's conservative
//! model predicted P1 within 5%, over-estimated P2 by ~6× (prefetching
//! helps the real machine) and P3 by ~9× (prefetching + MLP). The more
//! the hardware behaves like the model, the more accurate BOLT is.

use crate::table_fmt::{human, outln, ratio, table};
use bolt_hw::{ConservativeModel, TestbedModel};
use bolt_trace::{InstrClass, Tracer};

const N: u64 = 4096;
const BASE: u64 = 0x10_0000;

/// P1: pointer chase over nodes scattered one-per-page (dependent loads,
/// no usable spatial pattern).
fn p1(t: &mut dyn Tracer) {
    for i in 0..N {
        // Pseudo-random page order (LCG permutation over N pages).
        let idx = (i.wrapping_mul(1664525).wrapping_add(1013904223)) % N;
        t.mem_read_dep(BASE + idx * 4096, 8);
        t.instr(InstrClass::Alu, 2);
        t.instr(InstrClass::Branch, 1);
    }
}

/// P2: pointer chase over nodes allocated back-to-back (16-byte nodes).
fn p2(t: &mut dyn Tracer) {
    for i in 0..N {
        t.mem_read_dep(BASE + i * 16, 8);
        t.instr(InstrClass::Alu, 2);
        t.instr(InstrClass::Branch, 1);
    }
}

/// P3: array sum (independent 8-byte loads).
fn p3(t: &mut dyn Tracer) {
    for i in 0..N {
        t.mem_read(BASE + i * 8, 8);
        t.instr(InstrClass::Alu, 2);
        t.instr(InstrClass::Branch, 1);
    }
}

fn run(f: fn(&mut dyn Tracer)) -> (u64, u64) {
    let mut cons = ConservativeModel::new();
    f(&mut cons);
    let mut test = TestbedModel::new();
    f(&mut test);
    (cons.cycles(), test.cycles())
}

pub(crate) fn p123(out: &mut String) {
    type Prog = fn(&mut dyn Tracer);
    let progs: [(&str, Prog, &str); 3] = [
        ("P1", p1, "non-contiguous linked list (paper: within 5%)"),
        ("P2", p2, "contiguous linked list (paper: ~6x)"),
        ("P3", p3, "array (paper: ~9x)"),
    ];
    let mut rows = Vec::new();
    let mut ratios = Vec::new();
    for (name, f, note) in progs {
        let (pred, meas) = run(f);
        ratios.push(pred as f64 / meas as f64);
        rows.push(vec![
            name.to_string(),
            human(pred),
            human(meas),
            ratio(pred, meas),
            note.to_string(),
        ]);
    }
    table(
        out,
        "P1/P2/P3 — conservative prediction vs simulated-testbed measurement",
        &[
            "program",
            "predicted cycles",
            "measured cycles",
            "ratio",
            "paper",
        ],
        &rows,
    );
    assert!(
        ratios[0] < 1.6,
        "P1 must be predicted closely, got {:.2}",
        ratios[0]
    );
    assert!(
        ratios[1] > 2.0 && ratios[1] > ratios[0] * 1.5,
        "P2 must show the prefetching gap, got {:.2}",
        ratios[1]
    );
    assert!(
        ratios[2] > ratios[1],
        "P3 (prefetch + MLP) must exceed P2: {:.2} vs {:.2}",
        ratios[2],
        ratios[1]
    );
    outln!(
        out,
        "\nThe more the hardware behaves like the model, the more accurate the bound (§5.1)."
    );
}
