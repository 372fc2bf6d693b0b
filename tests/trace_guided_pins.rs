//! Pins for `logical/trace-guided`: reduced size, predicate calls and
//! probe-trace digest on both frontends at the three `session_matrix`
//! seeds (7, 8, 11), recorded before the strategy's GBR pass moved onto
//! the shared `gbr_loop`.
//!
//! Every pin must also hold under the scan-based propagation baseline:
//! it is a pure speed choice, so the reduced bytes, call counts and
//! traces stay bit-identical to the default configuration.

use lbr::core::{Input, InputOracle, PropagationMode};
use lbr::decompiler::{BugSet, DecompilerOracle};
use lbr::jreduce::{check_report, ReductionReport, ReductionSession, RunOptions};
use lbr::workload::{generate, generate_stack, StackWorkloadConfig, WorkloadConfig};
use lbr_stackvm::{StackBugSet, StackOracle};

/// One pinned trace-guided run.
struct Pin {
    seed: u64,
    /// Final (units, bytes).
    fin: (usize, usize),
    calls: u64,
    trace_digest: u64,
}

const CLASSFILE_PINS: [Pin; 3] = [
    Pin {
        seed: 7,
        fin: (11, 3764),
        calls: 68,
        trace_digest: 0x4b5f_42a1_94f4_b608,
    },
    Pin {
        seed: 8,
        fin: (11, 2701),
        calls: 52,
        trace_digest: 0x8dc5_b4ed_3575_8f58,
    },
    Pin {
        seed: 11,
        fin: (11, 2474),
        calls: 40,
        trace_digest: 0xeead_e30f_8f49_ac37,
    },
];

const STACKVM_PINS: [Pin; 3] = [
    Pin {
        seed: 7,
        fin: (16, 771),
        calls: 41,
        trace_digest: 0xceba_430c_3fa3_bb9d,
    },
    Pin {
        seed: 8,
        fin: (19, 916),
        calls: 45,
        trace_digest: 0x6ec3_b3b4_7aba_b9c2,
    },
    Pin {
        seed: 11,
        fin: (19, 905),
        calls: 50,
        trace_digest: 0xce3a_0f69_1ac6_42b6,
    },
];

/// The configurations every pin must hold under.
fn configurations() -> [(&'static str, RunOptions); 2] {
    [
        ("default", RunOptions::default()),
        (
            "legacy-scan",
            RunOptions {
                propagation: PropagationMode::LegacyScan,
                ..RunOptions::default()
            },
        ),
    ]
}

fn run<I: Input, O: InputOracle<I>>(
    input: &I,
    oracle: &O,
    options: RunOptions,
) -> ReductionReport<I> {
    let report = ReductionSession::new(input, oracle)
        .strategy("logical/trace-guided")
        .cost_per_call(33.0)
        .options(options)
        .run()
        .expect("trace-guided run");
    check_report(&report).expect("trace-guided output is sound");
    report
}

fn assert_pinned<I: Input, O: InputOracle<I>>(pin: &Pin, input: &I, oracle: &O) {
    let mut reference: Option<Vec<u8>> = None;
    for (tag, options) in configurations() {
        let report = run(input, oracle, options);
        let what = format!("{} seed {} {tag}", I::FORMAT, pin.seed);
        assert_eq!(
            (report.final_metrics.classes, report.final_metrics.bytes),
            pin.fin,
            "{what}: final size"
        );
        assert_eq!(report.predicate_calls, pin.calls, "{what}: predicate calls");
        assert_eq!(
            report.trace.digest(),
            pin.trace_digest,
            "{what}: trace digest"
        );
        let bytes = report.reduced.to_bytes();
        match &reference {
            None => reference = Some(bytes),
            Some(r) => assert_eq!(&bytes, r, "{what}: reduced bytes diverge from default"),
        }
    }
}

#[test]
fn classfile_trace_guided_matches_its_pins_under_every_engine() {
    for pin in &CLASSFILE_PINS {
        let program = generate(&WorkloadConfig {
            seed: pin.seed,
            plant: BugSet::decompiler_a().kinds().to_vec(),
            ..WorkloadConfig::default()
        });
        let oracle = DecompilerOracle::new(&program, BugSet::decompiler_a());
        assert_pinned(pin, &program, &oracle);
    }
}

#[test]
fn stackvm_trace_guided_matches_its_pins_under_every_engine() {
    for pin in &STACKVM_PINS {
        let module = generate_stack(&StackWorkloadConfig {
            seed: pin.seed,
            plant: StackBugSet::lowering_a().kinds().to_vec(),
            ..StackWorkloadConfig::default()
        });
        let oracle = StackOracle::new(&module, StackBugSet::lowering_a());
        assert_pinned(pin, &module, &oracle);
    }
}
