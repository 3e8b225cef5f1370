//! Regression suite for the typed campaign error surface.
//!
//! Every test here pins a spot that used to `panic!`/`expect` inside the
//! executor. The contract since the panic-proofing pass: a spec that
//! passes [`CampaignSpec::validate`] can never hit these paths, and a
//! direct library caller that bypasses validation gets a typed
//! [`CampaignError`] instead of a process abort. The serve front door
//! relies on this — a malformed request must produce a 4xx, never a
//! worker panic.

use experiments::campaign::{
    evaluate_any_cell_into, evaluate_stream_cell_into, run_campaign_with_threads, ArrivalSpec,
    CampaignError, CampaignSpec, CellContext, CellPlan, LayeredRange, MeasurePlan, PlatformSpec,
    Seeding, TaskCount, WorkloadSpec,
};
use ftsched_core::Algorithm;
use platform::granularity::GranularityError;
use platform::{FailureModel, UniformFailures};
use simulator::streaming::{ArrivalProcess, PoissonArrivals};

/// A minimal offline spec that passes validation.
fn valid_spec() -> CampaignSpec {
    CampaignSpec {
        id: "errs".into(),
        workloads: vec![WorkloadSpec::PaperLayered(LayeredRange {
            tasks_lo: 15,
            tasks_hi: 20,
        })],
        platforms: vec![PlatformSpec::paper(5, 0.8)],
        epsilons: vec![1],
        algorithms: vec![Algorithm::Ftsa],
        extra_algorithms: vec![],
        repetitions: 2,
        seed: 11,
        seeding: Seeding::Indexed,
        arrivals: None,
        measures: MeasurePlan::default(),
    }
}

/// The same spec with an ε no 5-processor platform can serve. It fails
/// `validate()`; the tests below feed it to the executor entry points
/// directly, the way a buggy caller (or a pre-hardening serve handler)
/// would have.
fn unschedulable_spec() -> CampaignSpec {
    let mut spec = valid_spec();
    spec.epsilons = vec![10];
    assert!(spec.validate().is_err(), "spec must bypass validation");
    spec
}

#[test]
fn schedule_failure_is_a_typed_error() {
    // Former panic site: the `panic!("{e}")` on a scheduler failure in
    // `evaluate_cell_into` (campaign executor phase 1).
    let spec = unschedulable_spec();
    let plan = CellPlan::new(&spec);
    let mut ctx = CellContext::new();
    let mut out = Vec::new();
    let err = evaluate_any_cell_into(&spec, &plan, 0, &mut ctx, &mut out)
        .expect_err("ε = 10 on 5 processors cannot schedule");
    match &err {
        CampaignError::Schedule {
            campaign,
            algorithm,
            epsilon,
            procs,
            ..
        } => {
            assert_eq!(campaign, "errs");
            assert_eq!(*algorithm, Algorithm::Ftsa.name());
            assert_eq!(*epsilon, 10);
            assert_eq!(*procs, 5);
        }
        other => panic!("expected Schedule error, got {other}"),
    }
    // The error chain keeps the scheduler's own diagnosis.
    assert!(std::error::Error::source(&err).is_some());
    assert!(err.to_string().contains("eps 10"), "{err}");
}

#[test]
fn stream_schedule_failure_is_a_typed_error() {
    // Former panic site: the `unwrap_or_else(|e| panic!(..))` around
    // `run_stream_into` in `evaluate_stream_cell_into`.
    let mut spec = unschedulable_spec();
    spec.measures = MeasurePlan {
        bounds: false,
        normalize: false,
        ..Default::default()
    };
    spec.arrivals = Some(ArrivalSpec {
        process: ArrivalProcess::Poisson(PoissonArrivals {
            rate: 0.01,
            count: 3,
        }),
        deadline_stretch: 3.0,
        failures: FailureModel::Uniform(UniformFailures { crashes: 0 }),
    });
    let plan = CellPlan::new(&spec);
    let mut ctx = CellContext::new();
    let mut out = Vec::new();
    let err = evaluate_any_cell_into(&spec, &plan, 0, &mut ctx, &mut out)
        .expect_err("streamed ε = 10 on 5 processors cannot schedule");
    match &err {
        CampaignError::Stream {
            campaign,
            epsilon,
            procs,
            ..
        } => {
            assert_eq!(campaign, "errs");
            assert_eq!(*epsilon, 10);
            assert_eq!(*procs, 5);
        }
        other => panic!("expected Stream error, got {other}"),
    }
    assert!(err.to_string().contains("stream"), "{err}");
}

#[test]
fn missing_arrivals_is_a_typed_error() {
    // Former panic site: the `.expect("stream cells need an arrival
    // spec")` at the top of `evaluate_stream_cell_into`.
    let spec = valid_spec();
    let plan = CellPlan::new(&spec);
    let mut ctx = CellContext::new();
    let mut out = Vec::new();
    let err = evaluate_stream_cell_into(&spec, &plan, &spec.coord(0), &mut ctx, &mut out)
        .expect_err("offline spec has no arrivals");
    assert!(
        matches!(&err, CampaignError::MissingArrivals { campaign } if campaign == "errs"),
        "expected MissingArrivals, got {err}"
    );
}

#[test]
fn run_campaign_validates_up_front() {
    // The engine front door re-checks the spec, so the executor paths
    // above are structurally unreachable through it.
    let err = run_campaign_with_threads(&unschedulable_spec(), 1)
        .expect_err("invalid spec must be rejected before any cell runs");
    assert!(
        matches!(err, CampaignError::InvalidSpec(_)),
        "expected InvalidSpec, got {err}"
    );
    assert!(err.to_string().contains("processors"), "{err}");
}

#[test]
fn validate_rejects_every_panic_feeding_shape() {
    // Workload hardening: shapes whose generators would abort mid-grid.
    let mut inverted = valid_spec();
    inverted.workloads = vec![WorkloadSpec::PaperLayered(LayeredRange {
        tasks_lo: 30,
        tasks_hi: 20,
    })];
    assert!(inverted.validate().unwrap_err().contains("exceeds"));

    let mut zero = valid_spec();
    zero.workloads = vec![WorkloadSpec::Layered(TaskCount { tasks: 0 })];
    assert!(zero.validate().unwrap_err().contains("at least one task"));

    let mut zero_lo = valid_spec();
    zero_lo.workloads = vec![WorkloadSpec::PaperLayered(LayeredRange {
        tasks_lo: 0,
        tasks_hi: 5,
    })];
    assert!(zero_lo.validate().is_err());

    // Platform hardening: non-finite or out-of-range axis values (a
    // heterogeneity of 1 or more would draw a time factor of 0 or less).
    for patch in [
        (|p: &mut PlatformSpec| p.granularity = f64::NAN) as fn(&mut PlatformSpec),
        |p| p.ccr = f64::INFINITY,
        |p| p.heterogeneity = f64::NAN,
        |p| p.heterogeneity = -1.0,
        |p| p.heterogeneity = 1.0,
    ] {
        let mut bad = valid_spec();
        patch(&mut bad.platforms[0]);
        assert!(
            bad.validate().is_err(),
            "non-finite or out-of-range platform field must be rejected"
        );
    }
}

#[test]
fn validate_rejects_repetitions_the_seeding_ignores() {
    // PaperTable and PaperReliability cells do not vary by repetition, so
    // a second repetition would only redo identical work.
    for seeding in [Seeding::PaperTable, Seeding::PaperReliability] {
        let mut spec = valid_spec();
        spec.seeding = seeding;
        let err = spec.validate().unwrap_err();
        assert!(err.contains("ignores the repetition index"), "{err}");
        assert!(err.contains(&format!("{seeding:?}")), "{err}");
        spec.repetitions = 1;
        spec.validate().unwrap();
    }
}

#[test]
fn granularity_that_cannot_be_applied_is_a_typed_error() {
    // Former panic sites: the assertions in `scale_to_granularity` and
    // `ExecutionMatrix::scale`, reached by specs that passed `validate`.
    // What the spec shows is rejected up front: a ccr whose granularity
    // is infinite, and a granularity on a point without links.
    let mut tiny_ccr = valid_spec();
    tiny_ccr.platforms[0].ccr = 1e-320;
    let mut one_proc = valid_spec();
    one_proc.platforms[0].procs = 1;
    one_proc.epsilons = vec![0];
    for (spec, expected) in [(tiny_ccr, "not finite"), (one_proc, "no links")] {
        let err = run_campaign_with_threads(&spec, 2).expect_err("rejected up front");
        assert!(
            matches!(&err, CampaignError::InvalidSpec(msg) if msg.contains(expected)),
            "expected InvalidSpec naming `{expected}`, got {err}"
        );
    }

    // What depends on the drawn instance comes back from the cell: a
    // granularity the drawn times cannot reach, and one-task graphs,
    // which have no edges to carry a granularity.
    let mut huge = valid_spec();
    huge.platforms[0].granularity = 1e308;
    let mut edgeless = valid_spec();
    edgeless.workloads = vec![WorkloadSpec::Layered(TaskCount { tasks: 1 })];
    for (spec, label, g, source) in [
        (
            huge,
            "paper-layered[15..20]",
            1e308,
            GranularityError::OutOfRange { target: 1e308 },
        ),
        (
            edgeless,
            "layered[1]",
            0.8,
            GranularityError::NoCommunication,
        ),
    ] {
        spec.validate().expect("passes validation");
        let err = run_campaign_with_threads(&spec, 2).expect_err("the cell cannot rescale");
        assert_eq!(
            err,
            CampaignError::Granularity {
                campaign: "errs".into(),
                workload: label.into(),
                platform: 0,
                granularity: g,
                source,
            }
        );
        assert!(err.to_string().contains("cannot take granularity"), "{err}");
        assert!(std::error::Error::source(&err).is_some());
    }

    // Stream cells draw their instances the same way.
    let mut stream = valid_spec();
    stream.workloads = vec![WorkloadSpec::Layered(TaskCount { tasks: 1 })];
    stream.repetitions = 1;
    stream.measures = MeasurePlan {
        bounds: false,
        normalize: false,
        ..Default::default()
    };
    stream.arrivals = Some(ArrivalSpec {
        process: ArrivalProcess::Poisson(PoissonArrivals {
            rate: 0.01,
            count: 2,
        }),
        deadline_stretch: 3.0,
        failures: FailureModel::Uniform(UniformFailures { crashes: 0 }),
    });
    let err = run_campaign_with_threads(&stream, 1).expect_err("edgeless stream");
    assert!(
        matches!(
            &err,
            CampaignError::Granularity {
                source: GranularityError::NoCommunication,
                ..
            }
        ),
        "expected Granularity, got {err}"
    );
}
