//! The self-contained *bundle* file: everything needed to re-simulate a
//! schedule (graph, platform, execution matrix, the schedule itself and
//! its ε).

use ftsched_core::validate::validate;
use ftsched_core::Schedule;
use platform::{ExecutionMatrix, Instance, Platform};
use serde::{Deserialize, Serialize};
use taskgraph::Dag;

/// A serializable scheduling artifact.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Bundle {
    /// The task graph.
    pub dag: Dag,
    /// The platform (link delays).
    pub platform: Platform,
    /// The execution-time matrix.
    pub exec: ExecutionMatrix,
    /// The fault-tolerant schedule.
    pub schedule: Schedule,
    /// Which algorithm produced it (display name).
    pub algorithm: String,
}

impl Bundle {
    /// Reassembles the [`Instance`] (clones the parts).
    pub fn instance(&self) -> Instance {
        Instance::new(self.dag.clone(), self.platform.clone(), self.exec.clone())
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> serde_json::Result<String> {
        serde_json::to_string_pretty(self)
    }

    /// Deserializes from JSON. Each part checks its own invariants as it
    /// is read; this also rejects parts whose dimensions disagree, so
    /// [`Bundle::instance`] cannot panic on a loaded bundle, and a
    /// schedule that does not [`validate`] on its instance, so the
    /// simulator never replays one that names missing tasks, processors
    /// or replicas.
    pub fn from_json(s: &str) -> serde_json::Result<Bundle> {
        let Bundle {
            dag,
            platform,
            exec,
            schedule,
            algorithm,
        } = serde_json::from_str(s)?;
        let (v, m) = (dag.num_tasks(), platform.num_procs());
        let (rows, cols) = (exec.num_tasks(), exec.num_procs());
        if (rows, cols) != (v, m) {
            return Err(serde::Error::custom(format!(
                "bundle parts disagree: exec is {rows}×{cols}, \
                 but the dag has {v} tasks and the platform {m} processors"
            ))
            .into());
        }
        let inst = Instance::new(dag, platform, exec);
        validate(&inst, &schedule).map_err(|e| {
            serde::Error::custom(format!("bundle schedule does not fit its instance: {e}"))
        })?;
        let Instance {
            dag,
            platform,
            exec,
        } = inst;
        Ok(Bundle {
            dag,
            platform,
            exec,
            schedule,
            algorithm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftsched_core::{schedule, Algorithm};
    use platform::gen::{paper_instance, PaperInstanceConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bundle_round_trips() {
        let mut rng = StdRng::seed_from_u64(1);
        let inst = paper_instance(
            &mut rng,
            &PaperInstanceConfig {
                tasks_lo: 20,
                tasks_hi: 20,
                procs: 5,
                ..Default::default()
            },
        );
        let s = schedule(&inst, 1, Algorithm::Ftsa, &mut rng).unwrap();
        let b = Bundle {
            dag: inst.dag.clone(),
            platform: inst.platform.clone(),
            exec: inst.exec.clone(),
            schedule: s.clone(),
            algorithm: "FTSA".into(),
        };
        let json = b.to_json().unwrap();
        let back = Bundle::from_json(&json).unwrap();
        assert_eq!(back.schedule, s);
        assert_eq!(back.algorithm, "FTSA");
        // The reassembled instance still validates the schedule.
        validate(&back.instance(), &back.schedule).unwrap();

        // Parts that do not fit together are an error, not a panic in
        // `instance()`.
        let narrow = Bundle {
            platform: Platform::uniform_delay(4, 1.0),
            ..b.clone()
        };
        let short = Bundle {
            dag: taskgraph::DagBuilder::new().build().unwrap(),
            ..b
        };
        for bad in [narrow, short] {
            let err = Bundle::from_json(&bad.to_json().unwrap()).unwrap_err();
            assert!(err.to_string().contains("bundle parts disagree"), "{err}");
        }
    }
}
