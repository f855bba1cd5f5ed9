//! The output checks every workload runs. Each returns `Err` with a
//! one-line reason when an output is wrong; the run counts it as failed.

use embeddings::optim::Cost;
use embeddings::plan::Plan;
use topology::Grid;

/// A `MAP` answer must be one of the images the library gives for the node:
/// the closed-form image, or the refined one for pairs that get refined.
pub fn check_map(answer: u64, allowed: &[u64]) -> Result<(), String> {
    if allowed.contains(&answer) {
        Ok(())
    } else {
        Err(format!(
            "MAP answered {answer}, expected one of {allowed:?}"
        ))
    }
}

/// A `PLAN` text must parse, name the requested pair and rebuild into a live
/// embedding.
pub fn check_plan_text(text: &str, guest: &Grid, host: &Grid) -> Result<(), String> {
    let plan = Plan::parse(text).map_err(|e| format!("PLAN text does not parse: {e}"))?;
    if plan.guest() != guest || plan.host() != host {
        return Err(format!(
            "PLAN text names {} -> {}, expected {guest} -> {host}",
            plan.guest(),
            plan.host()
        ));
    }
    plan.to_embedding()
        .map(|_| ())
        .map_err(|e| format!("PLAN text does not rebuild: {e}"))
}

/// A walk's reported best cost must equal an independent re-measure of the
/// table it returned.
pub fn check_cost(walk: &str, reported: Cost, remeasured: Cost) -> Result<(), String> {
    if reported == remeasured {
        Ok(())
    } else {
        Err(format!(
            "{walk}: walk reported {reported:?}, the returned table measures {remeasured:?}"
        ))
    }
}

/// The rendered report must equal the checked-in one byte for byte.
pub fn check_report(rendered: &str, checked_in: &str) -> Result<(), String> {
    if rendered == checked_in {
        return Ok(());
    }
    let line = checked_in
        .lines()
        .zip(rendered.lines())
        .position(|(a, b)| a != b)
        .map_or_else(
            || checked_in.lines().count().min(rendered.lines().count()) + 1,
            |i| i + 1,
        );
    Err(format!(
        "rendered EXPERIMENTS.md differs from the checked-in file at line {line}"
    ))
}

/// A sweep must have no bound violation and the expected record count.
pub fn check_sweep(records: usize, expected: usize, violations: usize) -> Result<(), String> {
    if violations > 0 {
        return Err(format!("{violations} trials violate a bound"));
    }
    if records != expected {
        return Err(format!(
            "sweep produced {records} records, expected {expected}"
        ));
    }
    Ok(())
}

/// A measured embedding must be injective with dilation within the
/// planner's prediction.
pub fn check_measurement(
    injective: bool,
    invalid_images: u64,
    dilation: u64,
    predicted: u64,
) -> Result<(), String> {
    if !injective || invalid_images > 0 {
        return Err(format!(
            "embedding is not injective ({invalid_images} invalid images)"
        ));
    }
    if dilation > predicted {
        return Err(format!(
            "measured dilation {dilation} exceeds the predicted {predicted}"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use embeddings::auto::embed;
    use embeddings::optim::parallel::{optimize_sharded, ShardStrategy, ShardedConfig};
    use embeddings::optim::{CongestionObjective, OptimizerConfig};
    use topology::Shape;

    fn pair() -> (Grid, Grid) {
        (
            Grid::torus(Shape::new(vec![4, 4]).unwrap()),
            Grid::mesh(Shape::new(vec![4, 4]).unwrap()),
        )
    }

    #[test]
    fn flipped_map_answer_trips() {
        let (guest, host) = pair();
        let embedding = embed(&guest, &host).unwrap();
        let image = embedding.map_index(5);
        assert!(check_map(image, &[image]).is_ok());
        assert!(check_map(image ^ 1, &[image]).is_err());
    }

    #[test]
    fn off_by_one_cost_trips() {
        let (guest, host) = pair();
        let embedding = embed(&guest, &host).unwrap();
        let config = ShardedConfig {
            base: OptimizerConfig {
                seed: 3,
                steps: 300,
                ..OptimizerConfig::default()
            },
            shards: 2,
            strategy: ShardStrategy::Portfolio,
            workers: 1,
        };
        let outcome = optimize_sharded(
            &embedding,
            || CongestionObjective::new(&guest, &host),
            &config,
        )
        .unwrap();
        let inputs = crate::anneal::WalkInputs::congestion(&guest, &host);
        let remeasured = inputs.remeasure(&outcome.outcome.table, 0);
        let reported = outcome.outcome.report.best;
        assert!(check_cost("congestion", reported, remeasured).is_ok());
        let off = Cost {
            primary: reported.primary + 1,
            ..reported
        };
        assert!(check_cost("congestion", off, remeasured).is_err());
    }

    #[test]
    fn unparsable_plan_text_trips() {
        let (guest, host) = pair();
        let text = Plan::closed_form(&guest, &host).unwrap().to_text();
        assert!(check_plan_text(&text, &guest, &host).is_ok());
        assert!(check_plan_text(&text.replace("guest", "gues t"), &guest, &host).is_err());
        assert!(check_plan_text("not a plan", &guest, &host).is_err());
    }

    #[test]
    fn report_with_one_changed_cell_trips() {
        let checked_in = "| a | b |\n|---|---|\n| 1 | 2 |\n";
        assert!(check_report(checked_in, checked_in).is_ok());
        let changed = checked_in.replace("| 2 |", "| 3 |");
        assert_eq!(
            check_report(&changed, checked_in).unwrap_err(),
            "rendered EXPERIMENTS.md differs from the checked-in file at line 3"
        );
    }

    #[test]
    fn checked_in_report_with_one_changed_cell_trips() {
        let checked_in =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../EXPERIMENTS.md"))
                .expect("EXPERIMENTS.md is part of the repository");
        let cell = checked_in
            .find("| ok")
            .expect("the report has check-mark cells");
        let mut changed = checked_in.clone();
        changed.replace_range(cell..cell + 4, "| no");
        assert!(check_report(&changed, &checked_in).is_err());
    }

    #[test]
    fn sweep_and_measurement_checks_trip() {
        assert!(check_sweep(453, 453, 0).is_ok());
        assert!(check_sweep(453, 453, 1).is_err());
        assert!(check_sweep(452, 453, 0).is_err());
        assert!(check_measurement(true, 0, 2, 2).is_ok());
        assert!(check_measurement(false, 0, 2, 2).is_err());
        assert!(check_measurement(true, 0, 3, 2).is_err());
    }
}
