//! The Omniscient lineup of `bomblab study --tools omniscient` (data-flow
//! hints and the shared model store armed) must reproduce the labels
//! pinned in `layerbench/omniscient_labels.txt`, and every input it
//! solves must detonate the bomb under a fresh VM run. The three slowest
//! bombs (PRNG and crypto) are not in the label file.

use bomblab::bombs::all_cases;
use bomblab::prelude::*;

/// `<bomb> <label>` lines; `#` starts a comment.
const OMNISCIENT_LABELS: &str = include_str!("../layerbench/omniscient_labels.txt");

fn pinned_labels() -> Vec<(&'static str, Outcome)> {
    OMNISCIENT_LABELS
        .lines()
        .map(|line| line.split('#').next().unwrap_or_default().trim())
        .filter(|line| !line.is_empty())
        .map(|line| {
            let (bomb, glyph) = line
                .split_once(char::is_whitespace)
                .unwrap_or_else(|| panic!("label file: bad line `{line}`"));
            let label = Outcome::from_glyph(glyph.trim())
                .unwrap_or_else(|| panic!("label file: bad label in `{line}`"));
            (bomb, label)
        })
        .collect()
}

#[test]
fn omniscient_lineup_reproduces_the_pinned_labels() {
    let pinned = pinned_labels();
    assert_eq!(pinned.len(), 19, "the omniscient_sweep bombs");
    let cases: Vec<StudyCase> = all_cases()
        .into_iter()
        .filter(|c| pinned.iter().any(|(bomb, _)| *bomb == c.subject.name))
        .collect();
    assert_eq!(
        cases.len(),
        pinned.len(),
        "every pinned bomb is in the dataset"
    );

    let omniscient = ToolProfile::omniscient();
    let report = run_study_with(
        &cases,
        std::slice::from_ref(&omniscient),
        &StudyOptions::default(),
    );
    for (row, case) in report.rows.iter().zip(&cases) {
        let name = case.subject.name.as_str();
        let cell = &row.cells[0];
        let want = pinned
            .iter()
            .find(|(bomb, _)| *bomb == name)
            .map(|&(_, label)| label);
        assert_eq!(Some(cell.outcome), want, "{name}: label moved");
        if cell.outcome == Outcome::Solved {
            let input = cell
                .attempt
                .solved_input
                .as_ref()
                .unwrap_or_else(|| panic!("{name}: solved without an input"));
            assert!(
                case.subject.detonates(input, omniscient.step_budget),
                "{name}: solved input does not detonate"
            );
        }
    }
}
