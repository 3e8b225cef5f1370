//! Differential test of the two-thread graph reader.
//!
//! `taskgraph::io::from_json` reads a long text on two threads: a helper
//! resumes a second reader just after the first `},` past the text's
//! midpoint and reads `edges` elements from there, and the calling
//! thread takes its result only if it arrives at that boundary in the
//! same state. Whatever the guess lands on, the result must be exactly
//! `serde_json::from_str::<Dag>`'s, the one-thread read with the same
//! body: the same graph, or the same error text with its byte offset.
//! Every text here is long enough to split, except the bare empty graph.

use rand::rngs::StdRng;
use rand::SeedableRng;
use taskgraph::generators::{layered, LayeredConfig};
use taskgraph::io::{from_json, to_json};
use taskgraph::{Dag, DagBuilder};

/// Texts at least this long are split (the reader's threshold is 64 KiB).
const SPLIT_LEN: usize = 64 << 10;

/// The read's outcome as comparable text: the graph re-rendered, or the
/// error message.
fn outcome(read: serde_json::Result<Dag>) -> Result<String, String> {
    read.map(|dag| to_json(&dag).unwrap())
        .map_err(|e| e.to_string())
}

fn assert_same(text: &str, what: &str) {
    let one = outcome(serde_json::from_str::<Dag>(text));
    let two = outcome(from_json(text));
    assert_eq!(two, one, "{what}");
}

/// Where the helper resumes: just after the first `},` past the middle.
fn candidate(text: &str) -> usize {
    let mid = text.len() / 2;
    let at = text.as_bytes()[mid..]
        .windows(2)
        .position(|w| w == b"},")
        .expect("a `},` past the middle");
    mid + at + 1
}

fn graph(tasks: usize) -> Dag {
    layered(&mut StdRng::seed_from_u64(7), &LayeredConfig::paper(tasks))
}

/// The JSON text of a member's value, cut out of a rendered graph.
fn member<'a>(text: &'a str, key: &str) -> &'a str {
    let v: Vec<&str> = text.splitn(2, &format!("\"{key}\": ")).collect();
    let rest = v[1];
    // Both members are arrays ending at a line `  ]`.
    let end = rest.find("\n  ]").expect("the array's close") + 4;
    &rest[..end]
}

fn mutations(text: &str, at: usize) -> Vec<(String, String)> {
    let (head, tail) = text.split_at(at);
    let mut out = vec![
        (format!("truncated at {at}"), head.to_string()),
        (format!("`x` inserted at {at}"), format!("{head}x{tail}")),
        (format!("`\"` inserted at {at}"), format!("{head}\"{tail}")),
        (format!("`,` inserted at {at}"), format!("{head},{tail}")),
    ];
    if !tail.is_empty() {
        out.push((
            format!("byte {at} deleted"),
            format!("{head}{}", &tail[1..]),
        ));
    }
    out
}

#[test]
fn mutations_around_the_split_read_as_on_one_thread() {
    let text = to_json(&graph(2000)).unwrap();
    assert!(text.len() >= 2 * SPLIT_LEN, "{} bytes", text.len());
    let c = candidate(&text);
    let edges_key = text.find("\"edges\"").unwrap();
    // The unmutated text joins: the candidate ends an edge element.
    assert!(c > edges_key, "the candidate lies in `edges`");
    assert_eq!(&text[c - 1..c + 1], "},");
    assert!(text[c + 1..].trim_start().starts_with('{'));
    assert_same(&text, "the unmutated graph");

    let mut offsets: Vec<usize> = [-40isize, -2, -1, 0, 1, 2, 40]
        .iter()
        .map(|d| (c as isize + d) as usize)
        .collect();
    // In `nodes`, and at the end.
    assert!(text.len() / 8 < edges_key);
    offsets.extend([
        100,
        text.len() / 8,
        text.len() - 40,
        text.len() - 2,
        text.len() - 1,
    ]);
    for at in offsets {
        for (what, mutated) in mutations(&text, at) {
            assert_same(&mutated, &what);
        }
    }
}

#[test]
fn a_label_holding_the_split_is_not_an_element_boundary() {
    let mut b = DagBuilder::new();
    let a = b.add_labelled_task(1.0, "},".repeat(SPLIT_LEN));
    let c = b.add_task(2.0);
    b.add_edge(a, c, 3.0);
    let text = to_json(&b.build().unwrap()).unwrap();
    let split = candidate(&text);
    let label = text.find("},},").unwrap();
    assert!((label..label + 2 * SPLIT_LEN).contains(&split));
    assert_same(&text, "split inside a label");
    for (what, mutated) in mutations(&text, split) {
        assert_same(&mutated, &what);
    }
}

#[test]
fn reshaped_documents_read_as_on_one_thread() {
    let text = to_json(&graph(2000)).unwrap();
    let nodes = member(&text, "nodes");
    let edges = member(&text, "edges");
    let compact = serde_json::to_string(&serde_json::from_str::<Dag>(&text).unwrap()).unwrap();
    let cases = [
        // A second `edges` key holds the candidate: the first one wins.
        (
            "a second `edges` key",
            format!("{{\"nodes\": {nodes}, \"edges\": [], \"edges\": {edges}}}"),
        ),
        (
            "a second, shorter `edges` key",
            format!("{{\"nodes\": {nodes}, \"edges\": {edges}, \"edges\": []}}"),
        ),
        (
            "`edges` before `nodes`",
            format!("{{\"edges\": {edges}, \"nodes\": {nodes}}}"),
        ),
        (
            "an unknown key after `edges`",
            format!("{{\"nodes\": {nodes}, \"edges\": {edges}, \"more\": {edges}}}"),
        ),
        (
            "an unknown key holding the candidate",
            format!("{{\"nodes\": {nodes}, \"more\": {edges}, \"edges\": []}}"),
        ),
        (
            "a short unknown key after `edges`",
            format!("{{\"nodes\": {nodes}, \"edges\": {edges}, \"more\": {{\"a\": [1, 2]}}}}"),
        ),
        ("compact text", compact),
        (
            "empty `edges`",
            format!("{{\"nodes\": {nodes}, \"edges\": []}}"),
        ),
        (
            "the empty graph past the threshold",
            format!("{{\"nodes\": [], \"edges\": []{}}}", " ".repeat(SPLIT_LEN)),
        ),
    ];
    for (what, doc) in &cases {
        assert!(doc.len() >= SPLIT_LEN, "{what}");
        assert_same(doc, what);
    }
    assert_same("{\"nodes\": [], \"edges\": []}", "the empty graph");
}

#[test]
fn nesting_near_the_depth_guard_around_the_split() {
    let text = to_json(&graph(2000)).unwrap();
    let c = candidate(&text);
    // The element before the candidate and the one after it each get an
    // unknown member nested `levels` deep inside the element's object,
    // itself at depth 3: the guard opens no container past depth 129, so
    // 126 levels read and 127 fail.
    let before = text[..c].rfind('{').unwrap() + 1;
    let after = c + text[c..].find('{').unwrap() + 1;
    for levels in [124, 125, 126, 127] {
        let deep = format!("\"deep\": {}{}, ", "[".repeat(levels), "]".repeat(levels));
        for at in [before, after] {
            let doc = format!("{}{deep}{}", &text[..at], &text[at..]);
            let what = format!("{levels} levels at byte {at}");
            let one = outcome(serde_json::from_str::<Dag>(&doc));
            assert_eq!(
                one.is_err(),
                levels > 126,
                "{what}: {:?}",
                one.as_ref().err()
            );
            assert_same(&doc, &what);
        }
    }
}
