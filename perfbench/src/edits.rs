//! The seeded edit stream of the `edit-check` workload.
//!
//! Every `<compute>` action is an edit site: the first integer literal of
//! its amount. Edit `n` rewrites one seeded site to a value no earlier
//! edit wrote, on top of all earlier edits, the way a designer keeps
//! tuning cost annotations in one session. Sites are spread over the
//! state machines, so a re-check cannot rely on the same segment
//! changing every time.

use std::ops::Range;

use tut_trace::SplitMix64;

/// Where the first integer literal of each `<compute>` action sits in
/// the text: the amount itself, or the first constant of an amount
/// expression.
fn compute_sites(text: &str) -> Vec<Range<usize>> {
    const OPEN: &str = "<compute ";
    const CLOSE: &str = "</compute>";
    const DATA: &str = "data=\"";
    let mut sites = Vec::new();
    let mut from = 0;
    while let Some(at) = text[from..].find(OPEN) {
        let start = from + at + OPEN.len();
        let end = text[start..].find(CLOSE).map_or(text.len(), |i| start + i);
        from = end;
        let Some(data) = text[start..end].find(DATA).map(|i| start + i + DATA.len()) else {
            continue;
        };
        let len = text[data..end].find('"').unwrap_or(0);
        if len > 0 && text[data..data + len].bytes().all(|b| b.is_ascii_digit()) {
            sites.push(data..data + len);
        }
    }
    sites
}

/// A deterministic stream of single-constant edits of one document.
pub struct EditStream {
    text: String,
    sites: Vec<Range<usize>>,
    rng: SplitMix64,
    next: u64,
    last_site: usize,
}

impl EditStream {
    /// Starts a stream over `base`; `None` when it has no edit site.
    pub fn new(base: &str, seed: u64) -> Option<EditStream> {
        let sites = compute_sites(base);
        if sites.is_empty() {
            return None;
        }
        Some(EditStream {
            text: base.to_owned(),
            sites,
            rng: SplitMix64::new(seed ^ 0x6564_6974),
            next: 0,
            last_site: 0,
        })
    }

    /// Number of edit sites in the document.
    #[cfg(test)]
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Site rewritten by the most recent edit.
    #[cfg(test)]
    pub fn last_site(&self) -> usize {
        self.last_site
    }

    /// Applies the next edit and returns the edited document. The value
    /// written by edit `n` is `1000 + 10n + r` with `r < 10`, so no two
    /// documents of one stream are equal.
    pub fn next_text(&mut self) -> &str {
        let site = self.rng.next_index(self.sites.len());
        let value = (1000 + 10 * self.next + self.rng.next_below(10)).to_string();
        self.next += 1;
        self.last_site = site;
        let range = self.sites[site].clone();
        let grown = value.len() as isize - range.len() as isize;
        self.text.replace_range(range.clone(), &value);
        self.sites[site] = range.start..range.start + value.len();
        for later in &mut self.sites {
            if later.start > range.start {
                *later =
                    (later.start as isize + grown) as usize..(later.end as isize + grown) as usize;
            }
        }
        &self.text
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;

    fn base() -> String {
        tut_bench::paper_system().to_xml()
    }

    #[test]
    fn fixture_has_22_sites_in_8_of_its_10_state_machines() {
        let text = base();
        let sites = compute_sites(&text);
        assert_eq!(sites.len(), 22);
        let machine_starts: Vec<usize> = text
            .match_indices("uml:StateMachine")
            .map(|(at, _)| at)
            .collect();
        assert_eq!(machine_starts.len(), 10);
        let machines: HashSet<usize> = sites
            .iter()
            .map(|s| machine_starts.iter().filter(|&&m| m < s.start).count())
            .collect();
        // The user and channel environment machines compute nothing.
        assert_eq!(machines.len(), 8);
    }

    #[test]
    fn edits_are_distinct_clean_and_cover_every_site() {
        let text = base();
        let mut stream = EditStream::new(&text, 7).expect("sites");
        let mut seen = HashSet::new();
        let mut sites = HashSet::new();
        for n in 0..200 {
            let edited = stream.next_text().to_owned();
            sites.insert(stream.last_site());
            if n % 20 == 0 {
                let report = tut_bench::check::check_source("edited.xml", &edited);
                assert!(!report.has_errors(), "{}", report.render_text());
            }
            assert!(seen.insert(edited), "edit {n} repeated an earlier document");
        }
        assert!(!seen.contains(&text));
        assert_eq!(sites.len(), stream.site_count());
    }

    #[test]
    fn edits_are_deterministic_per_seed() {
        let text = base();
        let run = |seed| {
            let mut stream = EditStream::new(&text, seed).expect("sites");
            (0..50)
                .map(|_| stream.next_text().to_owned())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
