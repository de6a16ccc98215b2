//! E6 — anonymization quality vs k (EXPERIMENTS.md, Table E6).
//!
//! Paper claim (§2): safe sharing via pseudonymization/anonymization rather
//! than not sharing at all. Mondrian k-anonymity over census
//! quasi-identifiers: privacy (risk, diversity) vs utility (information
//! loss) as k grows.

use fact_confidentiality::kanon::{max_t_distance, min_l_diversity, mondrian_k_anonymize};
use fact_confidentiality::risk::{reidentification_risk, schema_risk};
use fact_data::synth::census::{generate_census, CensusConfig};

fn main() {
    bench::kit::Mode::from_args();
    let census = generate_census(&CensusConfig {
        n: 10_000,
        seed: 6,
        ..CensusConfig::default()
    });
    let qis = ["age", "sex", "zipcode"];
    let raw = schema_risk(&census).unwrap();
    println!("E6: Mondrian k-anonymity on census microdata (n=10k, QIs: age/sex/zipcode)");
    println!(
        "raw data: unique {:.1}%, prosecutor risk {:.3}, {} QI classes\n",
        100.0 * raw.unique_fraction,
        raw.prosecutor_risk,
        raw.n_classes
    );
    println!(
        "{:>5} {:>9} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8}",
        "k", "classes", "min class", "avg class", "info loss", "risk", "l-div", "t-dist"
    );
    println!("{}", "-".repeat(76));
    for k in [2usize, 5, 10, 25, 50, 100] {
        let anon = mondrian_k_anonymize(&census, &qis, k).unwrap();
        let risk = reidentification_risk(&anon.data, &qis).unwrap();
        println!(
            "{k:>5} {:>9} {:>10} {:>10.1} {:>10.3} {:>8.3} {:>8} {:>8.3}",
            anon.n_classes,
            anon.min_class_size(),
            anon.mean_class_size(),
            anon.information_loss,
            risk.prosecutor_risk,
            min_l_diversity(&anon, "diagnosis").unwrap(),
            max_t_distance(&anon, "diagnosis").unwrap(),
        );
    }
    println!(
        "\nExpected shape: prosecutor risk ≤ 1/k (monotone down), information loss\n\
         monotone up, l-diversity and t-closeness improve with class size — the\n\
         privacy/utility dial the paper's Q3 asks for."
    );
}
