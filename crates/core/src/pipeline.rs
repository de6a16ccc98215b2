//! The guarded pipeline: a data-science pipeline that cannot skip its FACT
//! guards.
//!
//! Design decisions, mapped to the paper:
//!
//! * **Guards record, budget blocks.** Fairness/accuracy/transparency guards
//!   record pass/fail checks rather than aborting — certification (§3's
//!   "green") is the enforcement point, and an honest audit trail of
//!   failures is itself a transparency requirement. The privacy budget is
//!   the exception: an exhausted budget *hard-fails* the release, because a
//!   leak cannot be remediated retroactively.
//! * **Honest evaluation is structural.** [`GuardedPipeline::train`] splits
//!   off a held-out test set internally; training-set accuracy is never
//!   reported (Q2: no guesswork).
//! * **Everything is attributed.** Every stage appends to the provenance
//!   DAG and the hash-chained audit log (Q4: steps and actors).

use std::collections::HashMap;

use fact_accuracy::adequacy::check_group_sizes;
use fact_confidentiality::mechanisms::{dp_count, dp_histogram, dp_mean};
use fact_confidentiality::risk::reidentification_risk;
use fact_confidentiality::PrivacyAccountant;
use fact_data::column::check_codes;
use fact_data::split::train_test_split;
use fact_data::{Dataset, FactError, Matrix, Result};
use fact_fairness::intersectional::{intersectional_audit, IntersectionalReport};
use fact_fairness::protected_mask;
use fact_fairness::proxy::scan_proxies;
use fact_fairness::report::{FairnessReport, FairnessThresholds};
use fact_ml::metrics::accuracy;
use fact_ml::Classifier;
use fact_transparency::counterfactual::{find_counterfactual, Counterfactual};
use fact_transparency::explanation::explain_decision;
use fact_transparency::modelcard::ModelCard;
use fact_transparency::provenance::NodeId;
use fact_transparency::surrogate::SurrogateExplainer;
use fact_transparency::{AuditLog, ProvenanceGraph};

use crate::policy::FactPolicy;
use crate::report::{FactReport, GuardCheck, Pillar};

struct ModelState {
    node: NodeId,
    model: Box<dyn Classifier>,
    feature_names: Vec<String>,
    x_train: Matrix,
    x_test: Matrix,
    y_test: Vec<bool>,
    test_data: Dataset,
    card: ModelCard,
}

/// A FACT-guarded data-science pipeline.
pub struct GuardedPipeline {
    policy: FactPolicy,
    provenance: ProvenanceGraph,
    audit: AuditLog,
    accountant: Option<PrivacyAccountant>,
    data: Option<(NodeId, Dataset)>,
    model: Option<ModelState>,
    checks: Vec<GuardCheck>,
}

impl GuardedPipeline {
    /// Create a pipeline governed by `policy`.
    pub fn new(policy: FactPolicy) -> Result<Self> {
        let accountant = match &policy.confidentiality {
            Some(c) => Some(PrivacyAccountant::new(c.epsilon_budget, c.delta_budget)?),
            None => None,
        };
        Ok(GuardedPipeline {
            policy,
            provenance: ProvenanceGraph::new(),
            audit: AuditLog::new(),
            accountant,
            data: None,
            model: None,
            checks: Vec::new(),
        })
    }

    fn check(&mut self, pillar: Pillar, name: &str, passed: bool, detail: String) {
        self.audit.append(
            "pipeline",
            format!("guard:{}", name),
            format!("{} — {detail}", if passed { "pass" } else { "FAIL" }),
        );
        self.checks.push(GuardCheck {
            pillar,
            name: name.to_string(),
            passed,
            detail,
        });
    }

    /// Load the working dataset. Runs load-time guards: protected-group
    /// adequacy (accuracy pillar) and re-identification risk (confidentiality
    /// pillar, when quasi-identifiers are declared in the schema).
    pub fn load_data(&mut self, name: &str, actor: &str, ds: Dataset) -> Result<&mut Self> {
        let mut attrs = HashMap::new();
        attrs.insert("rows".to_string(), ds.n_rows().to_string());
        attrs.insert("cols".to_string(), ds.n_cols().to_string());
        let node = self.provenance.add_entity(name, actor, attrs);
        self.audit
            .append(actor, "load_data", format!("{name} rows={}", ds.n_rows()));

        if let (Some(fp), Some(ap)) = (&self.policy.fairness, &self.policy.accuracy) {
            let warnings = check_group_sizes(&ds, &fp.protected_column, ap.min_group_n)?;
            let detail = if warnings.is_empty() {
                format!(
                    "all groups of '{}' have ≥ {} rows",
                    fp.protected_column, ap.min_group_n
                )
            } else {
                warnings
                    .iter()
                    .map(|w| w.message.clone())
                    .collect::<Vec<_>>()
                    .join("; ")
            };
            self.check(
                Pillar::Accuracy,
                "group adequacy",
                warnings.is_empty(),
                detail,
            );
        }

        if let Some(cp) = &self.policy.confidentiality {
            let qis = ds.schema().quasi_identifiers();
            if !qis.is_empty() && cp.max_reidentification_risk < 1.0 {
                let risk = reidentification_risk(&ds, &qis)?;
                let passed = risk.prosecutor_risk <= cp.max_reidentification_risk;
                self.check(
                    Pillar::Confidentiality,
                    "re-identification risk",
                    passed,
                    format!(
                        "prosecutor risk {:.3} (limit {:.3}), unique fraction {:.3}",
                        risk.prosecutor_risk, cp.max_reidentification_risk, risk.unique_fraction
                    ),
                );
            }
        }

        self.data = Some((node, ds));
        Ok(self)
    }

    /// Apply a named transformation to the working dataset, recording it.
    pub fn transform<F>(&mut self, name: &str, actor: &str, f: F) -> Result<&mut Self>
    where
        F: FnOnce(&Dataset) -> Result<Dataset>,
    {
        let (node, ds) = self
            .data
            .take()
            .ok_or_else(|| FactError::InvalidArgument("no data loaded".into()))?;
        let out = f(&ds)?;
        let (_, outputs) = self.provenance.record_activity(
            name,
            actor,
            HashMap::new(),
            &[node],
            &[&format!("{name}:output")],
        )?;
        self.audit.append(
            actor,
            "transform",
            format!("{name}: {} → {} rows", ds.n_rows(), out.n_rows()),
        );
        self.data = Some((outputs[0], out));
        Ok(self)
    }

    /// Train a classifier on `features` → `label`, with guards:
    ///
    /// * fairness — refuses nothing, but flags direct use of the protected
    ///   column and any feature whose proxy strength exceeds policy;
    /// * accuracy — splits off `test_frac` rows first and records held-out
    ///   accuracy against the policy minimum.
    ///
    /// `trainer` receives the (one-hot-encoded) training matrix, labels, the
    /// training-split *dataset* (so fairness-aware trainers can compute
    /// group masks or instance weights on exactly the rows they will fit),
    /// and a seed.
    pub fn train<F>(
        &mut self,
        name: &str,
        actor: &str,
        features: &[&str],
        label: &str,
        seed: u64,
        trainer: F,
    ) -> Result<&mut Self>
    where
        F: FnOnce(&Matrix, &[bool], &Dataset, u64) -> Result<Box<dyn Classifier>>,
    {
        let (data_node, ds) = self
            .data
            .as_ref()
            .ok_or_else(|| FactError::InvalidArgument("no data loaded".into()))?;
        let ds = ds.clone();
        let data_node = *data_node;

        // fairness guards at training time
        if let Some(fp) = &self.policy.fairness.clone() {
            let direct_use = features.contains(&fp.protected_column.as_str());
            self.check(
                Pillar::Fairness,
                "no direct sensitive feature",
                !direct_use,
                if direct_use {
                    format!(
                        "training features include protected column '{}'",
                        fp.protected_column
                    )
                } else {
                    format!(
                        "protected column '{}' excluded from features",
                        fp.protected_column
                    )
                },
            );
            let mask = protected_mask(&ds, &fp.protected_column, &fp.protected_label)?;
            let candidate = ds.select(features)?;
            let scores = scan_proxies(&candidate, &mask, &[])?;
            let offenders: Vec<String> = scores
                .iter()
                .filter(|s| s.normalized_mi > fp.max_proxy_nmi)
                .map(|s| format!("{} (nMI {:.2})", s.feature, s.normalized_mi))
                .collect();
            self.check(
                Pillar::Fairness,
                "proxy scan",
                offenders.is_empty(),
                if offenders.is_empty() {
                    format!("no feature exceeds proxy nMI {:.2}", fp.max_proxy_nmi)
                } else {
                    format!("proxy features detected: {}", offenders.join(", "))
                },
            );
        }

        // honest split
        let test_frac = self
            .policy
            .accuracy
            .as_ref()
            .map(|a| a.test_frac)
            .unwrap_or(0.25);
        let (train_ds, test_ds) = train_test_split(&ds, test_frac, seed)?;
        let (x_train, feature_names) = train_ds.to_matrix_onehot(features)?;
        let (x_test, _) = test_ds.to_matrix_onehot(features)?;
        let y_train = train_ds.bool_column(label)?.to_vec();
        let y_test = test_ds.bool_column(label)?.to_vec();

        let model = trainer(&x_train, &y_train, &train_ds, seed)?;

        // accuracy guard on the held-out split
        let acc = accuracy(&y_test, &model.predict(&x_test)?)?;
        if let Some(ap) = &self.policy.accuracy {
            self.check(
                Pillar::Accuracy,
                "held-out accuracy",
                acc >= ap.min_accuracy,
                format!(
                    "accuracy {:.3} on {} held-out rows (min {:.3})",
                    acc,
                    y_test.len(),
                    ap.min_accuracy
                ),
            );
        }

        let mut attrs = HashMap::new();
        attrs.insert("seed".to_string(), seed.to_string());
        attrs.insert("features".to_string(), features.join(","));
        let (_, outputs) = self.provenance.record_activity(
            format!("train:{name}"),
            actor,
            attrs,
            &[data_node],
            &[name],
        )?;
        self.audit.append(
            actor,
            "train",
            format!(
                "{name} on {} rows, held-out accuracy {acc:.3}",
                x_train.rows()
            ),
        );

        let mut card = ModelCard::new(name, "0.1.0");
        card.training_data = format!(
            "{} rows × {} features (internal split, test_frac {test_frac})",
            x_train.rows(),
            feature_names.len()
        );
        card = card.with_metric("accuracy", acc, "held-out test");
        if let Some(fp) = &self.policy.fairness {
            card.sensitive_attributes = vec![fp.protected_column.clone()];
        }

        self.model = Some(ModelState {
            node: outputs[0],
            model,
            feature_names,
            x_train,
            x_test,
            y_test,
            test_data: test_ds,
            card,
        });
        Ok(self)
    }

    /// Run the fairness audit on the held-out split and record its guards.
    pub fn audit_fairness(&mut self) -> Result<FairnessReport> {
        let fp =
            self.policy.fairness.clone().ok_or_else(|| {
                FactError::InvalidArgument("no fairness policy configured".into())
            })?;
        let ms = self
            .model
            .as_ref()
            .ok_or_else(|| FactError::NotFitted("train a model before auditing".into()))?;
        let pred = ms.model.predict(&ms.x_test)?;
        let mask = protected_mask(&ms.test_data, &fp.protected_column, &fp.protected_label)?;
        let report = FairnessReport::audit(
            Some(&ms.y_test),
            &pred,
            &mask,
            FairnessThresholds {
                ..fp.thresholds.clone()
            },
        )?;
        let di = report.disparate_impact;
        let spd = report.statistical_parity_difference;
        let di_pass = report.passes_disparate_impact();
        let parity_pass = report.passes_parity();
        let eo_pass = report.passes_equalized_odds();
        let eo = report.equalized_odds_difference;
        self.check(
            Pillar::Fairness,
            "disparate impact",
            di_pass,
            format!(
                "DI {di:.3} (four-fifths band [{:.2}, {:.2}])",
                fp.thresholds.min_disparate_impact,
                1.0 / fp.thresholds.min_disparate_impact
            ),
        );
        self.check(
            Pillar::Fairness,
            "statistical parity",
            parity_pass,
            format!(
                "SPD {spd:+.3} (limit ±{:.2})",
                fp.thresholds.max_parity_difference
            ),
        );
        if let Some(eo) = eo {
            self.check(
                Pillar::Fairness,
                "equalized odds",
                eo_pass,
                format!(
                    "EO distance {eo:.3} (limit {:.2})",
                    fp.thresholds.max_equalized_odds
                ),
            );
        }
        Ok(report)
    }

    /// Release a differentially private mean of `column` — the only way this
    /// pipeline releases raw-data statistics. Spends `epsilon` from the
    /// budget; hard-fails with [`FactError::BudgetExhausted`] when the budget
    /// cannot cover it.
    pub fn release_mean(
        &mut self,
        column: &str,
        lo: f64,
        hi: f64,
        epsilon: f64,
        seed: u64,
    ) -> Result<f64> {
        self.dp_release(
            format!("dp_mean({column})"),
            epsilon,
            |ds| ds.f64_column(column),
            |values| dp_mean(&values, lo, hi, epsilon, seed),
            |released| format!("dp_mean({column}) ε={epsilon} → {released:.4}"),
        )
    }

    /// Release a differentially private row count (sensitivity 1, Laplace).
    pub fn release_count(&mut self, epsilon: f64, seed: u64) -> Result<f64> {
        self.dp_release(
            "dp_count(rows)".to_string(),
            epsilon,
            |ds| Ok(ds.n_rows()),
            |n| dp_count(n, epsilon, seed),
            |released| format!("dp_count ε={epsilon} → {released:.1}"),
        )
    }

    /// Release a differentially private histogram of a categorical column:
    /// `(label, noisy count)` pairs in dictionary order, one per label with
    /// at least one row. Rows are counted by dictionary code; a null row
    /// counts toward no label, whatever placeholder code its slot holds.
    pub fn release_histogram(
        &mut self,
        column: &str,
        epsilon: f64,
        seed: u64,
    ) -> Result<Vec<(String, f64)>> {
        let measure = |ds: &Dataset| {
            let (col, cat) = ds.cat_column(column)?;
            check_codes(&cat.codes, cat.dict.len())?;
            // Count codes over row chunks in parallel. Summing the chunk
            // tallies is exact, so the released histogram is bit-identical
            // at any worker count.
            let tally = fact_par::par_reduce(
                cat.codes.len(),
                1024,
                |range| {
                    let mut tally = vec![0u64; cat.dict.len()];
                    for i in range.filter(|&i| !col.is_null(i)) {
                        tally[cat.codes[i] as usize] += 1;
                    }
                    tally
                },
                |mut a, b| {
                    a.iter_mut().zip(b).for_each(|(x, y)| *x += y);
                    a
                },
            )
            .unwrap_or_default();
            let (order, counts): (Vec<String>, Vec<u64>) = cat
                .dict
                .iter()
                .zip(tally)
                .filter(|&(_, c)| c > 0)
                .map(|(l, c)| (l.clone(), c))
                .unzip();
            Ok((order, counts))
        };
        self.dp_release(
            format!("dp_histogram({column})"),
            epsilon,
            measure,
            |(order, counts)| {
                let noisy = dp_histogram(&counts, epsilon, seed)?;
                Ok(order.into_iter().zip(noisy).collect())
            },
            |released: &Vec<(String, f64)>| {
                format!(
                    "dp_histogram({column}) ε={epsilon}, {} buckets",
                    released.len()
                )
            },
        )
    }

    /// One DP release: `measure` the loaded data, spend `epsilon` under the
    /// ledger `label`, then `noise` the measurement. A denied spend
    /// hard-fails, audited as `release_denied` and recorded as a passing
    /// "budget enforced" check (the guard doing its job); a granted one is
    /// recorded as a "dp release within budget" check and a `release` audit
    /// entry whose details `entry` writes.
    fn dp_release<M, T>(
        &mut self,
        label: String,
        epsilon: f64,
        measure: impl FnOnce(&Dataset) -> Result<M>,
        noise: impl FnOnce(M) -> Result<T>,
        entry: impl FnOnce(&T) -> String,
    ) -> Result<T> {
        let accountant = self.accountant.as_mut().ok_or_else(|| {
            FactError::InvalidArgument("no confidentiality policy/budget configured".into())
        })?;
        let (_, ds) = self
            .data
            .as_ref()
            .ok_or_else(|| FactError::InvalidArgument("no data loaded".into()))?;
        let measured = measure(ds)?;
        if let Err(e) = accountant.spend(epsilon, 0.0, label.as_str()) {
            self.audit.append(
                "pipeline",
                "release_denied",
                format!("{label} ε={epsilon}: {e}"),
            );
            self.check(
                Pillar::Confidentiality,
                "budget enforced",
                true,
                format!("release of {label} denied: {e}"),
            );
            return Err(e);
        }
        let released = noise(measured)?;
        let (spent, budget) = (accountant.spent_epsilon(), accountant.budget_epsilon());
        self.check(
            Pillar::Confidentiality,
            "dp release within budget",
            true,
            format!("{label} at ε={epsilon} (ε spent {spent:.2}/{budget:.2})"),
        );
        self.audit.append("pipeline", "release", entry(&released));
        Ok(released)
    }

    /// Run the transparency guards: distill a surrogate at the policy depth
    /// and check its fidelity; check model-card completeness.
    pub fn audit_transparency(&mut self) -> Result<f64> {
        let tp = self.policy.transparency.clone().ok_or_else(|| {
            FactError::InvalidArgument("no transparency policy configured".into())
        })?;
        let ms = self
            .model
            .as_ref()
            .ok_or_else(|| FactError::NotFitted("train a model before auditing".into()))?;
        let names: Vec<&str> = ms.feature_names.iter().map(|s| s.as_str()).collect();
        let surrogate = SurrogateExplainer::distill(
            ms.model.as_ref(),
            &ms.x_train,
            &ms.x_test,
            &names,
            tp.surrogate_depth,
        )?;
        let fidelity = surrogate.fidelity();
        let card_issues = ms.card.completeness_issues();
        self.check(
            Pillar::Transparency,
            "surrogate fidelity",
            fidelity >= tp.min_surrogate_fidelity,
            format!(
                "depth-{} surrogate agrees with model on {:.1}% of held-out rows (min {:.0}%)",
                tp.surrogate_depth,
                fidelity * 100.0,
                tp.min_surrogate_fidelity * 100.0
            ),
        );
        if tp.require_model_card {
            let issues_txt = card_issues.join("; ");
            let passed = card_issues.is_empty();
            self.check(
                Pillar::Transparency,
                "model card complete",
                passed,
                if passed {
                    "all required fields present".into()
                } else {
                    issues_txt
                },
            );
        }
        Ok(fidelity)
    }

    /// Explain one held-out decision in subject-readable terms (and log that
    /// an explanation was produced — explanations given are accountability
    /// events too).
    pub fn explain_decision(&mut self, test_row: usize) -> Result<String> {
        let ms = self
            .model
            .as_ref()
            .ok_or_else(|| FactError::NotFitted("train a model before explaining".into()))?;
        if test_row >= ms.x_test.rows() {
            return Err(FactError::InvalidArgument(format!(
                "test row {test_row} out of range ({} rows)",
                ms.x_test.rows()
            )));
        }
        let names: Vec<&str> = ms.feature_names.iter().map(|s| s.as_str()).collect();
        let row: Vec<f64> = ms.x_test.row(test_row).to_vec();
        let explanation = explain_decision(ms.model.as_ref(), &ms.x_train, &row, &names)?;
        let text = explanation.render();
        self.audit.append(
            "pipeline",
            "explain_decision",
            format!("test row {test_row}: score {:.3}", explanation.probability),
        );
        Ok(text)
    }

    /// Run an intersectional subgroup audit on the held-out split over the
    /// given attribute combination; records a fairness guard that fails when
    /// any adequately-sized subgroup falls below the policy's disparate-
    /// impact threshold.
    pub fn audit_intersectional(&mut self, attributes: &[&str]) -> Result<IntersectionalReport> {
        let fp =
            self.policy.fairness.clone().ok_or_else(|| {
                FactError::InvalidArgument("no fairness policy configured".into())
            })?;
        let ms = self
            .model
            .as_ref()
            .ok_or_else(|| FactError::NotFitted("train a model before auditing".into()))?;
        let pred = ms.model.predict(&ms.x_test)?;
        let report = intersectional_audit(&ms.test_data, &pred, attributes, 30)?;
        let threshold = fp.thresholds.min_disparate_impact;
        let violations = report.violations(threshold);
        let detail = if violations.is_empty() {
            format!(
                "all {} adequately-sized subgroups of ({}) above impact ratio {threshold:.2}",
                report.subgroups.iter().filter(|s| !s.small_cell).count(),
                attributes.join("×")
            )
        } else {
            violations
                .iter()
                .map(|v| format!("{:?} at {:.2}", v.labels, v.impact_ratio))
                .collect::<Vec<_>>()
                .join("; ")
        };
        self.check(
            Pillar::Fairness,
            "intersectional audit",
            violations.is_empty(),
            detail,
        );
        Ok(report)
    }

    /// Offer recourse for one held-out decision: a minimal plausible feature
    /// change that would flip it. `immutable_features` names features that
    /// must not be proposed for change (logged either way).
    pub fn counterfactual(
        &mut self,
        test_row: usize,
        immutable_features: &[&str],
    ) -> Result<Option<Counterfactual>> {
        let ms = self
            .model
            .as_ref()
            .ok_or_else(|| FactError::NotFitted("train a model before recourse".into()))?;
        if test_row >= ms.x_test.rows() {
            return Err(FactError::InvalidArgument(format!(
                "test row {test_row} out of range ({} rows)",
                ms.x_test.rows()
            )));
        }
        let names: Vec<&str> = ms.feature_names.iter().map(|s| s.as_str()).collect();
        let immutable: Vec<usize> = names
            .iter()
            .enumerate()
            .filter(|(_, n)| immutable_features.contains(n))
            .map(|(i, _)| i)
            .collect();
        let row: Vec<f64> = ms.x_test.row(test_row).to_vec();
        let cf = find_counterfactual(ms.model.as_ref(), &ms.x_train, &row, &names, &immutable)?;
        self.audit.append(
            "pipeline",
            "counterfactual",
            match &cf {
                Some(c) => format!("test row {test_row}: {}", c.render()),
                None => format!("test row {test_row}: no plausible recourse found"),
            },
        );
        Ok(cf)
    }

    /// Mutable access to the model card so operators can complete it.
    pub fn model_card_mut(&mut self) -> Option<&mut ModelCard> {
        self.model.as_mut().map(|m| &mut m.card)
    }

    /// The working dataset, if loaded.
    pub fn data(&self) -> Option<&Dataset> {
        self.data.as_ref().map(|(_, d)| d)
    }

    /// The provenance graph accumulated so far.
    pub fn provenance(&self) -> &ProvenanceGraph {
        &self.provenance
    }

    /// The audit log accumulated so far.
    pub fn audit_log(&self) -> &AuditLog {
        &self.audit
    }

    /// The privacy accountant, when a confidentiality policy is active.
    pub fn accountant(&self) -> Option<&PrivacyAccountant> {
        self.accountant.as_ref()
    }

    /// Produce the certification scorecard from every guard run so far.
    pub fn certify(&self) -> FactReport {
        let mut pillars: Vec<Pillar> = Vec::new();
        for p in Pillar::ALL {
            if self.checks.iter().any(|c| c.pillar == p) {
                pillars.push(p);
            }
        }
        FactReport {
            checks: self.checks.clone(),
            pillars_evaluated: pillars,
            audit_chain_intact: self.audit.verify().is_none(),
            privacy_spent: self
                .accountant
                .as_ref()
                .map(|a| (a.spent_epsilon(), a.budget_epsilon())),
        }
    }

    /// The lineage (as node names) of the trained model — "from raw data to
    /// insight" made queryable.
    pub fn model_lineage(&self) -> Result<Vec<String>> {
        let ms = self
            .model
            .as_ref()
            .ok_or_else(|| FactError::NotFitted("no model trained".into()))?;
        Ok(self
            .provenance
            .lineage(ms.node)?
            .into_iter()
            .filter_map(|id| self.provenance.node(id).map(|n| n.name.clone()))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fact_data::synth::loans::{generate_loans, LoanConfig, LEGIT_FEATURES};
    use fact_ml::logistic::{LogisticConfig, LogisticRegression};

    fn trainer(x: &Matrix, y: &[bool], _ds: &Dataset, seed: u64) -> Result<Box<dyn Classifier>> {
        let cfg = LogisticConfig {
            seed,
            ..LogisticConfig::default()
        };
        Ok(Box::new(LogisticRegression::fit(x, y, None, &cfg)?))
    }

    fn fair_world() -> Dataset {
        generate_loans(&LoanConfig {
            n: 8_000,
            seed: 1,
            ..LoanConfig::default()
        })
    }

    fn biased_world() -> Dataset {
        generate_loans(&LoanConfig {
            n: 8_000,
            seed: 1,
            bias_strength: 0.5,
            proxy_strength: 0.9,
            ..LoanConfig::default()
        })
    }

    #[test]
    fn fair_pipeline_certifies_green() {
        let mut p = GuardedPipeline::new(FactPolicy::strict("group", "B")).unwrap();
        p.load_data("loans", "ingest", fair_world()).unwrap();
        p.train("loan-model", "ml", &LEGIT_FEATURES, "approved", 42, trainer)
            .unwrap();
        p.audit_fairness().unwrap();
        {
            let card = p.model_card_mut().unwrap();
            card.intended_use = "demo lending decisions on synthetic data".into();
        }
        p.audit_transparency().unwrap();
        let _released = p.release_mean("income", 0.0, 200.0, 0.5, 7).unwrap();
        let report = p.certify();
        assert!(report.is_green(), "fair world must certify:\n{report}");
        assert_eq!(report.pillars_evaluated.len(), 4);
    }

    #[test]
    fn biased_world_fails_fairness_pillar() {
        let mut p = GuardedPipeline::new(FactPolicy::strict("group", "B")).unwrap();
        p.load_data("loans", "ingest", biased_world()).unwrap();
        // include the proxy feature: both the proxy scan and the audit fail
        let features = [
            "income",
            "credit_score",
            "debt_ratio",
            "years_employed",
            "zip_risk",
        ];
        p.train("loan-model", "ml", &features, "approved", 42, trainer)
            .unwrap();
        p.audit_fairness().unwrap();
        let report = p.certify();
        assert!(!report.is_green());
        assert!(!report.pillar_passes(Pillar::Fairness));
        assert!(!report.failures().is_empty());
    }

    #[test]
    fn budget_exhaustion_hard_fails() {
        let mut p = GuardedPipeline::new(FactPolicy::strict("group", "B")).unwrap();
        p.load_data("loans", "ingest", fair_world()).unwrap();
        p.release_mean("income", 0.0, 200.0, 0.8, 1).unwrap();
        let err = p.release_mean("income", 0.0, 200.0, 0.8, 2).unwrap_err();
        assert!(matches!(err, FactError::BudgetExhausted { .. }));
        // the denial is in the audit log
        let denied = |p: &GuardedPipeline| {
            p.audit_log()
                .entries()
                .iter()
                .filter(|e| e.action == "release_denied")
                .count()
        };
        assert_eq!(denied(&p), 1);
        // a denied count and a denied histogram are audited the same way
        let err = p.release_count(0.8, 3).unwrap_err();
        assert!(matches!(err, FactError::BudgetExhausted { .. }));
        assert_eq!(denied(&p), 2);
        let err = p.release_histogram("group", 0.8, 4).unwrap_err();
        assert!(matches!(err, FactError::BudgetExhausted { .. }));
        assert_eq!(denied(&p), 3);
    }

    #[test]
    fn training_on_sensitive_column_is_flagged() {
        let mut p = GuardedPipeline::new(FactPolicy::strict("group", "B")).unwrap();
        p.load_data("loans", "ingest", fair_world()).unwrap();
        let features = ["income", "credit_score", "group"];
        p.train("bad-model", "ml", &features, "approved", 1, trainer)
            .unwrap();
        let report = p.certify();
        let flag = report
            .checks
            .iter()
            .find(|c| c.name == "no direct sensitive feature")
            .unwrap();
        assert!(!flag.passed);
    }

    #[test]
    fn lineage_reaches_raw_data() {
        let mut p = GuardedPipeline::new(FactPolicy::strict("group", "B")).unwrap();
        p.load_data("raw_loans", "ingest", fair_world()).unwrap();
        p.transform("drop_nulls", "engineer", |d| Ok(d.drop_nulls()))
            .unwrap();
        p.train("m", "ml", &LEGIT_FEATURES, "approved", 3, trainer)
            .unwrap();
        let lineage = p.model_lineage().unwrap();
        assert!(lineage.iter().any(|n| n == "raw_loans"));
        assert!(lineage.iter().any(|n| n.contains("drop_nulls")));
    }

    #[test]
    fn stage_ordering_is_enforced() {
        let mut p = GuardedPipeline::new(FactPolicy::strict("group", "B")).unwrap();
        assert!(p
            .train("m", "ml", &LEGIT_FEATURES, "approved", 1, trainer)
            .is_err());
        assert!(p.audit_fairness().is_err());
        assert!(p.explain_decision(0).is_err());
        assert!(p.transform("t", "x", |d| Ok(d.clone())).is_err());
    }

    #[test]
    fn explanations_are_produced_and_logged() {
        let mut p = GuardedPipeline::new(FactPolicy::strict("group", "B")).unwrap();
        p.load_data("loans", "ingest", fair_world()).unwrap();
        p.train("m", "ml", &LEGIT_FEATURES, "approved", 5, trainer)
            .unwrap();
        let text = p.explain_decision(0).unwrap();
        assert!(text.contains("Decision:"));
        assert!(p
            .audit_log()
            .entries()
            .iter()
            .any(|e| e.action == "explain_decision"));
        assert!(p.explain_decision(10_000_000).is_err());
    }

    #[test]
    fn count_and_histogram_releases_spend_budget() {
        let mut p = GuardedPipeline::new(FactPolicy::strict("group", "B")).unwrap();
        p.load_data("loans", "ingest", fair_world()).unwrap();
        let count = p.release_count(0.3, 1).unwrap();
        assert!((count - 8_000.0).abs() < 50.0);
        let hist = p.release_histogram("group", 0.3, 2).unwrap();
        assert_eq!(hist.len(), 2);
        assert!(hist.iter().any(|(l, _)| l == "A"));
        let spent = p.accountant().unwrap().spent_epsilon();
        assert!((spent - 0.6).abs() < 1e-9);
        // third release at 0.5 would exceed ε=1
        assert!(p.release_mean("income", 0.0, 250.0, 0.5, 3).is_err());
    }

    #[test]
    fn histogram_release_counts_no_null_row() {
        // null out every tenth group slot; each keeps its stored code,
        // group A's or B's, as the placeholder
        let mut ds = fair_world();
        let validity: Vec<bool> = (0..ds.n_rows()).map(|i| i % 10 != 0).collect();
        let nulled = ds
            .column("group")
            .unwrap()
            .clone()
            .with_validity(validity)
            .unwrap();
        ds.replace_column("group", nulled).unwrap();
        let release = |ds: Dataset| {
            let mut p = GuardedPipeline::new(FactPolicy::strict("group", "B")).unwrap();
            p.load_data("loans", "ingest", ds).unwrap();
            p.release_histogram("group", 0.3, 2).unwrap()
        };
        let with_nulls = release(ds.clone());
        let without = release(ds.drop_nulls());
        assert_eq!(ds.drop_nulls().n_rows(), 7_200);
        assert_eq!(with_nulls.len(), 2);
        // same labels, same counts, same noise draws: bit-identical
        for ((l1, c1), (l2, c2)) in with_nulls.iter().zip(&without) {
            assert_eq!(l1, l2);
            assert_eq!(c1.to_bits(), c2.to_bits(), "{l1}: {c1} vs {c2}");
        }
    }

    #[test]
    fn no_policy_pillars_means_not_green() {
        let mut p = GuardedPipeline::new(FactPolicy::default()).unwrap();
        p.load_data("loans", "ingest", fair_world()).unwrap();
        p.train("m", "ml", &LEGIT_FEATURES, "approved", 1, trainer)
            .unwrap();
        assert!(p.accountant().is_none());
        assert!(p.release_mean("income", 0.0, 200.0, 0.1, 0).is_err());
        let report = p.certify();
        assert!(!report.is_green(), "no guards evaluated → not green");
    }
}
