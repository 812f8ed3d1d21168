//! Typed serve configuration — the spec-layer surface for the serving
//! stack (ROADMAP item 2).
//!
//! The `anomex_serve` binary historically took its shape from CLI flags
//! alone; a [`ServeSpec`] is the same configuration as data, with the
//! crate's usual stable JSON form, so deployments can be checked in,
//! diffed, and fingerprinted like pipelines. The spec crate cannot
//! depend on `anomex-serve` (the dependency points the other way), so
//! the defaults here deliberately mirror the binary's: a 1024-deep
//! queue cut into batches of 32 after at most 2 ms, 2 workers, no
//! deadline, no SLO.
//!
//! Parsing is lenient about *missing* keys (they take defaults, so a
//! checked-in config can name only what it overrides) and strict about
//! *unknown* keys (a misspelled key is an error, not a silent default)
//! and *invalid* values ([`ServeSpec::validate`] runs on every parse).

use crate::json::Json;

/// A queue-wait service-level objective: shed new requests with a typed
/// `overloaded` error while `quantile` of recent queue waits exceeds
/// `limit_ms`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// The queue-wait budget in milliseconds.
    pub limit_ms: u64,
    /// The quantile held to the budget (e.g. 0.99 for p99).
    pub quantile: f64,
}

impl Default for SloSpec {
    fn default() -> Self {
        SloSpec {
            limit_ms: 50,
            quantile: 0.99,
        }
    }
}

/// The full serving configuration, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeSpec {
    /// Request-queue capacity before backpressure rejects.
    pub queue: usize,
    /// Maximum requests coalesced into one batch.
    pub batch: usize,
    /// Maximum batch-coalescing delay in milliseconds.
    pub delay_ms: u64,
    /// Scheduler worker threads.
    pub workers: usize,
    /// Per-request deadline in milliseconds (`None` = wait forever).
    pub deadline_ms: Option<u64>,
    /// Queue-wait SLO arming load shedding (`None` = queue-full
    /// backpressure only).
    pub slo: Option<SloSpec>,
}

impl Default for ServeSpec {
    fn default() -> Self {
        ServeSpec {
            queue: 1024,
            batch: 32,
            delay_ms: 2,
            workers: 2,
            deadline_ms: None,
            slo: None,
        }
    }
}

impl ServeSpec {
    /// The canonical JSON object form, keys in fixed order; `None`
    /// fields are elided.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("queue".to_string(), Json::num_usize(self.queue)),
            ("batch".to_string(), Json::num_usize(self.batch)),
            ("delay_ms".to_string(), Json::num_u64(self.delay_ms)),
            ("workers".to_string(), Json::num_usize(self.workers)),
        ];
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Json::num_u64(ms)));
        }
        if let Some(slo) = &self.slo {
            fields.push((
                "slo".to_string(),
                Json::Obj(vec![
                    ("limit_ms".to_string(), Json::num_u64(slo.limit_ms)),
                    ("quantile".to_string(), Json::num_f64(slo.quantile)),
                ]),
            ));
        }
        Json::Obj(fields)
    }

    /// Parses the JSON object form. Missing keys take their defaults,
    /// so a config may name only what it overrides; the result is
    /// validated.
    ///
    /// # Errors
    /// On non-object input, unknown keys, mistyped fields, or values
    /// [`ServeSpec::validate`] rejects.
    pub fn from_json(value: &Json) -> Result<Self, String> {
        let Json::Obj(fields) = value else {
            return Err("serve spec must be a JSON object".to_string());
        };
        reject_unknown_keys(fields, SPEC_KEYS, "")?;
        let mut spec = ServeSpec::default();
        let count = |key: &str, default: usize| match value.get(key) {
            None => Ok(default),
            Some(v) => v
                .as_usize()
                .ok_or_else(|| format!("serve spec '{key}' must be a non-negative integer")),
        };
        let millis = |key: &str| match value.get(key) {
            None => Ok(None),
            Some(v) => v
                .as_u64()
                .map(Some)
                .ok_or_else(|| format!("serve spec '{key}' must be a non-negative integer")),
        };
        spec.queue = count("queue", spec.queue)?;
        spec.batch = count("batch", spec.batch)?;
        spec.delay_ms = millis("delay_ms")?.unwrap_or(spec.delay_ms);
        spec.workers = count("workers", spec.workers)?;
        spec.deadline_ms = millis("deadline_ms")?;
        if let Some(slo) = value.get("slo") {
            let Json::Obj(slo_fields) = slo else {
                return Err("serve spec 'slo' must be a JSON object".to_string());
            };
            reject_unknown_keys(slo_fields, SLO_KEYS, "slo.")?;
            let mut parsed = SloSpec::default();
            if let Some(v) = slo.get("limit_ms") {
                parsed.limit_ms = v
                    .as_u64()
                    .ok_or("serve spec 'slo.limit_ms' must be a non-negative integer")?;
            }
            if let Some(v) = slo.get("quantile") {
                parsed.quantile = v
                    .as_f64()
                    .ok_or("serve spec 'slo.quantile' must be a number")?;
            }
            spec.slo = Some(parsed);
        }
        spec.validate()?;
        Ok(spec)
    }

    /// Parses JSON text (convenience over [`Self::from_json`]).
    ///
    /// # Errors
    /// On malformed JSON or invalid fields.
    pub fn parse(text: &str) -> Result<Self, String> {
        Self::from_json(&crate::json::parse(text)?)
    }

    /// Checks the invariants the serving stack assumes.
    ///
    /// # Errors
    /// On a zero queue/batch/worker count, a zero deadline or SLO
    /// budget, or an SLO quantile outside `[0, 1]`.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |name: &str, v: usize| {
            if v == 0 {
                Err(format!("serve spec '{name}' must be at least 1"))
            } else {
                Ok(())
            }
        };
        positive("queue", self.queue)?;
        positive("batch", self.batch)?;
        positive("workers", self.workers)?;
        if self.deadline_ms == Some(0) {
            return Err("serve spec 'deadline_ms' must be at least 1".to_string());
        }
        if let Some(slo) = &self.slo {
            if slo.limit_ms == 0 {
                return Err("serve spec 'slo.limit_ms' must be at least 1".to_string());
            }
            if !(0.0..=1.0).contains(&slo.quantile) {
                return Err(format!(
                    "serve spec 'slo.quantile' must be in [0, 1], got {}",
                    slo.quantile
                ));
            }
        }
        Ok(())
    }
}

/// The keys [`ServeSpec::from_json`] reads at the top level.
const SPEC_KEYS: &[&str] = &[
    "queue",
    "batch",
    "delay_ms",
    "workers",
    "deadline_ms",
    "slo",
];

/// The keys read inside the `slo` object.
const SLO_KEYS: &[&str] = &["limit_ms", "quantile"];

/// Fails on the first object key not in `known`, naming it with its
/// `prefix` path (`""` or `"slo."`).
fn reject_unknown_keys(
    fields: &[(String, Json)],
    known: &[&str],
    prefix: &str,
) -> Result<(), String> {
    for (key, _) in fields {
        if !known.contains(&key.as_str()) {
            return Err(format!("unknown serve spec key '{prefix}{key}'"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    #[test]
    fn defaults_round_trip() {
        let spec = ServeSpec::default();
        let back = ServeSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
        assert!(spec.slo.is_none());
    }

    #[test]
    fn full_config_round_trips_through_text() {
        let spec = ServeSpec {
            queue: 64,
            batch: 8,
            delay_ms: 1,
            workers: 4,
            deadline_ms: Some(250),
            slo: Some(SloSpec {
                limit_ms: 20,
                quantile: 0.95,
            }),
        };
        let text = spec.to_json().emit();
        assert_eq!(ServeSpec::parse(&text).unwrap(), spec);
    }

    #[test]
    fn partial_configs_take_defaults() {
        let spec = ServeSpec::parse(r#"{"queue": 4, "slo": {"limit_ms": 10}}"#).unwrap();
        assert_eq!(spec.queue, 4);
        assert_eq!(spec.batch, ServeSpec::default().batch);
        let slo = spec.slo.unwrap();
        assert_eq!(slo.limit_ms, 10);
        assert!((slo.quantile - 0.99).abs() < 1e-12, "default quantile");
    }

    #[test]
    fn invalid_values_are_rejected_with_field_names() {
        let err = ServeSpec::parse(r#"{"queue": 0}"#).unwrap_err();
        assert!(err.contains("queue"), "{err}");
        let err = ServeSpec::parse(r#"{"slo": {"quantile": 1.5}}"#).unwrap_err();
        assert!(err.contains("quantile"), "{err}");
        let err = ServeSpec::parse(r#"{"shard": 4}"#).unwrap_err();
        assert!(err.contains("'shard'"), "{err}");
        let err = ServeSpec::parse(r#"{"slo": {"limit": 10}}"#).unwrap_err();
        assert!(err.contains("'slo.limit'"), "{err}");
        let err = ServeSpec::parse(r#"{"front": "reactor"}"#).unwrap_err();
        assert!(err.contains("'front'"), "{err}");
        let err = ServeSpec::parse(r#"{"shards": 8}"#).unwrap_err();
        assert!(err.contains("'shards'"), "{err}");
        assert!(ServeSpec::parse("[]").is_err());
    }
}
