#pragma once
// JSON (de)serialization for ExperimentConfig and ExperimentResult, so that
// experiments are reproducible from declarative files:
//   pdsl_cli run --config experiment.json
// Unknown keys in a config file are an error (typos should not silently
// fall back to defaults), and so is a value outside its key's range.

#include <string>

#include "common/json.hpp"
#include "core/experiment.hpp"

namespace pdsl::core {

/// The config schema (common/schema.hpp): every key, its `pdsl_cli run`
/// flag and its single-field range, declared once. The sub-plans declare
/// their own next to their structs.
void visit(schema::Visitor& v, ExperimentConfig& cfg);

/// Serialize a config (every field, including defaults).
json::Value config_to_json(const ExperimentConfig& cfg);

/// Build a config from JSON: start from defaults, override per present key.
/// Throws std::invalid_argument on unknown keys or out-of-range values,
/// naming the key.
ExperimentConfig config_from_json(const json::Value& v);

/// Convenience: parse a JSON file into a config.
ExperimentConfig load_config(const std::string& path);

/// Summarize a result (summary metrics + per-round series) as JSON.
json::Value result_to_json(const ExperimentResult& res);

}  // namespace pdsl::core
