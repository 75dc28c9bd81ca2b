#include "core/spec.hpp"

#include "common/hash.hpp"
#include "common/json.hpp"

namespace columbia::core {

namespace json = common::json;

std::string ScenarioSpec::canonical_json() const {
  std::string out = "{";
  out += "\"experiment\":" + json::quote(experiment);
  out += ",\"label\":" + json::quote(label);
  out += ",\"transport\":" + json::quote(transport);
  out += std::string(",\"check\":") + (check ? "true" : "false");
  out += std::string(",\"profile\":") + (profile ? "true" : "false");
  out += std::string(",\"faults\":") + (faults ? "true" : "false");
  out += ",\"fault_seed\":" + std::to_string(fault_seed);
  out += ",\"fault_intensity\":" + json::number_to_string(fault_intensity);
  out += "}";
  return out;
}

std::uint64_t ScenarioSpec::hash() const {
  return common::fnv1a64(canonical_json());
}

std::string ScenarioSpec::hash_hex() const { return common::hex64(hash()); }

namespace {

bool expect_string(const json::Value& v, const char* key, std::string& out,
                   std::string& error) {
  if (!v.is_string()) {
    error = std::string("spec field \"") + key + "\" must be a string";
    return false;
  }
  out = v.as_string();
  return true;
}

bool expect_bool(const json::Value& v, const char* key, bool& out,
                 std::string& error) {
  if (!v.is_bool()) {
    error = std::string("spec field \"") + key + "\" must be a boolean";
    return false;
  }
  out = v.as_bool();
  return true;
}

bool expect_number(const json::Value& v, const char* key, double& out,
                   std::string& error) {
  if (!v.is_number()) {
    error = std::string("spec field \"") + key + "\" must be a number";
    return false;
  }
  out = v.as_number();
  return true;
}

}  // namespace

bool ScenarioSpec::from_json(const std::string& text, ScenarioSpec& out,
                             std::string& error) {
  json::Value doc;
  if (!json::parse(text, doc, error)) return false;
  if (!doc.is_object()) {
    error = "scenario spec must be a JSON object";
    return false;
  }
  ScenarioSpec spec;
  for (const auto& [key, value] : doc.members()) {
    if (key == "experiment") {
      if (!expect_string(value, "experiment", spec.experiment, error)) {
        return false;
      }
    } else if (key == "label") {
      if (!expect_string(value, "label", spec.label, error)) return false;
    } else if (key == "transport") {
      if (!expect_string(value, "transport", spec.transport, error)) {
        return false;
      }
      if (spec.transport != "event" && spec.transport != "flow") {
        error = "spec field \"transport\" must be \"event\" or \"flow\", "
                "got \"" +
                spec.transport + "\"";
        return false;
      }
    } else if (key == "check") {
      if (!expect_bool(value, "check", spec.check, error)) return false;
    } else if (key == "profile") {
      if (!expect_bool(value, "profile", spec.profile, error)) return false;
    } else if (key == "faults") {
      if (!expect_bool(value, "faults", spec.faults, error)) return false;
    } else if (key == "fault_seed") {
      double seed = 0.0;
      if (!expect_number(value, "fault_seed", seed, error)) return false;
      if (seed < 0.0 || seed != static_cast<double>(
                                    static_cast<std::uint64_t>(seed))) {
        error = "spec field \"fault_seed\" must be a non-negative integer";
        return false;
      }
      spec.fault_seed = static_cast<std::uint64_t>(seed);
    } else if (key == "fault_intensity") {
      double intensity = 0.0;
      if (!expect_number(value, "fault_intensity", intensity, error)) {
        return false;
      }
      if (!(intensity >= 0.0 && intensity <= 1.0)) {
        error = "spec field \"fault_intensity\" must be in [0, 1]";
        return false;
      }
      spec.fault_intensity = intensity;
    } else {
      // The JSON twin of the CLI's unknown-flag hard error: a field this
      // schema does not know cannot be silently dropped, or specs would
      // hash equal while the client meant something different.
      error = "unknown scenario spec field \"" + key + "\"";
      return false;
    }
  }
  if (spec.experiment.empty()) {
    error = "scenario spec requires a non-empty \"experiment\" field";
    return false;
  }
  out = std::move(spec);
  return true;
}

}  // namespace columbia::core
