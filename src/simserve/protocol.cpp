#include "simserve/protocol.hpp"

#include "common/hash.hpp"
#include "common/json.hpp"

namespace columbia::simserve {

namespace json = common::json;

namespace {

/// Every response line opens with the echoed correlation id (when the
/// request carried one) so clients can match lines to requests.
std::string open_line(const std::string& id) {
  std::string out = "{";
  if (!id.empty()) out += "\"id\":" + json::quote(id) + ",";
  return out;
}

}  // namespace

bool parse_request(const std::string& line, Request& out, std::string& error) {
  json::Value doc;
  if (!json::parse(line, doc, error)) return false;
  if (!doc.is_object()) {
    error = "request must be a JSON object";
    return false;
  }
  Request req;
  // Taken before any field can fail, so the error line echoes the id
  // wherever it sits in the object.
  if (const json::Value* id = doc.find("id"); id && id->is_string()) {
    out.id = id->as_string();
  }
  bool have_op = false;
  bool have_spec = false;
  for (const auto& [key, value] : doc.members()) {
    if (key == "op") {
      if (!value.is_string()) {
        error = "request field \"op\" must be a string";
        return false;
      }
      const std::string& op = value.as_string();
      if (op == "eval") {
        req.op = Request::Op::kEval;
      } else if (op == "ping") {
        req.op = Request::Op::kPing;
      } else if (op == "list") {
        req.op = Request::Op::kList;
      } else if (op == "stats") {
        req.op = Request::Op::kStats;
      } else if (op == "shutdown") {
        req.op = Request::Op::kShutdown;
      } else {
        error = "unknown request op \"" + op + "\"";
        return false;
      }
      have_op = true;
    } else if (key == "id") {
      if (!value.is_string()) {
        error = "request field \"id\" must be a string";
        return false;
      }
      req.id = value.as_string();
    } else if (key == "spec") {
      if (!value.is_object()) {
        error = "request field \"spec\" must be a JSON object";
        return false;
      }
      // Round-trips the subtree through the one ScenarioSpec parser so
      // the wire schema cannot drift from the CLI schema.
      if (!core::ScenarioSpec::from_json(value.dump(), req.spec, error)) {
        return false;
      }
      have_spec = true;
    } else {
      // Envelope twin of the spec parser's unknown-field hard error.
      error = "unknown request field \"" + key + "\"";
      return false;
    }
  }
  if (!have_op) {
    error = "request requires an \"op\" field";
    return false;
  }
  if (req.op == Request::Op::kEval && !have_spec) {
    error = "eval request requires a \"spec\" field";
    return false;
  }
  if (req.op != Request::Op::kEval && have_spec) {
    error = "\"spec\" is only valid on eval requests";
    return false;
  }
  out = std::move(req);
  return true;
}

std::string error_line(const std::string& id, const std::string& error) {
  return open_line(id) + "\"status\":\"error\",\"error\":" +
         json::quote(error) + "}";
}

std::string status_line(const std::string& id, std::uint64_t spec_hash) {
  return open_line(id) + "\"status\":\"queued\",\"spec_hash\":\"" +
         common::hex64(spec_hash) + "\"}";
}

std::string result_line(const std::string& id, const Response& response) {
  const EvalOutcome& o = *response.outcome;
  std::string out = open_line(id);
  out += "\"status\":\"done\"";
  out += ",\"spec_hash\":\"" + common::hex64(response.spec_hash) + "\"";
  out += std::string(",\"ok\":") + (o.ok ? "true" : "false");
  out += std::string(",\"cached\":") + (response.cached ? "true" : "false");
  out += std::string(",\"coalesced\":") +
         (response.coalesced ? "true" : "false");
  if (!o.ok) {
    out += ",\"error\":" + json::quote(o.error);
    return out + "}";
  }
  out += ",\"events\":" + std::to_string(o.events);
  out += ",\"wall_seconds\":" + json::number_to_string(o.wall_seconds);
  out += ",\"report\":" + json::quote(o.report);
  // The analyzer blocks render multi-line, and a response is one line —
  // so they ride as JSON-encoded strings the client re-parses.
  if (!o.check_json.empty()) {
    out += std::string(",\"check_clean\":") +
           (o.check_clean ? "true" : "false");
    out += ",\"check_json\":" + json::quote(o.check_json);
  }
  if (!o.profile_json.empty()) {
    out += ",\"profile_json\":" + json::quote(o.profile_json);
  }
  return out + "}";
}

std::string pong_line(const std::string& id) {
  return open_line(id) + "\"status\":\"pong\"}";
}

std::string list_line(const std::string& id,
                      const std::vector<std::string>& ids) {
  std::string out = open_line(id) + "\"status\":\"list\",\"ids\":[";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) out += ',';
    out += json::quote(ids[i]);
  }
  return out + "]}";
}

std::string stats_line(const std::string& id, const ServiceStats& s) {
  std::string out = open_line(id);
  out += "\"status\":\"stats\"";
  out += ",\"requests\":" + std::to_string(s.requests);
  out += ",\"evaluations\":" + std::to_string(s.evaluations);
  out += ",\"cache_hits\":" + std::to_string(s.cache_hits);
  out += ",\"coalesced\":" + std::to_string(s.coalesced);
  out += ",\"cache_entries\":" + std::to_string(s.cache_entries);
  out += ",\"cache_bytes\":" + std::to_string(s.cache_bytes);
  out += ",\"in_flight\":" + std::to_string(s.in_flight);
  out += ",\"peak_in_flight\":" + std::to_string(s.peak_in_flight);
  return out + "}";
}

std::string shutdown_line(const std::string& id) {
  return open_line(id) + "\"status\":\"shutdown\"}";
}

}  // namespace columbia::simserve
