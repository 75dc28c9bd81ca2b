#pragma once
/// \file protocol.hpp
/// simserve wire protocol: newline-delimited JSON in both directions.
///
/// Requests (one JSON object per line):
///   {"op":"eval","spec":{"experiment":"fig5",...},"id":"r1"}
///   {"op":"ping"}            liveness probe
///   {"op":"list"}            registry ids the service can evaluate
///   {"op":"stats"}           service counters snapshot
///   {"op":"shutdown"}        stop the server after this response
///
/// "id" is an optional client correlation tag echoed verbatim in every
/// response to that request; "spec" is exactly the core::ScenarioSpec
/// JSON schema — the same parser, so unknown spec fields hard-error like
/// unknown CLI flags, and unknown *envelope* fields do too.
///
/// Responses stream: an eval request is acknowledged immediately with a
/// status line, then completed with a result line once the evaluation
/// (or cache/coalesce shortcut) finishes:
///   {"id":"r1","status":"queued","spec_hash":"<16 hex>"}
///   {"id":"r1","status":"done","ok":true,"cached":false,...,"report":"..."}
/// Malformed requests get a single {"status":"error",...} line, carrying
/// the request's "id" when that field is a string. Clients correlate by
/// id (or spec_hash); responses from concurrent evals may interleave in
/// completion order. A request line longer than kMaxRequestLineBytes is
/// not read past the cap: it gets one error line and the session goes on
/// with the next line.

#include <cstddef>
#include <string>
#include <vector>

#include "core/spec.hpp"
#include "simserve/service.hpp"

namespace columbia::simserve {

/// Longest request line a session buffers, newline excluded.
inline constexpr std::size_t kMaxRequestLineBytes = std::size_t{1} << 20;

struct Request {
  enum class Op { kEval, kPing, kList, kStats, kShutdown };
  Op op = Op::kEval;
  std::string id;          ///< client correlation tag ("" = none)
  core::ScenarioSpec spec; ///< kEval only
};

/// Parses one request line. False (with `error` filled) on malformed
/// JSON, an unknown op, an unknown envelope field, or a bad spec; `out.id`
/// then still holds the line's string "id", if it has one.
bool parse_request(const std::string& line, Request& out, std::string& error);

/// {"id":...,"status":"error","error":...} — also for pre-spec failures.
std::string error_line(const std::string& id, const std::string& error);

/// {"id":...,"status":"queued","spec_hash":...} — the eval acknowledgment.
std::string status_line(const std::string& id, std::uint64_t spec_hash);

/// The eval completion line: ok/cached/coalesced flags, counters, result
/// bytes, and — when the spec armed them — analyzer JSON blocks.
std::string result_line(const std::string& id, const Response& response);

/// {"status":"pong"} (id echoed when present).
std::string pong_line(const std::string& id);

/// {"id":...,"status":"list","ids":[...]}.
std::string list_line(const std::string& id,
                      const std::vector<std::string>& ids);

/// {"id":...,"status":"stats",...counters...}.
std::string stats_line(const std::string& id, const ServiceStats& stats);

/// {"id":...,"status":"shutdown"} — the shutdown acknowledgment.
std::string shutdown_line(const std::string& id);

}  // namespace columbia::simserve
