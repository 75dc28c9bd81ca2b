// simserve suite: the redesigned library API (ScenarioSpec + Evaluator)
// and the service built on it.
//
// Layers under test, bottom up:
//  * ScenarioSpec — golden hash stability (the cache key is a persisted
//    contract: a hash change invalidates every deployed cache), JSON
//    round-trip identity, unknown-field hard errors, and equivalence
//    with the CLI parser (one schema, two front ends).
//  * core::Evaluator — result bytes are byte-identical to what
//    run_experiment composes for the same spec, including under
//    check+profile+faults, and stay so (event counts included) when
//    analyzer specs evaluate concurrently (registry builds only).
//  * simserve::Service — cache hits, the cache's byte budget and LRU
//    eviction, in-flight coalescing, and a thousand-plus concurrent
//    requests against a gated stub evaluator.
//  * protocol/serve_stream/TcpServer — request parsing, streamed
//    status→result responses, pipe mode, and a TCP smoke test.
//
// COLUMBIA_SIMSERVE_NO_REGISTRY compiles out the registry-backed suites:
// the ASAN/TSAN variants build only the service/protocol machinery (with
// stub evaluators) plus spec/run_options, so the concurrency layers run
// instrumented without paying for registry regenerations.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/run_options.hpp"
#include "core/spec.hpp"
#include "simserve/protocol.hpp"
#include "simserve/server.hpp"
#include "simserve/service.hpp"

#ifndef COLUMBIA_SIMSERVE_NO_REGISTRY
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "machine/transport.hpp"
#include "sim/run_context.hpp"
#include "simcheck/checker.hpp"
#include "simfault/schedule.hpp"
#include "simmpi/world.hpp"
#include "simprof/profiler.hpp"
#include "simserve/eval.hpp"
#else
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace columbia {
namespace {

using core::ScenarioSpec;

// --- ScenarioSpec: hash goldens, round trips, hard errors -------------------

// The canonical hash is the service's cache key and the wire's spec_hash:
// goldens pin it. If one of these fails, the canonical JSON (key order,
// number formatting, defaults) changed — that is a cache-breaking schema
// change and must be deliberate, not incidental.
TEST(SpecHash, GoldenStability) {
  ScenarioSpec a;
  a.experiment = "fig5";
  EXPECT_EQ(a.hash_hex(), "338849ce645c27c5");
  EXPECT_EQ(a.canonical_json(),
            "{\"experiment\":\"fig5\",\"label\":\"\",\"transport\":\"event\","
            "\"check\":false,\"profile\":false,\"faults\":false,"
            "\"fault_seed\":0,\"fault_intensity\":0}");

  ScenarioSpec b;
  b.experiment = "table6";
  b.label = "gold";
  b.transport = "flow";
  b.check = true;
  b.faults = true;
  b.fault_seed = 42;
  b.fault_intensity = 0.5;
  EXPECT_EQ(b.hash_hex(), "12e4d637d35a070d");
}

TEST(SpecHash, LabelPartitionsTheKey) {
  ScenarioSpec a;
  a.experiment = "fig5";
  ScenarioSpec b = a;
  b.label = "client-7";
  EXPECT_NE(a.hash(), b.hash());
}

TEST(SpecJson, RoundTripIdentity) {
  ScenarioSpec spec;
  spec.experiment = "table6";
  spec.label = "rt";
  spec.transport = "flow";
  spec.check = true;
  spec.profile = true;
  spec.faults = true;
  spec.fault_seed = 7;
  spec.fault_intensity = 0.25;

  ScenarioSpec back;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::from_json(spec.canonical_json(), back, error))
      << error;
  EXPECT_EQ(spec, back);
  EXPECT_EQ(spec.canonical_json(), back.canonical_json());
  EXPECT_EQ(spec.hash(), back.hash());
}

TEST(SpecJson, FieldOrderDoesNotMatter) {
  ScenarioSpec a;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::from_json(
      "{\"check\":true,\"experiment\":\"fig5\"}", a, error))
      << error;
  ScenarioSpec b;
  ASSERT_TRUE(ScenarioSpec::from_json(
      "{\"experiment\":\"fig5\",\"check\":true}", b, error))
      << error;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
}

// The JSON twin of the CLI's unknown-flag policy: hard error, never a
// silent drop (a dropped field would alias two different requests onto
// one cache key).
TEST(SpecJson, UnknownFieldHardErrors) {
  // "race_explore" and "max_execs" were spec fields once; an old client
  // that still sends them gets an error, not a silently different spec.
  for (const char* field : {"chekc", "race_explore", "max_execs"}) {
    ScenarioSpec spec;
    std::string error;
    EXPECT_FALSE(ScenarioSpec::from_json(
        std::string("{\"experiment\":\"fig5\",\"") + field + "\":true}",
        spec, error));
    EXPECT_NE(error.find(std::string("unknown scenario spec field \"") +
                         field + "\""),
              std::string::npos)
        << field;
  }
}

TEST(SpecJson, ValidationHardErrors) {
  ScenarioSpec spec;
  std::string error;
  EXPECT_FALSE(ScenarioSpec::from_json("{}", spec, error));
  EXPECT_FALSE(ScenarioSpec::from_json(
      "{\"experiment\":\"fig5\",\"transport\":\"warp\"}", spec, error));
  EXPECT_FALSE(ScenarioSpec::from_json(
      "{\"experiment\":\"fig5\",\"fault_intensity\":1.5}", spec, error));
  EXPECT_FALSE(ScenarioSpec::from_json(
      "{\"experiment\":\"fig5\",\"fault_seed\":-1}", spec, error));
  EXPECT_FALSE(ScenarioSpec::from_json("[1,2]", spec, error));
}

// One schema, two front ends: flags parsed by RunOptionsParser must bind
// to the same spec (same hash) as the equivalent JSON request.
TEST(SpecJson, CliAndJsonAgree) {
  core::RunOptionsParser parser("test", "[options]",
                                {"--check", "--faults", "--transport"});
  parser.allow_positional();
  core::RunOptions opts;
  const char* argv[] = {"test",    "--check",     "--faults",
                        "42:0.5",  "--transport", "flow",
                        "fig5"};
  ASSERT_TRUE(parser.parse(7, argv, opts));

  ScenarioSpec from_wire;
  std::string error;
  ASSERT_TRUE(ScenarioSpec::from_json(
      "{\"experiment\":\"fig5\",\"check\":true,\"faults\":true,"
      "\"fault_seed\":42,\"fault_intensity\":0.5,\"transport\":\"flow\"}",
      from_wire, error))
      << error;
  EXPECT_EQ(opts.spec_for("fig5"), from_wire);
  EXPECT_EQ(opts.spec_for("fig5").hash(), from_wire.hash());
}

// --- Service: cache, coalescing, concurrency (stub evaluators) --------------

simserve::EvalFn counting_eval(std::atomic<int>& calls) {
  return [&calls](const ScenarioSpec& spec) {
    calls.fetch_add(1);
    simserve::EvalOutcome out;
    out.ok = true;
    out.report = "report:" + spec.canonical_json();
    return out;
  };
}

/// Stub evaluator that blocks every call until release() — the tool for
/// deterministically holding jobs in flight.
struct GatedEval {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> calls{0};

  simserve::EvalFn fn() {
    return [this](const ScenarioSpec& spec) {
      calls.fetch_add(1);
      std::unique_lock lock(mu);
      cv.wait(lock, [&] { return open; });
      simserve::EvalOutcome out;
      out.ok = true;
      out.report = "report:" + spec.canonical_json();
      return out;
    };
  }
  void release() {
    std::lock_guard lock(mu);
    open = true;
    cv.notify_all();
  }
};

TEST(Service, SecondRequestIsACacheHit) {
  std::atomic<int> calls{0};
  simserve::Service service(counting_eval(calls));
  ScenarioSpec spec;
  spec.experiment = "anything";  // stub eval: no registry lookup

  const simserve::Response first = service.evaluate(spec);
  ASSERT_TRUE(first.outcome->ok);
  EXPECT_FALSE(first.cached);
  const simserve::Response second = service.evaluate(spec);
  EXPECT_TRUE(second.cached);
  // Byte-identical by construction: coalesced/cached requesters share
  // the evaluating job's outcome object.
  EXPECT_EQ(second.outcome.get(), first.outcome.get());

  EXPECT_EQ(calls.load(), 1);
  const simserve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.evaluations, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_entries, 1u);
}

TEST(Service, FailedEvaluationsAreNotCached) {
  std::atomic<int> calls{0};
  simserve::Service service([&calls](const ScenarioSpec&) {
    calls.fetch_add(1);
    simserve::EvalOutcome out;
    out.error = "nope";
    return out;
  });
  ScenarioSpec spec;
  spec.experiment = "x";
  EXPECT_FALSE(service.evaluate(spec).outcome->ok);
  EXPECT_FALSE(service.evaluate(spec).outcome->ok);
  EXPECT_EQ(calls.load(), 2);  // retried, not served from a poisoned cache
  EXPECT_EQ(service.stats().cache_entries, 0u);
}

/// Stub evaluator whose outcome for experiment id X carries a report of
/// `report_bytes` copies of X's first character.
simserve::EvalFn sized_eval(std::atomic<int>& calls, std::size_t report_bytes) {
  return [&calls, report_bytes](const ScenarioSpec& spec) {
    calls.fetch_add(1);
    simserve::EvalOutcome out;
    out.ok = true;
    out.report.assign(report_bytes, spec.experiment.front());
    return out;
  };
}

ScenarioSpec spec_of(const std::string& experiment) {
  ScenarioSpec spec;
  spec.experiment = experiment;
  return spec;
}

TEST(Service, CacheEvictsTheLeastRecentlyHitOutcomeOverItsBudget) {
  // Each outcome is just over a third of the budget: two fit, three don't.
  std::atomic<int> calls{0};
  simserve::Service service(
      sized_eval(calls, simserve::Service::kCacheBudgetBytes / 3));
  const simserve::Response a = service.evaluate(spec_of("a"));
  const std::size_t each = simserve::outcome_bytes(*a.outcome);
  EXPECT_EQ(each, sizeof(simserve::EvalOutcome) +
                      simserve::Service::kCacheBudgetBytes / 3);
  service.evaluate(spec_of("b"));
  EXPECT_EQ(service.stats().cache_bytes, 2 * each);

  // A hit makes "a" the most recent, so "c" pushes "b" out, not "a".
  EXPECT_TRUE(service.evaluate(spec_of("a")).cached);
  service.evaluate(spec_of("c"));
  simserve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.cache_entries, 2u);
  EXPECT_EQ(stats.cache_bytes, 2 * each);
  EXPECT_TRUE(service.evaluate(spec_of("a")).cached);
  EXPECT_TRUE(service.evaluate(spec_of("c")).cached);
  EXPECT_EQ(calls.load(), 3);

  // "b" was evicted: it is evaluated again, and its insertion evicts the
  // now least recently hit "a".
  EXPECT_FALSE(service.evaluate(spec_of("b")).cached);
  EXPECT_EQ(calls.load(), 4);
  EXPECT_TRUE(service.evaluate(spec_of("c")).cached);
  EXPECT_FALSE(service.evaluate(spec_of("a")).cached);
  EXPECT_EQ(calls.load(), 5);
  stats = service.stats();
  EXPECT_EQ(stats.cache_entries, 2u);
  EXPECT_EQ(stats.cache_bytes, 2 * each);
  EXPECT_EQ(stats.cache_hits, 4u);
  EXPECT_EQ(stats.evaluations, 5u);
}

TEST(Service, AnOutcomeOverTheWholeBudgetStaysUntilTheNextInsert) {
  std::atomic<int> calls{0};
  simserve::Service service(
      sized_eval(calls, simserve::Service::kCacheBudgetBytes));
  const simserve::Response big = service.evaluate(spec_of("big"));
  EXPECT_EQ(service.stats().cache_entries, 1u);
  EXPECT_EQ(service.stats().cache_bytes, simserve::outcome_bytes(*big.outcome));
  EXPECT_TRUE(service.evaluate(spec_of("big")).cached);

  service.evaluate(spec_of("next"));
  EXPECT_EQ(service.stats().cache_entries, 1u);
  EXPECT_TRUE(service.evaluate(spec_of("next")).cached);
  EXPECT_FALSE(service.evaluate(spec_of("big")).cached);
  EXPECT_EQ(calls.load(), 3);
}

TEST(Service, DuplicateInFlightSpecsCoalesce) {
  GatedEval gate;
  simserve::Service service(gate.fn());
  ScenarioSpec spec;
  spec.experiment = "dup";

  std::atomic<int> done{0};
  constexpr int kDupes = 5;
  for (int i = 0; i < kDupes; ++i) {
    service.submit(spec, [&done](const simserve::Response& r) {
      EXPECT_TRUE(r.outcome->ok);
      done.fetch_add(1);
    });
  }
  gate.release();
  service.drain();

  EXPECT_EQ(done.load(), kDupes);
  EXPECT_EQ(gate.calls.load(), 1);  // one evaluation served all five
  const simserve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.evaluations, 1u);
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(kDupes - 1));
  EXPECT_EQ(stats.cache_hits, 0u);
}

TEST(Service, CoalescedResponsesAreFlaggedAndShared) {
  GatedEval gate;
  simserve::Service service(gate.fn());
  ScenarioSpec spec;
  spec.experiment = "flagged";

  std::mutex mu;
  std::vector<simserve::Response> responses;
  auto collect = [&](const simserve::Response& r) {
    std::lock_guard lock(mu);
    responses.push_back(r);
  };
  service.submit(spec, collect);
  service.submit(spec, collect);
  gate.release();
  service.drain();

  ASSERT_EQ(responses.size(), 2u);
  int coalesced = 0;
  for (const auto& r : responses) {
    coalesced += r.coalesced ? 1 : 0;
    EXPECT_EQ(r.outcome.get(), responses.front().outcome.get());
  }
  EXPECT_EQ(coalesced, 1);  // exactly the attached duplicate
}

// The ISSUE's load gate, in unit form: hold >1000 distinct requests in
// flight at once (every one submitted, none completed), then release and
// verify each got exactly one response.
TEST(Service, SustainsThousandPlusConcurrentRequests) {
  GatedEval gate;
  simserve::Service service(gate.fn());
  constexpr int kRequests = 1200;

  std::atomic<int> done{0};
  std::vector<std::thread> clients;
  std::atomic<int> next{0};
  for (int c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      for (int i = next.fetch_add(1); i < kRequests;
           i = next.fetch_add(1)) {
        ScenarioSpec spec;
        spec.experiment = "load";
        spec.label = "cold-" + std::to_string(i);  // distinct cache keys
        service.submit(spec, [&done](const simserve::Response& r) {
          EXPECT_TRUE(r.outcome->ok);
          done.fetch_add(1);
        });
      }
    });
  }
  for (auto& t : clients) t.join();
  // All submitted, none can finish until the gate opens.
  EXPECT_EQ(service.stats().peak_in_flight,
            static_cast<std::uint64_t>(kRequests));
  gate.release();
  service.drain();

  EXPECT_EQ(done.load(), kRequests);
  const simserve::ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.evaluations, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.in_flight, 0u);
}

// --- Protocol ---------------------------------------------------------------

TEST(Protocol, ParsesEvalRequest) {
  simserve::Request req;
  std::string error;
  ASSERT_TRUE(simserve::parse_request(
      "{\"op\":\"eval\",\"id\":\"r1\",\"spec\":{\"experiment\":\"fig5\","
      "\"check\":true}}",
      req, error))
      << error;
  EXPECT_EQ(req.op, simserve::Request::Op::kEval);
  EXPECT_EQ(req.id, "r1");
  EXPECT_EQ(req.spec.experiment, "fig5");
  EXPECT_TRUE(req.spec.check);
}

TEST(Protocol, ParsesControlOps) {
  simserve::Request req;
  std::string error;
  ASSERT_TRUE(simserve::parse_request("{\"op\":\"ping\"}", req, error));
  EXPECT_EQ(req.op, simserve::Request::Op::kPing);
  ASSERT_TRUE(simserve::parse_request("{\"op\":\"stats\"}", req, error));
  EXPECT_EQ(req.op, simserve::Request::Op::kStats);
  ASSERT_TRUE(simserve::parse_request("{\"op\":\"shutdown\"}", req, error));
  EXPECT_EQ(req.op, simserve::Request::Op::kShutdown);
  ASSERT_TRUE(simserve::parse_request("{\"op\":\"list\"}", req, error));
  EXPECT_EQ(req.op, simserve::Request::Op::kList);
}

TEST(Protocol, HardErrors) {
  simserve::Request req;
  std::string error;
  EXPECT_FALSE(simserve::parse_request("not json", req, error));
  EXPECT_FALSE(simserve::parse_request("{\"op\":\"evaluate\"}", req, error));
  // Envelope unknown fields hard-error like spec unknown fields.
  EXPECT_FALSE(simserve::parse_request(
      "{\"op\":\"ping\",\"turbo\":true}", req, error));
  EXPECT_NE(error.find("unknown request field"), std::string::npos);
  // eval requires a spec; control ops refuse one.
  EXPECT_FALSE(simserve::parse_request("{\"op\":\"eval\"}", req, error));
  EXPECT_FALSE(simserve::parse_request(
      "{\"op\":\"ping\",\"spec\":{\"experiment\":\"fig5\"}}", req, error));
  // Bad spec fields surface the spec parser's message.
  EXPECT_FALSE(simserve::parse_request(
      "{\"op\":\"eval\",\"spec\":{\"experiment\":\"fig5\",\"bogus\":1}}",
      req, error));
  EXPECT_NE(error.find("unknown scenario spec field"), std::string::npos);
  // Malformed UTF-8 inside a string is a parse error with a position, so
  // no response can echo the raw bytes back.
  EXPECT_FALSE(simserve::parse_request(
      "{\"op\":\"eval\",\"id\":\"u1\",\"spec\":{\"experiment\":\"tab\xffle1\"}}",
      req, error));
  EXPECT_EQ(error, "json:1:49: invalid UTF-8 in string");
}

TEST(Protocol, ResponseLineShapes) {
  EXPECT_EQ(simserve::status_line("r1", 0x1234),
            "{\"id\":\"r1\",\"status\":\"queued\","
            "\"spec_hash\":\"0000000000001234\"}");
  EXPECT_EQ(simserve::pong_line(""), "{\"status\":\"pong\"}");
  EXPECT_EQ(simserve::error_line("", "bad"),
            "{\"status\":\"error\",\"error\":\"bad\"}");

  simserve::Response r;
  r.spec_hash = 0xabc;
  r.cached = true;
  auto outcome = std::make_shared<simserve::EvalOutcome>();
  outcome->ok = true;
  outcome->report = "line1\nline2\n";
  r.outcome = outcome;
  const std::string line = simserve::result_line("r2", r);
  EXPECT_NE(line.find("\"status\":\"done\""), std::string::npos);
  EXPECT_NE(line.find("\"cached\":true"), std::string::npos);
  EXPECT_NE(line.find("\"report\":\"line1\\nline2\\n\""), std::string::npos);
  // One response = one line: embedded newlines must be escaped.
  EXPECT_EQ(line.find('\n'), std::string::npos);

  simserve::ServiceStats stats;
  stats.cache_entries = 2;
  stats.cache_bytes = 4096;
  EXPECT_NE(simserve::stats_line("s", stats)
                .find("\"cache_entries\":2,\"cache_bytes\":4096,"),
            std::string::npos);
}

// --- serve_stream (pipe mode) -----------------------------------------------

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) out.push_back(line);
  return out;
}

TEST(ServeStream, PingEvalStatsShutdown) {
  std::atomic<int> calls{0};
  simserve::Service service(counting_eval(calls));
  std::istringstream in(
      "{\"op\":\"ping\",\"id\":\"p\"}\n"
      "{\"op\":\"eval\",\"id\":\"e1\",\"spec\":{\"experiment\":\"x\"}}\n"
      "{\"op\":\"eval\",\"id\":\"e2\",\"spec\":{\"experiment\":\"x\"}}\n"
      "{\"op\":\"shutdown\",\"id\":\"bye\"}\n"
      "{\"op\":\"ping\"}\n");  // after shutdown: must not be served
  std::ostringstream out;
  const bool shutdown = simserve::serve_stream(in, out, service);
  EXPECT_TRUE(shutdown);

  const auto lines = lines_of(out.str());
  // ping + 2×(queued+done) + shutdown = 6 lines; the post-shutdown ping
  // is never read.
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], "{\"id\":\"p\",\"status\":\"pong\"}");
  int done_lines = 0;
  for (const auto& line : lines) {
    done_lines += line.find("\"status\":\"done\"") != std::string::npos;
  }
  EXPECT_EQ(done_lines, 2);
  EXPECT_EQ(calls.load(), 1);  // identical specs: one evaluation
  EXPECT_NE(out.str().find("\"status\":\"shutdown\""), std::string::npos);
}

TEST(ServeStream, EofWithoutShutdownDrainsAndReturnsFalse) {
  std::atomic<int> calls{0};
  simserve::Service service(counting_eval(calls));
  std::istringstream in(
      "{\"op\":\"eval\",\"spec\":{\"experiment\":\"x\"}}\n");
  std::ostringstream out;
  EXPECT_FALSE(simserve::serve_stream(in, out, service));
  // Drained before return: the result line is present.
  EXPECT_NE(out.str().find("\"status\":\"done\""), std::string::npos);
}

/// A request line twice simserve::kMaxRequestLineBytes long, and its
/// answer.
const std::string kOverLongLine(2u << 20, '[');
const std::string kOverLongError =
    "{\"status\":\"error\",\"error\":\"request line longer than 1048576 "
    "bytes\"}";

TEST(ServeStream, MalformedLinesGetErrorResponses) {
  std::atomic<int> calls{0};
  simserve::Service service(counting_eval(calls));
  // A million nested arrays would overflow a recursive parser's stack;
  // the session must answer with an error and go on serving. A request
  // whose spec fails still gets its id back, on either side of the spec,
  // and a spec field that no longer exists is an error, not dropped.
  std::istringstream in(
      "{\"op\":\"warp\"}\nnot json\n\n" + std::string(1000000, '[') +
      "\n{\"op\":\"eval\",\"id\":\"6\",\"spec\":{\"experiment\":\"table1\","
      "\"fault_seed\":1.5}}\n"
      "{\"op\":\"eval\",\"spec\":{\"experiment\":\"table1\",\"fault_seed\":1.5},"
      "\"id\":\"7\"}\n"
      "{\"op\":\"eval\",\"id\":\"8\",\"spec\":{\"experiment\":\"table1\","
      "\"race_explore\":true}}\n"
      "{\"op\":\"eval\",\"id\":\"u1\",\"spec\":{\"experiment\":\"tab\xffle1\"}}\n" +
      kOverLongLine + "\n{\"op\":\"ping\"}\n");
  std::ostringstream out;
  simserve::serve_stream(in, out, service);
  const auto lines = lines_of(out.str());
  ASSERT_EQ(lines.size(), 9u);  // blank line is ignored, not an error
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NE(lines[i].find("\"status\":\"error\""), std::string::npos);
  }
  EXPECT_NE(lines[2].find("nesting deeper than 64 levels"), std::string::npos);
  const std::string bad_seed =
      "\"status\":\"error\",\"error\":\"spec field \\\"fault_seed\\\" must be "
      "a non-negative integer\"}";
  EXPECT_EQ(lines[3], "{\"id\":\"6\"," + bad_seed);
  EXPECT_EQ(lines[4], "{\"id\":\"7\"," + bad_seed);
  EXPECT_EQ(lines[5].rfind("{\"id\":\"8\",", 0), 0u) << lines[5];
  EXPECT_NE(lines[5].find("unknown scenario spec field"), std::string::npos);
  // Invalid UTF-8 gets one error line that is itself valid UTF-8 (all
  // ASCII here: the raw 0xFF byte is not echoed).
  EXPECT_EQ(lines[6],
            "{\"status\":\"error\",\"error\":\"json:1:49: invalid UTF-8 in "
            "string\"}");
  // The 2 MiB line is cut at the cap, not parsed (its nesting error would
  // say so), and answered once.
  EXPECT_EQ(lines[7], kOverLongError);
  EXPECT_EQ(lines[8], "{\"status\":\"pong\"}");
  EXPECT_EQ(calls.load(), 0);
}

// --- TCP smoke --------------------------------------------------------------

/// Minimal blocking client: connect, send, read until `expect_lines`
/// newline-terminated responses arrived (or the peer closed).
struct TcpClient {
  int fd = -1;
  explicit TcpClient(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      fd = -1;
    }
  }
  ~TcpClient() {
    if (fd >= 0) ::close(fd);
  }
  void send_all(const std::string& text) const {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n =
          ::send(fd, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
  }
  std::vector<std::string> read_lines(std::size_t expect_lines) const {
    std::string buffer;
    char chunk[4096];
    while (true) {
      std::size_t count = 0;
      for (const char c : buffer) count += c == '\n';
      if (count >= expect_lines) break;
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
    }
    return lines_of(buffer);
  }
};

TEST(TcpSmoke, EvalOverLoopback) {
  std::atomic<int> calls{0};
  simserve::Service service(counting_eval(calls));
  simserve::TcpServer server(service);
  std::string error;
  ASSERT_TRUE(server.start(0, error)) << error;  // 0 = ephemeral port
  ASSERT_GT(server.port(), 0);

  {
    TcpClient client(server.port());
    ASSERT_GE(client.fd, 0);
    client.send_all(
        "{\"op\":\"ping\",\"id\":\"p\"}\n"
        "{\"op\":\"eval\",\"id\":\"e\",\"spec\":{\"experiment\":\"x\"}}\n");
    const auto lines = client.read_lines(3);  // pong, queued, done
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "{\"id\":\"p\",\"status\":\"pong\"}");
    EXPECT_NE(lines[1].find("\"status\":\"queued\""), std::string::npos);
    EXPECT_NE(lines[2].find("\"status\":\"done\""), std::string::npos);
    EXPECT_NE(lines[2].find("\"report\":"), std::string::npos);
  }
  {
    // An over-long line gets one error line; the session goes on.
    TcpClient client(server.port());
    ASSERT_GE(client.fd, 0);
    client.send_all(kOverLongLine + "\n{\"op\":\"ping\"}\n");
    const auto lines = client.read_lines(2);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], kOverLongError);
    EXPECT_EQ(lines[1], "{\"status\":\"pong\"}");
  }
  {
    // A second connection shuts the server down; wait() observes it.
    TcpClient client(server.port());
    ASSERT_GE(client.fd, 0);
    client.send_all("{\"op\":\"shutdown\"}\n");
    const auto lines = client.read_lines(1);
    ASSERT_EQ(lines.size(), 1u);
    EXPECT_NE(lines[0].find("\"status\":\"shutdown\""), std::string::npos);
  }
  server.wait();
  server.stop();
  EXPECT_EQ(calls.load(), 1);
}

#ifndef COLUMBIA_SIMSERVE_NO_REGISTRY

// --- Evaluator: byte identity with run_experiment ---------------------------

/// What run_experiment prints to stdout for one id: header lines, blank
/// line, rendered report, trailing newline.
std::string composed_bytes(const core::Experiment& exp,
                           const core::Report& report) {
  return "### " + exp.id + " — " + exp.paper_ref + "\n### " + exp.title +
         "\n\n" + report.render() + "\n";
}

TEST(Evaluator, PlainSpecMatchesRunExperimentBytes) {
  ScenarioSpec spec;
  spec.experiment = "table2";
  const core::EvalResult result = core::Evaluator().evaluate(spec);
  ASSERT_TRUE(result.ok) << result.error;

  const auto* exp = core::find_experiment("table2");
  ASSERT_NE(exp, nullptr);
  EXPECT_EQ(result.report,
            composed_bytes(*exp, exp->run_exec(core::Exec::sequential())));
  EXPECT_EQ(result.spec_hash, spec.hash());
}

// The acceptance criterion spec: byte-identity must hold with analyzers
// armed too — same report bytes, same check verdicts, same fault
// counters as a hand-armed RunContext run of the same experiment.
TEST(Evaluator, CheckProfileFaultsSpecMatchesArmedRunBytes) {
  ScenarioSpec spec;
  spec.experiment = "table2";
  spec.check = true;
  spec.profile = true;
  spec.faults = true;
  spec.fault_seed = 7;
  spec.fault_intensity = 0.3;
  const core::EvalResult result = core::Evaluator().evaluate(spec);
  ASSERT_TRUE(result.ok) << result.error;

  const auto* exp = core::find_experiment("table2");
  ASSERT_NE(exp, nullptr);
  std::string expected_report;
  std::string expected_check_json;
  simfault::FaultStats expected_stats;
  {
    sim::RunContext ctx;
    const auto check = simcheck::arm_check(ctx);
    const auto profile = simprof::arm_profile(ctx);
    const auto faults = simfault::arm_faults(
        ctx,
        simfault::FaultSpec::uniform(spec.fault_seed, spec.fault_intensity));
    {
      const sim::RunScope scope(ctx);
      expected_report =
          composed_bytes(*exp, exp->run_exec(core::Exec::sequential()));
    }
    expected_check_json = check->take_report().to_json();
    expected_stats = faults->take();
  }
  EXPECT_EQ(result.report, expected_report);
  EXPECT_EQ(result.check_json, expected_check_json);
  EXPECT_EQ(result.fault_stats.worlds, expected_stats.worlds);
  EXPECT_EQ(result.fault_stats.messages_dropped,
            expected_stats.messages_dropped);
  EXPECT_EQ(result.fault_stats.retries, expected_stats.retries);
  EXPECT_FALSE(result.profile_json.empty());
}

TEST(Evaluator, ErrorsAreValuesNotExceptions) {
  ScenarioSpec spec;
  spec.experiment = "no-such-experiment";
  const core::EvalResult result = core::Evaluator().evaluate(spec);
  EXPECT_FALSE(result.ok);
  EXPECT_NE(result.error.find("unknown experiment id"), std::string::npos);
}

// Evaluation leaves nothing armed on the calling thread, whatever the
// spec: a World built afterwards has no analyzer, fault model or flow
// network.
TEST(Evaluator, LeavesNothingArmed) {
  ScenarioSpec spec;
  spec.experiment = "table2";
  spec.check = true;
  spec.profile = true;
  spec.faults = true;
  spec.fault_seed = 1;
  spec.fault_intensity = 0.1;
  spec.transport = "flow";
  ASSERT_TRUE(core::Evaluator().evaluate(spec).ok);
  EXPECT_EQ(sim::current_run_context(), nullptr);
  EXPECT_EQ(machine::context_transport(), machine::TransportModel::Event);
  sim::Engine engine;
  const auto cluster = machine::Cluster::single(machine::NodeType::AltixBX2b);
  machine::Network network(engine, cluster);
  simmpi::World world(engine, network,
                      machine::Placement::dense(cluster, 2));
  EXPECT_EQ(world.observer(), nullptr);
  EXPECT_EQ(world.fault_model(), nullptr);
  EXPECT_EQ(network.flow_solver(), nullptr);
}

/// Every EvalResult field that does not measure the host.
std::string result_fields(const core::EvalResult& r) {
  std::ostringstream os;
  os << r.ok << "|" << r.error << "|" << r.spec_hash << "|" << r.report
     << "|events=" << r.events << "|" << r.check_report << "|"
     << r.check_json << "|" << r.check_clean << "|" << r.profile_report
     << "|" << r.profile_json << "|" << r.trace_valid << "|"
     << r.trace_chrome_json << "|" << r.trace_gantt_csv << "|"
     << r.trace_comm_csv << "|faults=" << r.fault_stats.worlds << ","
     << r.fault_stats.messages_dropped << "," << r.fault_stats.retries << ","
     << r.fault_stats.messages_lost;
  return os.str();
}

/// The fixed analyzer mix: plain, check, profile, faults, and all three.
std::vector<ScenarioSpec> analyzer_mix() {
  const char* ids[] = {"ablation-degraded-fabric", "sec42", "ablation-cache",
                       "ext-io-overlap", "ext-checkpoint"};
  std::vector<ScenarioSpec> specs;
  for (int k = 0; k < 5; ++k) {
    ScenarioSpec spec;
    spec.experiment = ids[k];
    spec.check = k == 1 || k == 4;
    spec.profile = k == 2 || k == 4;
    spec.faults = k == 3 || k == 4;
    spec.fault_seed = 5;
    spec.fault_intensity = spec.faults ? 0.2 : 0.0;
    specs.push_back(spec);
  }
  return specs;
}

/// Evaluates every spec `rounds` times on `threads` threads through one
/// Evaluator; out[i] holds every result of specs[i].
std::vector<std::vector<core::EvalResult>> evaluate_concurrently(
    const core::Evaluator& evaluator, const std::vector<ScenarioSpec>& specs,
    int rounds, int threads) {
  std::vector<std::vector<core::EvalResult>> out(specs.size());
  for (auto& v : out) v.resize(static_cast<std::size_t>(rounds));
  const std::size_t jobs = specs.size() * static_cast<std::size_t>(rounds);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (std::size_t j = next++; j < jobs; j = next++) {
        const std::size_t i = j % specs.size();
        out[i][j / specs.size()] = evaluator.evaluate(specs[i]);
      }
    });
  }
  for (auto& th : pool) th.join();
  return out;
}

// Analyzer specs no longer serialize: four threads evaluate the mix at
// once through one Evaluator, and every result equals the spec's
// sequential one — reports, check and profile text and JSON, fault
// counters and event counts.
TEST(Evaluator, ConcurrentAnalyzerMixMatchesSequentialResults) {
  const core::Evaluator evaluator;
  const std::vector<ScenarioSpec> specs = analyzer_mix();
  std::vector<std::string> sequential;
  for (const auto& spec : specs) {
    const core::EvalResult r = evaluator.evaluate(spec);
    ASSERT_TRUE(r.ok) << spec.experiment << ": " << r.error;
    sequential.push_back(result_fields(r));
  }
  const auto concurrent = evaluate_concurrently(evaluator, specs, 2, 4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (const auto& r : concurrent[i]) {
      EXPECT_TRUE(result_fields(r) == sequential[i])
          << specs[i].experiment << " check=" << specs[i].check
          << " profile=" << specs[i].profile
          << " faults=" << specs[i].faults;
    }
  }
}

// EvalResult::events counts the evaluation's own engines, not everything
// the process ran in its window: evaluated alone or on four threads
// beside other specs, a spec reports the same count.
TEST(Evaluator, EventCountIsExactBesideOtherEvaluations) {
  const core::Evaluator evaluator;
  std::vector<ScenarioSpec> specs = analyzer_mix();
  for (auto& spec : specs) spec.check = spec.profile = spec.faults = false;
  std::vector<std::uint64_t> alone;
  for (const auto& spec : specs) {
    alone.push_back(evaluator.evaluate(spec).events);
    EXPECT_GT(alone.back(), 0u) << spec.experiment;
  }
  const auto concurrent = evaluate_concurrently(evaluator, specs, 2, 4);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (const auto& r : concurrent[i]) {
      EXPECT_EQ(r.events, alone[i]) << specs[i].experiment;
    }
  }
}

// --- Registry-backed service ------------------------------------------------

TEST(RegistryService, CachedBytesMatchRunExperiment) {
  simserve::Service service(simserve::registry_eval());
  ScenarioSpec spec;
  spec.experiment = "table2";

  const simserve::Response first = service.evaluate(spec);
  ASSERT_TRUE(first.outcome->ok) << first.outcome->error;
  const simserve::Response second = service.evaluate(spec);
  EXPECT_TRUE(second.cached);

  const auto* exp = core::find_experiment("table2");
  const std::string expected =
      composed_bytes(*exp, exp->run_exec(core::Exec::sequential()));
  EXPECT_EQ(first.outcome->report, expected);
  EXPECT_EQ(second.outcome->report, expected);
}

TEST(RegistryService, StdinModeServesRegistrySpecs) {
  simserve::Service service(simserve::registry_eval());
  std::istringstream in(
      "{\"op\":\"eval\",\"id\":\"t\",\"spec\":{\"experiment\":\"table2\"}}\n"
      "{\"op\":\"list\"}\n");
  std::ostringstream out;
  simserve::serve_stream(in, out, service, simserve::registry_ids);
  EXPECT_NE(out.str().find("\"status\":\"done\""), std::string::npos);
  EXPECT_NE(out.str().find("### table2"), std::string::npos);
  EXPECT_NE(out.str().find("\"table6\""), std::string::npos);  // list op
}

#endif  // COLUMBIA_SIMSERVE_NO_REGISTRY

}  // namespace
}  // namespace columbia
