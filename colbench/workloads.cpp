#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/evaluator.hpp"
#include "core/experiment.hpp"
#include "gate.hpp"
#include "loop.hpp"
#include "probes.hpp"
#include "sim/engine.hpp"
#include "simserve/eval.hpp"
#include "simserve/service.hpp"
#include "stats.hpp"

namespace colbench {

namespace {

using columbia::core::Exec;
using columbia::core::Experiment;
using columbia::core::ScenarioSpec;
namespace simserve = columbia::simserve;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double sum(const std::vector<double>& xs) {
  return std::accumulate(xs.begin(), xs.end(), 0.0);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string describe(const Tail& t) {
  if (t.percentile <= 50.0) {
    return "median of " + std::to_string(t.samples) +
           ": too few samples for a tail";
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "p%.4g of %zu, %zu beyond", t.percentile,
                t.samples, t.beyond);
  return buf;
}

void add_tail(RunResult& res, const std::string& name,
              const std::vector<double>& xs) {
  const Tail t = tail(xs);
  res.add(name, t.value, "s", t.samples, describe(t));
}

// --- regeneration workloads ------------------------------------------------

struct RegenDef {
  const char* workload;
  const char* experiment;
};

// table3 has table6's cost profile at half the time: the engine queue and the
// 2 KiB eager all-to-all dominate it. ext-columbia-full drives the flow
// backend, a 10^4-deep event heap and rendezvous-sized messages.
constexpr std::array<RegenDef, 2> kRegen{{
    {"overflow-rotor", "table3"},
    {"columbia-full", "ext-columbia-full"},
}};

const RegenDef* find_regen(const std::string& workload) {
  for (const auto& d : kRegen) {
    if (workload == d.workload) return &d;
  }
  return nullptr;
}

struct Pass {
  double wall_s = 0.0;  ///< run_exec plus render()
  std::uint64_t events = 0;
  std::string render;
  bool ok = true;
};

/// One timed run_exec of `exp`, then the CSV gate (outside the timing).
Pass regen_pass(const Experiment& exp, const Exec& exec, const CsvGate* gate,
                RunResult& res, Tracer* tracer) {
  Pass p;
  SpanGuard span(tracer,
                 exec.mode == Exec::Mode::Parallel ? "pass.j2" : "pass.seq");
  const std::uint64_t events0 = columbia::sim::total_events_processed();
  const auto t0 = Clock::now();
  columbia::core::Report report;
  {
    SpanGuard call(tracer, "run_exec", span.id());
    report = exp.run_exec(exec);
    p.render = report.render();
  }
  p.wall_s = since(t0);
  p.events = columbia::sim::total_events_processed() - events0;
  ++res.attempted;
  std::string diff;
  if (gate != nullptr && gate->mismatches(report, &diff) > 0) {
    p.ok = false;
    res.fail(exp.id + ": " + diff + " differs from bench_results/");
  }
  return p;
}

/// Every pass must render exactly what the sequential reference rendered.
void check_identity(std::vector<Pass*> passes, const Pass& reference,
                    const std::string& id, RunResult& res) {
  for (Pass* p : passes) {
    if (p->ok && p->render != reference.render) {
      p->ok = false;
      res.fail(id + ": report differs from the sequential one");
    }
  }
}

// --- serve-mix ---------------------------------------------------------------

/// Registry ids the serve-mix draws from. Each regenerates in ~5-60 ms,
/// so evaluation latencies stay well apart from microsecond cache hits
/// and neither p50 nor p99 falls in the gap between them.
const std::vector<std::string>& serve_ids() {
  static const std::vector<std::string> ids{
      "sec42",          "ext-checkpoint",      "ext-io-overlap",
      "ablation-grouping", "ablation-cache",   "ablation-variability",
      "ablation-degraded-fabric"};
  return ids;
}

/// Requests in each half (untraced, traced) of serve-mix's traced run, and
/// in the serve probe of the other workloads' traced runs. Fixed counts,
/// so service counters repeat exactly from run to run.
constexpr std::size_t kTracedServeRequests = 300;
constexpr std::size_t kServeProbeRequests = 200;
constexpr int kOverheadRounds = 2;

enum class Kind { Hit, Plain, Check, Profile };

/// What the traced EvalFn wrapper saw of one evaluation.
struct EvalRecord {
  Clock::time_point enter;
  Clock::time_point exit;
  double run_s = 0.0;  ///< EvalOutcome::wall_seconds, the run body
};

struct EvalLog {
  std::mutex mu;
  std::unordered_map<std::uint64_t, EvalRecord> by_hash;
};

/// A Service over registry_eval(), its cache warmed with one plain spec
/// per id. The warm reports are the references every response must equal.
struct ServeRig {
  std::unique_ptr<simserve::Service> service;
  std::shared_ptr<EvalLog> log;  ///< null when untraced
  std::vector<ScenarioSpec> warm;
  std::map<std::string, std::string> reference;
};

ServeRig make_rig(bool traced) {
  ServeRig rig;
  simserve::EvalFn eval = simserve::registry_eval();
  if (traced) {
    rig.log = std::make_shared<EvalLog>();
    eval = [inner = std::move(eval), log = rig.log](const ScenarioSpec& spec) {
      EvalRecord rec;
      rec.enter = Clock::now();
      simserve::EvalOutcome out = inner(spec);
      rec.exit = Clock::now();
      rec.run_s = out.wall_seconds;
      const std::uint64_t hash = spec.hash();
      std::lock_guard lock(log->mu);
      log->by_hash[hash] = rec;
      return out;
    };
  }
  rig.service = std::make_unique<simserve::Service>(std::move(eval));
  const auto& ids = serve_ids();
  std::vector<std::shared_ptr<const simserve::EvalOutcome>> outcomes(
      ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ScenarioSpec spec;
    spec.experiment = ids[i];
    spec.label = "warm";
    rig.warm.push_back(spec);
    rig.service->submit(spec, [&outcomes, i](const simserve::Response& r) {
      outcomes[i] = r.outcome;
    });
  }
  rig.service->drain();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (!outcomes[i] || !outcomes[i]->ok) {
      throw std::runtime_error(
          "serve warm-up of " + ids[i] + " failed: " +
          (outcomes[i] ? outcomes[i]->error : std::string("no response")));
    }
    rig.reference[ids[i]] = outcomes[i]->report;
  }
  return rig;
}

struct Request {
  ScenarioSpec spec;
  Kind kind = Kind::Plain;
  Clock::time_point submitted;
  Clock::time_point answered;
  std::string error;  ///< empty when the response passed the gate
};

struct ServeRun {
  std::deque<Request> requests;
  ClosedLoop::Result loop;
  simserve::ServiceStats before;
  simserve::ServiceStats after;

  std::vector<double> latencies() const {
    std::vector<double> out;
    for (const auto& q : requests) out.push_back(seconds(q.answered - q.submitted));
    return out;
  }
};

/// The serve-mix request stream. Every block of 20 requests holds exactly
/// 5 repeats of warm specs (cache hits), 13 new plain specs, one new check
/// and one new profile spec, so service counters over a fixed number of
/// requests repeat exactly under any seed; the seed shuffles each block
/// and picks the ids. A new spec is made distinct by its label.
class RequestStream {
 public:
  RequestStream(const ServeRig& rig, std::uint64_t seed, std::uint64_t phase)
      : rig_(rig),
        rng_(columbia::Rng(seed).split(phase)),
        prefix_("s" + std::to_string(seed) + "-" + std::to_string(phase) +
                "-") {
    block_.insert(block_.end(), 5, Kind::Hit);
    block_.insert(block_.end(), 13, Kind::Plain);
    block_.push_back(Kind::Check);
    block_.push_back(Kind::Profile);
    pos_ = block_.size();
  }

  Request next() {
    if (pos_ == block_.size()) {
      for (std::size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng_.next_below(i + 1)]);
      }
      pos_ = 0;
    }
    Request q;
    q.kind = block_[pos_++];
    const std::size_t id = rng_.next_below(serve_ids().size());
    if (q.kind == Kind::Hit) {
      q.spec = rig_.warm[id];
      return q;
    }
    q.spec.experiment = serve_ids()[id];
    q.spec.label = prefix_ + std::to_string(drawn_++);
    q.spec.check = q.kind == Kind::Check;
    q.spec.profile = q.kind == Kind::Profile;
    return q;
  }

 private:
  const ServeRig& rig_;
  columbia::Rng rng_;
  std::string prefix_;
  std::vector<Kind> block_;
  std::size_t pos_ = 0;
  std::uint64_t drawn_ = 0;
};

std::string check_response(const Request& q, const simserve::Response& r,
                           const ServeRig& rig) {
  const std::string what = q.spec.experiment + " [" + q.spec.label + "]";
  if (!r.outcome || !r.outcome->ok) {
    return what + ": " + (r.outcome ? r.outcome->error : "no outcome");
  }
  if (q.spec.check && !r.outcome->check_clean) {
    return what + ": simcheck reported diagnostics";
  }
  if (r.outcome->report != rig.reference.at(q.spec.experiment)) {
    return what + ": report differs from the plain report";
  }
  return {};
}

/// Closed loop of cfg.nproc outstanding requests on `rig` while `more`
/// holds. Stream `phase` of the seed picks the requests.
ServeRun serve_loop(ServeRig& rig, const RunConfig& cfg, std::uint64_t phase,
                    const std::function<bool(std::size_t)>& more,
                    RunResult& res) {
  ServeRun run;
  RequestStream stream(rig, cfg.seed, phase);
  // The next request is drawn after the current one is submitted, so
  // drawing never falls inside a measured latency.
  Request next = stream.next();
  run.before = rig.service->stats();
  const ClosedLoop loop(cfg.nproc);
  run.loop = loop.run(
      [&](std::size_t, ClosedLoop::Done done) {
        // Only this thread appends; callbacks write through a pointer that
        // later appends leave valid.
        Request* q = &run.requests.emplace_back(std::move(next));
        q->submitted = Clock::now();
        rig.service->submit(
            q->spec, [q, &rig, done = std::move(done)](
                         const simserve::Response& r) {
              q->answered = Clock::now();
              q->error = check_response(*q, r, rig);
              done();
            });
        next = stream.next();
      },
      more);
  run.after = rig.service->stats();
  for (const auto& q : run.requests) {
    ++res.attempted;
    if (!q.error.empty()) res.fail(q.error);
  }
  return run;
}

/// Per-layer serve metrics from a traced loop, and its spans: request ->
/// evaluation (the EvalFn wrapper) -> run body (EvalOutcome::wall_seconds;
/// only its length is observable from outside, so it is placed at the end
/// of the evaluation).
void add_serve_layers(const ServeRun& run, const ServeRig& rig,
                      RunResult& res, Tracer* tracer) {
  std::vector<double> run_s, wait_s, queue_s, hit_s;
  std::lock_guard lock(rig.log->mu);
  for (std::size_t i = 0; i < run.requests.size(); ++i) {
    const Request& q = run.requests[i];
    const auto rid = static_cast<std::int64_t>(i);
    const int request = tracer->add("request", q.submitted, q.answered, -1, rid);
    if (q.kind == Kind::Hit) {
      hit_s.push_back(seconds(q.answered - q.submitted));
      continue;
    }
    const auto it = rig.log->by_hash.find(q.spec.hash());
    // Every new spec is evaluated, so the lookup only guards the iterator.
    if (it == rig.log->by_hash.end()) continue;
    const EvalRecord& e = it->second;
    const int eval = tracer->add("evaluation", e.enter, e.exit, request, rid);
    const auto body = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(e.run_s));
    tracer->add("run_body", e.exit - body, e.exit, eval, rid);
    run_s.push_back(e.run_s);
    wait_s.push_back(seconds(e.exit - e.enter) - e.run_s);
    queue_s.push_back(seconds(e.enter - q.submitted));
  }
  res.add("core.eval_run_s.p50", median(run_s), "s", run_s.size());
  add_tail(res, "core.eval_run_s.tail", run_s);
  res.add("core.eval_wait_s.p50", median(wait_s), "s", wait_s.size());
  add_tail(res, "core.eval_wait_s.tail", wait_s);
  res.add("core.eval_wait_s.sum", sum(wait_s), "s", wait_s.size(),
          "over " + std::to_string(run.loop.wall_s) + " s of loop");
  res.add("simserve.queue_wait_s.p50", median(queue_s), "s", queue_s.size());
  add_tail(res, "simserve.queue_wait_s.tail", queue_s);
  res.add("simserve.hit_s", median(hit_s), "s", hit_s.size(), "median");
  const auto requests = run.after.requests - run.before.requests;
  res.add("simserve.hit_ratio",
          static_cast<double>(run.after.cache_hits - run.before.cache_hits) /
              static_cast<double>(std::max<std::uint64_t>(requests, 1)),
          "ratio", requests);
  res.add("simserve.evaluations",
          static_cast<double>(run.after.evaluations - run.before.evaluations),
          "count", requests);
}

// --- layers shared by every traced run -----------------------------------

/// Sequential and Exec::parallel(2) regeneration of a workload's
/// experiments, and its own operation timed untraced and traced.
struct OpLayers {
  std::uint64_t events = 0;  ///< engine events of the sequential pass
  double seq_s = 0.0;
  double j2_s = 0.0;
  double untraced_op_s = 0.0;
  double traced_op_s = 0.0;
  std::size_t op_samples = 0;
};

/// simcheck/simprof cost: uncontended Evaluator::evaluate wall with the
/// analyzer armed over the plain wall, summed over the serve-mix ids.
void add_analyzer_overhead(RunResult& res, Tracer* tracer) {
  SpanGuard probe(tracer, "probe.analyzer_overhead");
  const columbia::core::Evaluator evaluator;
  const auto& ids = serve_ids();
  // walls[config][id][round]; config 0 plain, 1 check, 2 profile
  std::array<std::vector<std::vector<double>>, 3> walls;
  for (auto& w : walls) w.assign(ids.size(), {});
  for (int round = 0; round < kOverheadRounds; ++round) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      std::string plain_report;
      for (int c = 0; c < 3; ++c) {
        ScenarioSpec spec;
        spec.experiment = ids[i];
        spec.check = c == 1;
        spec.profile = c == 2;
        SpanGuard call(tracer, "Evaluator::evaluate", probe.id());
        const auto t0 = Clock::now();
        const auto r = evaluator.evaluate(spec);
        walls[static_cast<std::size_t>(c)][i].push_back(since(t0));
        ++res.attempted;
        if (c == 0) plain_report = r.report;
        if (!r.ok || !r.check_clean || r.report != plain_report) {
          res.fail(ids[i] + ": analyzer evaluation failed or changed the report");
        }
      }
    }
  }
  std::array<double, 3> total{};
  for (std::size_t c = 0; c < 3; ++c) {
    for (const auto& per_id : walls[c]) total[c] += median(per_id);
  }
  const std::size_t n = ids.size() * kOverheadRounds;
  res.add("simcheck.overhead_x", total[1] / total[0], "x", n);
  res.add("simprof.overhead_x", total[2] / total[0], "x", n);
}

void add_layers(const OpLayers& ops, const RunConfig& cfg, RunResult& res,
                Tracer* tracer) {
  res.add("sim.events", static_cast<double>(ops.events), "count", 1);
  res.add("sim.events_per_s", static_cast<double>(ops.events) / ops.seq_s,
          "1/s", 1);
  res.add("core.regen_j2_s", ops.j2_s, "s", 1);
  res.add("core.par_speedup_j2", ops.seq_s / ops.j2_s, "x", 1);
  res.add("bench.traced_op_p50_s", ops.traced_op_s, "s", ops.op_samples);
  res.add("bench.trace_overhead_x", ops.traced_op_s / ops.untraced_op_s, "x",
          ops.op_samples);
  const LayerProbes probes = run_layer_probes(cfg.seed, tracer);
  for (const auto& p : probes.ns) {
    res.add(p.name, p.ns_per_op(), "ns", p.count);
  }
  res.add("machine.flow_solves_per_flow", probes.flow_solves_per_flow,
          "ratio", probes.flows);
  add_analyzer_overhead(res, tracer);
}

// --- runners -------------------------------------------------------------

void add_end_to_end(RunResult& res, double setup_s,
                    const std::vector<double>& op_s, double ops_per_s) {
  res.add("setup_s", setup_s, "s", 1);
  res.add("op_p50_s", median(op_s), "s", op_s.size());
  add_tail(res, "op_tail_s", op_s);
  res.add("ops_per_s", ops_per_s, "1/s", op_s.size());
  res.add("peak_rss_mib", peak_rss_mib(), "MiB", 1);
}

RunResult run_regen(const RegenDef& def, const RunConfig& cfg,
                    Clock::time_point t_main, Tracer* tracer) {
  RunResult res;
  const Experiment* exp = columbia::core::find_experiment(def.experiment);
  if (exp == nullptr) {
    throw std::runtime_error(std::string("unknown experiment ") +
                             def.experiment);
  }
  const CsvGate gate(cfg.root / "bench_results", exp->id);
  if (uses_thread_pool(cfg)) columbia::common::ThreadPool::shared();
  const double setup_s = since(t_main);
  if (cfg.setup_only) {
    res.add("setup_s", setup_s, "s", 1);
    return res;
  }

  if (!cfg.trace) {
    std::vector<Pass> passes;
    const auto t_start = Clock::now();
    // Start another pass only if one more like the last still fits.
    do {
      passes.push_back(
          regen_pass(*exp, Exec::sequential(), &gate, res, nullptr));
    } while (since(t_start) + passes.back().wall_s <= cfg.seconds);
    std::vector<double> walls;
    for (const auto& p : passes) {
      walls.push_back(p.wall_s);
      res.log.push_back("pass " + std::to_string(walls.size()) + ": " +
                        std::to_string(p.wall_s) + " s, " +
                        std::to_string(p.events) + " events");
    }
    // A regeneration's rate is that of its median pass: the mean would let
    // one pass slowed by another tenant's load set it.
    add_end_to_end(res, setup_s, walls, 1.0 / median(walls));
    return res;
  }

  const Pass untraced = regen_pass(*exp, Exec::sequential(), &gate, res, nullptr);
  Pass traced = regen_pass(*exp, Exec::sequential(), &gate, res, tracer);
  Pass j2 = regen_pass(*exp, Exec::parallel(2), &gate, res, tracer);
  check_identity({&traced, &j2}, untraced, exp->id, res);

  OpLayers ops;
  ops.events = untraced.events;
  ops.seq_s = untraced.wall_s;
  ops.j2_s = j2.wall_s;
  ops.untraced_op_s = untraced.wall_s;
  ops.traced_op_s = traced.wall_s;
  ops.op_samples = 1;
  add_layers(ops, cfg, res, tracer);

  SpanGuard probe(tracer, "probe.serve");
  ServeRig rig = make_rig(true);
  const ServeRun run = serve_loop(
      rig, cfg, 1, [](std::size_t n) { return n < kServeProbeRequests; }, res);
  add_serve_layers(run, rig, res, tracer);
  return res;
}

RunResult run_serve(const RunConfig& cfg, Clock::time_point t_main,
                    Tracer* tracer) {
  RunResult res;
  for (const auto& id : serve_ids()) {
    if (columbia::core::find_experiment(id) == nullptr) {
      throw std::runtime_error("unknown experiment " + id);
    }
  }
  columbia::common::ThreadPool::shared();
  ServeRig rig = make_rig(false);
  const double setup_s = since(t_main);
  if (cfg.setup_only) {
    res.add("setup_s", setup_s, "s", 1);
    return res;
  }

  if (!cfg.trace) {
    const auto t_end =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(cfg.seconds));
    const ServeRun run = serve_loop(
        rig, cfg, 0, [t_end](std::size_t) { return Clock::now() < t_end; },
        res);
    add_end_to_end(res, setup_s, run.latencies(),
                   static_cast<double>(run.requests.size()) / run.loop.wall_s);
    return res;
  }

  ServeRig traced_rig = make_rig(true);
  auto fixed = [](std::size_t n) { return n < kTracedServeRequests; };
  const ServeRun untraced = serve_loop(rig, cfg, 1, fixed, res);
  const ServeRun traced = serve_loop(traced_rig, cfg, 2, fixed, res);

  // Regenerate the serve-mix experiments once sequentially and once under
  // Exec::parallel(2); both must render what the service served.
  OpLayers ops;
  for (const auto& id : serve_ids()) {
    const Experiment& exp = *columbia::core::find_experiment(id);
    Pass seq = regen_pass(exp, Exec::sequential(), nullptr, res, nullptr);
    Pass j2 = regen_pass(exp, Exec::parallel(2), nullptr, res, nullptr);
    if (rig.reference.at(id).find(seq.render) == std::string::npos) {
      seq.ok = false;
      res.fail(id + ": regenerated report differs from the served one");
    }
    check_identity({&j2}, seq, id, res);
    ops.events += seq.events;
    ops.seq_s += seq.wall_s;
    ops.j2_s += j2.wall_s;
  }
  ops.untraced_op_s = median(untraced.latencies());
  ops.traced_op_s = median(traced.latencies());
  ops.op_samples = traced.requests.size();
  add_layers(ops, cfg, res, tracer);
  add_serve_layers(traced, traced_rig, res, tracer);
  return res;
}

}  // namespace

void RunResult::fail(std::string why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(std::move(why));
}

void RunResult::add(std::string name, double value, std::string unit,
                    std::size_t samples, std::string note) {
  metrics.push_back(
      {std::move(name), value, std::move(unit), samples, std::move(note)});
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const auto& d : kRegen) out.emplace_back(d.workload);
    out.emplace_back("serve-mix");
    return out;
  }();
  return names;
}

bool uses_thread_pool(const RunConfig& cfg) {
  // Traced runs also run the serve probe and Exec::parallel(2) passes.
  return cfg.trace || find_regen(cfg.workload) == nullptr;
}

RunResult run_workload(const RunConfig& cfg, Clock::time_point t_main,
                       Tracer* tracer) {
  if (const RegenDef* def = find_regen(cfg.workload)) {
    return run_regen(*def, cfg, t_main, tracer);
  }
  if (cfg.workload == "serve-mix") return run_serve(cfg, t_main, tracer);
  throw std::invalid_argument("unknown workload " + cfg.workload);
}

}  // namespace colbench
