#include "simcheck/checker.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

namespace columbia::simcheck {

namespace {

std::string fmt_bytes(double bytes) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", bytes);
  return std::string(buf) + " B";
}

std::string fmt_src(int src) {
  return src == simmpi::kAny ? "ANY" : std::to_string(src);
}

/// "recv(src=1, tag=0)" / "send(to=1, 1e+06 B, rendezvous)" — how a blocked
/// rank's open operation is named in deadlock diagnostics.
std::string op_desc(bool is_send, int peer, int tag, double bytes,
                    bool rendezvous) {
  std::ostringstream os;
  if (is_send) {
    os << "send(to=" << peer << ", " << fmt_bytes(bytes)
       << (rendezvous ? ", rendezvous)" : ")");
  } else {
    os << "recv(src=" << fmt_src(peer) << ", tag=" << fmt_src(tag) << ")";
  }
  return os.str();
}

std::string coll_desc(simmpi::CollOp op, int root, double bytes) {
  std::ostringstream os;
  os << simmpi::coll_op_name(op) << "(";
  bool first = true;
  if (root >= 0) {
    os << "root=" << root;
    first = false;
  }
  if (bytes >= 0.0) {
    os << (first ? "" : ", ") << fmt_bytes(bytes);
  }
  os << ")";
  return os.str();
}

std::string json_escape(const std::string& s) {
  std::ostringstream os;
  for (char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  return os.str();
}

}  // namespace

const char* diag_kind_name(DiagKind kind) {
  switch (kind) {
    case DiagKind::Deadlock: return "deadlock";
    case DiagKind::UnmatchedSend: return "unmatched-send";
    case DiagKind::UnwaitedRequest: return "unwaited-request";
    case DiagKind::CollectiveDivergence: return "collective-divergence";
    case DiagKind::WildcardRace: return "wildcard-race";
    case DiagKind::InvalidRegion: return "invalid-region";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// CheckReport
// ---------------------------------------------------------------------------

std::size_t CheckReport::count(DiagKind kind) const {
  std::size_t n = 0;
  for (const auto& d : diagnostics) n += d.kind == kind ? 1 : 0;
  return n;
}

void CheckReport::merge(const CheckReport& other) {
  diagnostics.insert(diagnostics.end(), other.diagnostics.begin(),
                     other.diagnostics.end());
  suppressed += other.suppressed;
  stats.worlds += other.stats.worlds;
  stats.p2p_ops += other.stats.p2p_ops;
  stats.collectives += other.stats.collectives;
  stats.regions += other.stats.regions;
}

std::string CheckReport::render() const {
  std::ostringstream os;
  if (clean()) {
    os << "simcheck: clean (" << stats.worlds << " worlds, " << stats.p2p_ops
       << " p2p ops, " << stats.collectives << " collective calls, "
       << stats.regions << " omp regions checked)\n";
    return os.str();
  }
  os << "simcheck: " << diagnostics.size() << " diagnostic(s)";
  if (suppressed > 0) os << " (+" << suppressed << " suppressed)";
  os << " over " << stats.worlds << " worlds, " << stats.p2p_ops
     << " p2p ops, " << stats.collectives << " collective calls, "
     << stats.regions << " omp regions\n";
  for (const auto& d : diagnostics) {
    os << "  [" << diag_kind_name(d.kind) << "] ";
    if (d.rank >= 0) os << "rank " << d.rank << ": ";
    os << d.detail << "\n";
  }
  return os.str();
}

std::string CheckReport::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  std::ostringstream os;
  os << pad << "{\n";
  os << pad << "  \"clean\": " << (clean() ? "true" : "false") << ",\n";
  os << pad << "  \"worlds\": " << stats.worlds << ",\n";
  os << pad << "  \"p2p_ops\": " << stats.p2p_ops << ",\n";
  os << pad << "  \"collectives\": " << stats.collectives << ",\n";
  os << pad << "  \"regions\": " << stats.regions << ",\n";
  os << pad << "  \"suppressed\": " << suppressed << ",\n";
  os << pad << "  \"diagnostics\": [";
  for (std::size_t i = 0; i < diagnostics.size(); ++i) {
    const auto& d = diagnostics[i];
    os << (i ? "," : "") << "\n" << pad << "    {\"kind\": \""
       << diag_kind_name(d.kind) << "\", \"rank\": " << d.rank
       << ", \"detail\": \"" << json_escape(d.detail) << "\"}";
  }
  os << (diagnostics.empty() ? "" : "\n" + pad + "  ") << "]\n";
  os << pad << "}";
  return os.str();
}

// ---------------------------------------------------------------------------
// Checker: event intake
// ---------------------------------------------------------------------------

void Checker::attach(simmpi::World& world) {
  world_ = &world;
  nranks_ = world.size();
  colls_.assign(static_cast<std::size_t>(nranks_), {});
  finished_.assign(static_cast<std::size_t>(nranks_), false);
  world.set_observer(this);
  world.engine().set_deadlock_hook([this] { on_deadlock(); });
}

void Checker::add_diag(DiagKind kind, int rank, std::string detail) {
  if (report_.count(kind) >= kMaxPerKind) {
    ++report_.suppressed;
    return;
  }
  report_.diagnostics.push_back({kind, rank, std::move(detail)});
}

void Checker::on_send_posted(std::uint64_t id, int rank, int dst, int tag,
                             double bytes, bool rendezvous) {
  OpRecord rec;
  rec.id = id;
  rec.rank = rank;
  rec.is_send = true;
  rec.peer = dst;
  rec.tag = tag;
  rec.bytes = bytes;
  rec.rendezvous = rendezvous;
  ops_.emplace(id, rec);
  ++report_.stats.p2p_ops;
}

void Checker::on_send_completed(std::uint64_t id) {
  auto it = ops_.find(id);
  if (it == ops_.end()) return;
  it->second.completed = true;
  // An eager send completes at the sender long before (or without) a
  // matching receive; keep the record until it is matched so the finalize
  // leak check can report it.
  if (it->second.matched) ops_.erase(it);
}

void Checker::on_recv_posted(std::uint64_t id, int rank, int src, int tag) {
  OpRecord rec;
  rec.id = id;
  rec.rank = rank;
  rec.is_send = false;
  rec.peer = src;
  rec.tag = tag;
  rec.wildcard = src == simmpi::kAny || tag == simmpi::kAny;
  ops_.emplace(id, rec);
  ++report_.stats.p2p_ops;
}

void Checker::on_recv_matched(std::uint64_t recv_id, std::uint64_t send_id,
                              const std::vector<simmpi::Candidate>& eligible) {
  auto rit = ops_.find(recv_id);
  if (rit != ops_.end()) {
    rit->second.matched = true;
    if (rit->second.wildcard && eligible.size() > 1) {
      std::ostringstream os;
      os << op_desc(false, rit->second.peer, rit->second.tag, 0.0, false)
         << " claimed the message from rank " << eligible.front().source
         << " (tag " << eligible.front().tag << ") while " << eligible.size()
         << " eligible messages were pending:";
      const std::size_t shown = std::min<std::size_t>(eligible.size(), 6);
      for (std::size_t i = 0; i < shown; ++i) {
        os << (i ? "," : "") << " [source " << eligible[i].source << " tag "
           << eligible[i].tag << "]";
      }
      if (shown < eligible.size()) os << ", ...";
      os << " — the match is arrival order here; a real machine may differ";
      add_diag(DiagKind::WildcardRace, rit->second.rank, os.str());
    }
  }
  auto sit = ops_.find(send_id);
  if (sit != ops_.end()) {
    sit->second.matched = true;
    if (sit->second.completed) ops_.erase(sit);
  }
}

void Checker::on_recv_completed(std::uint64_t id) {
  auto it = ops_.find(id);
  if (it == ops_.end()) return;
  it->second.completed = true;
  if (it->second.matched) ops_.erase(it);
}

void Checker::on_request_posted(int rank, std::uint64_t serial, bool is_send,
                                int peer, int tag) {
  requests_.emplace(serial, RequestRecord{rank, is_send, peer, tag});
}

void Checker::on_request_waited(int /*rank*/, std::uint64_t serial) {
  requests_.erase(serial);
}

void Checker::on_collective(int rank, simmpi::CollOp op, int root,
                            double bytes) {
  colls_[static_cast<std::size_t>(rank)].push_back({op, root, bytes});
  ++report_.stats.collectives;
}

void Checker::on_rank_finished(int rank) {
  finished_[static_cast<std::size_t>(rank)] = true;
}

// ---------------------------------------------------------------------------
// Checker: detectors
// ---------------------------------------------------------------------------

std::vector<const Checker::OpRecord*> Checker::open_ops() const {
  std::vector<const OpRecord*> open;
  for (const auto& [id, rec] : ops_) {
    if (!rec.completed) open.push_back(&rec);
  }
  std::sort(open.begin(), open.end(),
            [](const OpRecord* a, const OpRecord* b) { return a->id < b->id; });
  return open;
}

void Checker::on_deadlock() {
  if (finalized_) return;
  finalized_ = true;  // blocked state: the finalize leak detectors would
                      // only add noise on top of the root cause

  const auto open = open_ops();

  // Wait-for edges among blocked operations: a receive with a concrete
  // source waits on that rank; an unmatched rendezvous send waits on its
  // receiver's matching receive (the clear-to-send).
  struct Edge {
    int to;
    const OpRecord* via;
  };
  std::vector<std::vector<Edge>> adj(static_cast<std::size_t>(nranks_));
  std::vector<bool> blocked(static_cast<std::size_t>(nranks_), false);
  for (const OpRecord* op : open) {
    blocked[static_cast<std::size_t>(op->rank)] = true;
    if (!op->is_send && op->peer != simmpi::kAny) {
      adj[static_cast<std::size_t>(op->rank)].push_back({op->peer, op});
    } else if (op->is_send && op->rendezvous && !op->matched) {
      adj[static_cast<std::size_t>(op->rank)].push_back({op->peer, op});
    }
  }

  // DFS for a cycle; record the ops along the path so the cycle can be
  // named hop by hop.
  std::vector<int> state(static_cast<std::size_t>(nranks_), 0);
  std::vector<int> path;
  std::vector<const OpRecord*> path_ops;
  std::string cycle;
  auto dfs = [&](auto&& self, int u) -> bool {
    state[static_cast<std::size_t>(u)] = 1;
    path.push_back(u);
    for (const Edge& e : adj[static_cast<std::size_t>(u)]) {
      if (state[static_cast<std::size_t>(e.to)] == 1) {
        // Found: the cycle runs from e.to's position in `path` to u.
        const auto start = std::find(path.begin(), path.end(), e.to);
        std::ostringstream os;
        for (auto it = start; it != path.end(); ++it) {
          const std::size_t idx = static_cast<std::size_t>(it - path.begin());
          const OpRecord* via =
              (it + 1 != path.end()) ? path_ops[idx] : e.via;
          os << "rank " << *it << " blocked in "
             << op_desc(via->is_send, via->peer, via->tag, via->bytes,
                        via->rendezvous)
             << " -> ";
        }
        os << "rank " << e.to;
        cycle = os.str();
        return true;
      }
      if (state[static_cast<std::size_t>(e.to)] == 0) {
        path_ops.push_back(e.via);
        if (self(self, e.to)) return true;
        path_ops.pop_back();
      }
    }
    state[static_cast<std::size_t>(u)] = 2;
    path.pop_back();
    return false;
  };
  for (int r = 0; r < nranks_ && cycle.empty(); ++r) {
    if (blocked[static_cast<std::size_t>(r)] &&
        state[static_cast<std::size_t>(r)] == 0) {
      (void)dfs(dfs, r);
    }
  }

  int num_blocked = 0, num_finished = 0;
  for (int r = 0; r < nranks_; ++r) {
    num_blocked += blocked[static_cast<std::size_t>(r)] ? 1 : 0;
    num_finished += finished_[static_cast<std::size_t>(r)] ? 1 : 0;
  }

  std::ostringstream os;
  os << "event queue drained with " << num_blocked << " of " << nranks_
     << " ranks blocked (" << num_finished << " exited). ";
  if (!cycle.empty()) {
    os << "wait-for cycle: " << cycle;
  } else {
    os << "no wait-for cycle — a blocked operation has no matching peer "
          "operation";
  }
  // Inventory of the blocked calls (capped) so every stuck rank is named.
  const std::size_t shown = std::min<std::size_t>(open.size(), 8);
  os << ". blocked:";
  for (std::size_t i = 0; i < shown; ++i) {
    os << (i ? ";" : "") << " rank " << open[i]->rank << " in "
       << op_desc(open[i]->is_send, open[i]->peer, open[i]->tag,
                  open[i]->bytes, open[i]->rendezvous);
  }
  if (shown < open.size()) os << "; ... (" << open.size() - shown << " more)";
  add_diag(DiagKind::Deadlock, open.empty() ? -1 : open.front()->rank,
           os.str());

  // A divergent collective sequence is a common root cause; point at it.
  check_collectives(/*require_equal_lengths=*/false);
  publish();
}

void Checker::check_collectives(bool require_equal_lengths) {
  std::size_t max_len = 0;
  for (const auto& seq : colls_) max_len = std::max(max_len, seq.size());

  for (std::size_t pos = 0; pos < max_len; ++pos) {
    int ref = -1;
    for (int r = 0; r < nranks_; ++r) {
      const auto& seq = colls_[static_cast<std::size_t>(r)];
      if (seq.size() <= pos) continue;
      if (ref < 0) {
        ref = r;
        continue;
      }
      const CollRecord& a = colls_[static_cast<std::size_t>(ref)][pos];
      const CollRecord& b = seq[pos];
      const bool bytes_diverge =
          a.bytes >= 0.0 && b.bytes >= 0.0 && a.bytes != b.bytes;
      if (a.op != b.op || a.root != b.root || bytes_diverge) {
        std::ostringstream os;
        os << "collective call #" << pos << " diverges: rank " << ref
           << " called " << coll_desc(a.op, a.root, a.bytes) << " but rank "
           << r << " called " << coll_desc(b.op, b.root, b.bytes);
        add_diag(DiagKind::CollectiveDivergence, r, os.str());
        return;  // later positions are desynchronized; one report suffices
      }
    }
  }

  if (!require_equal_lengths || nranks_ == 0) return;
  int lo = 0, hi = 0;
  for (int r = 1; r < nranks_; ++r) {
    if (colls_[static_cast<std::size_t>(r)].size() <
        colls_[static_cast<std::size_t>(lo)].size())
      lo = r;
    if (colls_[static_cast<std::size_t>(r)].size() >
        colls_[static_cast<std::size_t>(hi)].size())
      hi = r;
  }
  const std::size_t lo_n = colls_[static_cast<std::size_t>(lo)].size();
  const std::size_t hi_n = colls_[static_cast<std::size_t>(hi)].size();
  if (lo_n != hi_n) {
    std::ostringstream os;
    os << "collective participation diverges: rank " << hi << " made " << hi_n
       << " collective calls but rank " << lo << " made " << lo_n;
    add_diag(DiagKind::CollectiveDivergence, lo, os.str());
  }
}

void Checker::finalize() {
  if (finalized_) return;
  finalized_ = true;

  // Sends whose message was never received. Eager sends complete at the
  // sender, so these survive a normal drain; a blocked (uncompleted)
  // operation cannot — it would have kept its task live and taken the
  // deadlock path instead.
  std::vector<const OpRecord*> unmatched_sends;
  for (const auto& [id, rec] : ops_) {
    if (rec.is_send && !rec.matched) unmatched_sends.push_back(&rec);
  }
  std::sort(unmatched_sends.begin(), unmatched_sends.end(),
            [](const OpRecord* a, const OpRecord* b) { return a->id < b->id; });
  for (const OpRecord* op : unmatched_sends) {
    std::ostringstream os;
    os << "send to rank " << op->peer << " (tag " << op->tag << ", "
       << fmt_bytes(op->bytes) << (op->rendezvous ? ", rendezvous" : ", eager")
       << ") was never received";
    add_diag(DiagKind::UnmatchedSend, op->rank, os.str());
  }

  // Requests never retired with wait/wait_all.
  std::vector<std::pair<std::uint64_t, const RequestRecord*>> leaked;
  for (const auto& [serial, rec] : requests_) leaked.emplace_back(serial, &rec);
  std::sort(leaked.begin(), leaked.end());
  for (const auto& [serial, rec] : leaked) {
    std::ostringstream os;
    os << (rec->is_send ? "isend" : "irecv") << " request (peer "
       << fmt_src(rec->peer) << ", tag " << fmt_src(rec->tag)
       << ") was never completed with wait/wait_all";
    add_diag(DiagKind::UnwaitedRequest, rec->rank, os.str());
  }

  check_collectives(/*require_equal_lengths=*/true);
  publish();
}

void Checker::on_finalize() { finalize(); }

// ---------------------------------------------------------------------------
// Per-run (--check) mode
// ---------------------------------------------------------------------------

// simlint:seam(cross-rank-shared-mutable): mutex-ordered merge of this world's report into its RunContext's CheckSink at teardown; the merge is commutative, so cross-rank (and cross-thread) completion order cannot change the merged report.
void Checker::publish() {
  if (!sink_ || published_) return;
  published_ = true;
  report_.stats.worlds = 1;
  sink_->publish(report_);
}

void Checker::check_region(const simomp::RegionSpec& region, int nthreads,
                           CheckReport& out) {
  auto bad = [](double v) { return !std::isfinite(v) || v < 0.0; };
  std::ostringstream os;
  if (bad(region.total.flops)) os << " flops=" << region.total.flops;
  if (bad(region.total.mem_bytes))
    os << " mem_bytes=" << region.total.mem_bytes;
  if (bad(region.total.working_set))
    os << " working_set=" << region.total.working_set;
  if (!std::isfinite(region.total.flop_efficiency) ||
      region.total.flop_efficiency <= 0.0 ||
      region.total.flop_efficiency > 1.0)
    os << " flop_efficiency=" << region.total.flop_efficiency;
  if (!std::isfinite(region.shared_traffic_fraction))
    os << " shared_traffic_fraction=" << region.shared_traffic_fraction;
  if (!std::isfinite(region.serial_fraction))
    os << " serial_fraction=" << region.serial_fraction;
  const std::string fields = os.str();
  if (fields.empty()) return;
  out.diagnostics.push_back(
      {DiagKind::InvalidRegion, -1,
       "OpenMP region with invalid demand:" + fields +
           " (nthreads=" + std::to_string(nthreads) + ")"});
}

void CheckSink::publish(const CheckReport& report) {
  std::lock_guard<std::mutex> lock(mu_);
  report_.merge(report);
}

CheckReport CheckSink::take_report() {
  CheckReport out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = std::exchange(report_, CheckReport{});
  }
  out.stats.regions += regions_.exchange(0, std::memory_order_relaxed);
  return out;
}

std::shared_ptr<CheckSink> arm_check(sim::RunContext& ctx) {
  auto sink = std::make_shared<CheckSink>();
  ctx.world_observers.push_back(
      [sink](simmpi::World& world) -> std::shared_ptr<simmpi::CommObserver> {
        auto checker = std::make_shared<Checker>();
        checker->publish_to(sink);
        checker->attach(world);
        return checker;
      });
  ctx.region_observers.push_back(
      [sink](const simomp::RegionSpec& region, int nthreads) {
        sink->count_region();
        CheckReport local;
        Checker::check_region(region, nthreads, local);
        if (!local.diagnostics.empty()) sink->publish(local);
      });
  return sink;
}

}  // namespace columbia::simcheck
