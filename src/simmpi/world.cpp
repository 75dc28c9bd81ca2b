#include "simmpi/world.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "sim/join.hpp"
#include "sim/run_context.hpp"

namespace columbia::simmpi {

namespace {
/// Tag used by collective algorithms; safely above user tags. Per-source
/// FIFO matching makes one tag sufficient across collective rounds.
constexpr int kCollTag = 1 << 28;

bool is_pow2(int n) { return n > 0 && (n & (n - 1)) == 0; }
}  // namespace

// ---------------------------------------------------------------------------
// Rank: point-to-point
// ---------------------------------------------------------------------------

int Rank::size() const { return world_->size(); }
sim::Engine& Rank::engine() const { return world_->engine(); }

namespace {
inline void trace_span(World* world, int rank, sim::SpanKind kind,
                       double begin, double end) {
  if (end <= begin) return;  // zero-length spans add nothing
  if (auto* sink = world->engine().span_sink()) {
    sink->on_span({rank, kind, begin, end});
  }
}
}  // namespace

bool Rank::matches(int want_src, int want_tag, const Envelope& env) {
  return (want_src == kAny || want_src == env.src) &&
         (want_tag == kAny || want_tag == env.tag);
}

void Rank::deposit(std::unique_ptr<Envelope> env) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    PendingRecv* p = *it;
    if (matches(p->src, p->tag, *env)) {
      pending_.erase(it);
      env->claimed = true;
      p->matched = env.get();
      if (auto* obs = world_->observer()) {
        // A blocked receive matches the moment one message arrives, so the
        // candidate set is exactly that message.
        obs->on_recv_matched(p->check_id, env->check_id,
                             {{env->src, env->tag}});
      }
      unexpected_.push_back(std::move(env));  // keep alive until recv copies
      p->ready.fire();
      return;
    }
  }
  unexpected_.push_back(std::move(env));
}

sim::CoTask<void> Rank::send(int dst, double bytes, int tag) {
  return send_impl(dst, bytes, {}, tag);
}

sim::CoTask<void> Rank::send_value(int dst, std::vector<double> data,
                                   int tag) {
  const double bytes = static_cast<double>(data.size()) * sizeof(double);
  return send_impl(dst, bytes, std::move(data), tag);
}

sim::CoTask<void> Rank::send_impl(int dst, double bytes,
                                  std::vector<double> payload, int tag) {
  COL_REQUIRE(dst >= 0 && dst < size(), "send destination out of range");
  COL_REQUIRE(bytes >= 0, "negative message size");
  auto& eng = engine();
  const double t0 = eng.now();
  const std::uint64_t serial = send_serial_++;
  Rank& receiver = world_->rank(dst);

  auto env =
      std::make_unique<Envelope>(*world_, cpu_, receiver.cpu_, bytes, serial);
  env->src = rank_;
  env->tag = tag;
  env->payload = std::move(payload);
  env->eager = bytes <= World::kEagerThreshold;

  CommObserver* obs = world_->observer();
  std::uint64_t op_id = 0;
  if (obs) {
    op_id = world_->next_check_id();
    env->check_id = op_id;
    obs->on_send_posted(op_id, rank_, dst, tag, bytes, !env->eager);
  }

  machine::Network& net = world_->network();
  // The receiver's queue owns the envelope until its recv completes, which
  // is after the delivery fires `delivered`.
  Envelope& sent = *env;
  receiver.deposit(std::move(env));
  if (sent.eager) {
    // Sender copies into the library buffer and returns; the delivery
    // runs from its own events through the network (back-pressured by the
    // injection port resource).
    eng.schedule_at(eng.now(),
                    sim::Callback::method<&World::Delivery::depart>(
                        &sent.delivery));
    const double copy_cost =
        0.4e-6 + bytes / net.cluster().node_spec().mem.cpu_stream_bw;
    co_await eng.delay(copy_cost);
  } else {
    // Rendezvous: announce, wait for the receiver's clear-to-send (which
    // must travel back across the wire), then transfer directly into the
    // destination buffer. Handshake traffic is reliable control traffic;
    // fault verdicts apply to the bulk transfer, whose retries the
    // (blocked) sender pays for.
    co_await sent.rts_matched.wait();
    co_await eng.delay(net.cluster().latency(cpu_, receiver.cpu_));  // CTS
    co_await sent.delivery.trip();
  }
  if (obs) obs->on_send_completed(op_id);
  comm_seconds_ += eng.now() - t0;
  trace_span(world_, rank_, sim::SpanKind::Communication, t0, eng.now());
}

sim::CoTask<Message> Rank::recv(int src, int tag) {
  auto& eng = engine();
  const double t0 = eng.now();

  CommObserver* obs = world_->observer();
  std::uint64_t recv_id = 0;
  if (obs) {
    recv_id = world_->next_check_id();
    obs->on_recv_posted(recv_id, rank_, src, tag);
  }

  Envelope* env = nullptr;
  // First look at already-announced (unexpected) messages, FIFO order.
  if (obs) {
    // Observer attached: collect the whole eligible set (the match is
    // still the first in queue order, so semantics and timing are
    // unchanged; the candidates feed the wildcard-race detector).
    std::vector<Candidate> eligible;
    for (auto& e : unexpected_) {
      if (!e->claimed && matches(src, tag, *e)) {
        if (env == nullptr) env = e.get();
        eligible.push_back({e->src, e->tag});
      }
    }
    if (env != nullptr) obs->on_recv_matched(recv_id, env->check_id, eligible);
  } else {
    for (auto& e : unexpected_) {
      if (!e->claimed && matches(src, tag, *e)) {
        env = e.get();
        break;
      }
    }
  }
  if (env != nullptr) {
    env->claimed = true;
  } else {
    PendingRecv p(eng);
    p.src = src;
    p.tag = tag;
    p.check_id = recv_id;
    pending_.push_back(&p);
    co_await p.ready.wait();
    env = p.matched;
    COL_CHECK(env != nullptr, "recv woke without a matched envelope");
  }

  if (!env->eager) {
    env->rts_matched.fire();  // clear-to-send
  }
  co_await env->delivered.wait();
  if (obs) obs->on_recv_delivered(recv_id);
  // Receiver-side software: queue matching, plus (eager only) the copy
  // from the library bounce buffer into the user buffer. One-sided SHMEM
  // puts have neither — the latency edge the paradigm exists for.
  const double match_cost =
      0.3e-6 +
      (env->eager
           ? env->bytes /
                 world_->network().cluster().node_spec().mem.cpu_stream_bw
           : 0.0);
  co_await eng.delay(match_cost);

  Message msg;
  msg.source = env->src;
  msg.tag = env->tag;
  msg.bytes = env->bytes;
  msg.payload = std::move(env->payload);

  // Release the envelope from the unexpected queue.
  for (auto it = unexpected_.begin(); it != unexpected_.end(); ++it) {
    if (it->get() == env) {
      unexpected_.erase(it);
      break;
    }
  }
  if (obs) obs->on_recv_completed(recv_id);
  comm_seconds_ += eng.now() - t0;
  trace_span(world_, rank_, sim::SpanKind::Communication, t0, eng.now());
  co_return msg;
}

sim::CoTask<void> Rank::sendrecv(int dst, double send_bytes, int src,
                                 int tag) {
  return sim::when_all(engine(), send(dst, send_bytes, tag), recv(src, tag));
}

// ---------------------------------------------------------------------------
// Rank: nonblocking point-to-point
// ---------------------------------------------------------------------------

bool Request::test() const {
  COL_REQUIRE(state_ != nullptr, "test() on an invalid request");
  return state_->complete;
}

namespace {
/// Detached driver: runs the blocking op, then completes the request.
sim::Task drive_send(Rank& r, int dst, double bytes, int tag,
                     std::shared_ptr<Request::State> state) {
  co_await r.send(dst, bytes, tag);
  state->complete = true;
  state->done.fire();
}

sim::Task drive_recv(Rank& r, int src, int tag,
                     std::shared_ptr<Request::State> state) {
  state->message = co_await r.recv(src, tag);
  state->complete = true;
  state->done.fire();
}
}  // namespace

Request Rank::isend(int dst, double bytes, int tag) {
  Request req;
  req.state_ = std::make_shared<Request::State>(engine());
  if (auto* obs = world_->observer()) {
    req.state_->check_serial = world_->next_check_id();
    obs->on_request_posted(rank_, req.state_->check_serial, /*is_send=*/true,
                           dst, tag);
  }
  engine().spawn(drive_send(*this, dst, bytes, tag, req.state_));
  return req;
}

Request Rank::irecv(int src, int tag) {
  Request req;
  req.state_ = std::make_shared<Request::State>(engine());
  if (auto* obs = world_->observer()) {
    req.state_->check_serial = world_->next_check_id();
    obs->on_request_posted(rank_, req.state_->check_serial, /*is_send=*/false,
                           src, tag);
  }
  engine().spawn(drive_recv(*this, src, tag, req.state_));
  return req;
}

sim::CoTask<Message> Rank::wait(Request& request) {
  COL_REQUIRE(request.valid(), "wait() on an invalid request");
  if (auto* obs = world_->observer()) {
    if (request.state_->check_serial != 0) {
      obs->on_request_waited(rank_, request.state_->check_serial);
    }
  }
  if (!request.state_->complete) {
    co_await request.state_->done.wait();
  }
  co_return std::move(request.state_->message);
}

sim::CoTask<void> Rank::wait_all(std::vector<Request>& requests) {
  // Requests progress independently (they are detached drivers), so a
  // simple sequential wait observes the max completion time.
  for (auto& req : requests) {
    (void)co_await wait(req);
  }
}

sim::CoTask<void> Rank::compute(double seconds) {
  COL_REQUIRE(seconds >= 0, "negative compute time");
  const double t0 = engine().now();
  double wall = seconds;
  if (const auto* fm = world_->fault_model()) {
    // Jitter shows up *as* compute time, the way daemon noise does on a
    // real machine: the stretched duration is what the rank accounts.
    wall = fm->stretched_compute(cpu_, t0, seconds);
    COL_REQUIRE(wall >= 0, "fault model produced negative compute time");
  }
  compute_seconds_ += wall;
  co_await engine().delay(wall);
  trace_span(world_, rank_, sim::SpanKind::Compute, t0, engine().now());
}

// ---------------------------------------------------------------------------
// Rank: collectives
// ---------------------------------------------------------------------------

sim::CoTask<void> Rank::barrier() {
  const int n = size();
  if (auto* obs = world_->observer())
    obs->on_collective(rank_, CollOp::Barrier, -1, 0.0);
  // Dissemination barrier: ceil(log2 n) rounds of disjoint sendrecv pairs.
  for (int k = 1; k < n; k <<= 1) {
    const int dst = (rank_ + k) % n;
    const int src = (rank_ - k + n) % n;
    co_await sendrecv(dst, 0.0, src, kCollTag);
  }
}

sim::CoTask<void> Rank::bcast(int root, double bytes) {
  const int n = size();
  COL_REQUIRE(root >= 0 && root < n, "bcast root out of range");
  if (auto* obs = world_->observer())
    obs->on_collective(rank_, CollOp::Bcast, root, bytes);
  const int rel = (rank_ - root + n) % n;
  // Binomial tree (MPICH-style): find the bit where we receive, then fan
  // out to the remaining subtrees.
  int mask = 1;
  while (mask < n) {
    if (rel & mask) {
      const int src = ((rel - mask) + root) % n;
      (void)co_await recv(src, kCollTag);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < n) {
      const int dst = ((rel + mask) + root) % n;
      co_await send(dst, bytes, kCollTag);
    }
    mask >>= 1;
  }
}

sim::CoTask<void> Rank::reduce(int root, double bytes) {
  const int n = size();
  COL_REQUIRE(root >= 0 && root < n, "reduce root out of range");
  if (auto* obs = world_->observer())
    obs->on_collective(rank_, CollOp::Reduce, root, bytes);
  const int rel = (rank_ - root + n) % n;
  // Reverse binomial tree: leaves send first.
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((rel & mask) == 0) {
      const int src_rel = rel | mask;
      if (src_rel < n) {
        (void)co_await recv((src_rel + root) % n, kCollTag);
      }
    } else {
      const int dst = ((rel & ~mask) + root) % n;
      co_await send(dst, bytes, kCollTag);
      break;
    }
  }
}

sim::CoTask<void> Rank::allreduce(double bytes) {
  const int n = size();
  if (auto* obs = world_->observer())
    obs->on_collective(rank_, CollOp::Allreduce, -1, bytes);
  if (is_pow2(n)) {
    // Recursive doubling.
    for (int mask = 1; mask < n; mask <<= 1) {
      const int partner = rank_ ^ mask;
      co_await sendrecv(partner, bytes, partner, kCollTag);
    }
  } else {
    co_await reduce(0, bytes);
    co_await bcast(0, bytes);
  }
}

sim::CoTask<std::vector<double>> Rank::allreduce_sum(
    std::vector<double> data) {
  const int n = size();
  if (auto* obs = world_->observer()) {
    obs->on_collective(rank_, CollOp::AllreduceSum, -1,
                       static_cast<double>(data.size()) * sizeof(double));
  }
  // Binomial reduce to rank 0 with real summation, then binomial bcast of
  // the result. Matches the cost-only reduce/bcast trees.
  for (int mask = 1; mask < n; mask <<= 1) {
    if ((rank_ & mask) == 0) {
      const int src = rank_ | mask;
      if (src < n) {
        Message m = co_await recv(src, kCollTag);
        COL_CHECK(m.payload.size() == data.size(),
                  "allreduce payload size mismatch");
        for (std::size_t i = 0; i < data.size(); ++i)
          data[i] += m.payload[i];
      }
    } else {
      const int dst = rank_ & ~mask;
      co_await send_value(dst, data, kCollTag);
      break;
    }
  }
  // Broadcast the reduced vector from rank 0.
  const int rel = rank_;
  int mask = 1;
  while (mask < n) {
    if (rel & mask) {
      Message m = co_await recv(rel - mask, kCollTag);
      data = std::move(m.payload);
      break;
    }
    mask <<= 1;
  }
  mask >>= 1;
  while (mask > 0) {
    if (rel + mask < n) {
      co_await send_value(rel + mask, data, kCollTag);
    }
    mask >>= 1;
  }
  co_return data;
}

sim::CoTask<void> Rank::alltoall(double bytes_per_pair, AlltoallAlgo algo) {
  const int n = size();
  if (auto* obs = world_->observer())
    obs->on_collective(rank_, CollOp::Alltoall, -1, bytes_per_pair);
  if (n == 1) co_return;
  if (algo == AlltoallAlgo::Flood) {
    // Everything at once: maximal overlap, maximal contention.
    std::vector<sim::CoTask<void>> ops;
    ops.reserve(static_cast<std::size_t>(n - 1));
    for (int step = 1; step < n; ++step) {
      const int dst = (rank_ + step) % n;
      const int src = (rank_ - step + n) % n;
      ops.push_back(sendrecv(dst, bytes_per_pair, src, kCollTag));
    }
    co_await sim::when_all(engine(), std::move(ops));
    co_return;
  }
  if (is_pow2(n)) {
    // Pairwise exchange (XOR schedule): n-1 contention-disjoint rounds.
    for (int step = 1; step < n; ++step) {
      const int partner = rank_ ^ step;
      co_await sendrecv(partner, bytes_per_pair, partner, kCollTag);
    }
  } else {
    for (int step = 1; step < n; ++step) {
      const int dst = (rank_ + step) % n;
      const int src = (rank_ - step + n) % n;
      co_await sendrecv(dst, bytes_per_pair, src, kCollTag);
    }
  }
}

sim::CoTask<void> Rank::allgather(double bytes_per_rank) {
  const int n = size();
  if (auto* obs = world_->observer())
    obs->on_collective(rank_, CollOp::Allgather, -1, bytes_per_rank);
  if (n == 1) co_return;
  // Ring: n-1 steps, each forwarding the previously received block.
  const int dst = (rank_ + 1) % n;
  const int src = (rank_ - 1 + n) % n;
  for (int step = 0; step < n - 1; ++step) {
    co_await sendrecv(dst, bytes_per_rank, src, kCollTag);
  }
}

sim::CoTask<std::vector<double>> Rank::allgather_values(
    std::vector<double> mine) {
  const int n = size();
  // bytes = -1: per-rank contributions may legitimately differ in size.
  if (auto* obs = world_->observer())
    obs->on_collective(rank_, CollOp::AllgatherValues, -1, -1.0);
  std::vector<std::vector<double>> blocks(static_cast<std::size_t>(n));
  blocks[static_cast<std::size_t>(rank_)] = std::move(mine);
  if (n > 1) {
    // Ring: at step s, forward the block that originated s ranks behind.
    const int dst = (rank_ + 1) % n;
    const int src = (rank_ - 1 + n) % n;
    for (int s = 0; s < n - 1; ++s) {
      const int send_origin = (rank_ - s + n) % n;
      const int recv_origin = (rank_ - s - 1 + n) % n;
      // Receive concurrently (rendezvous both ways around the ring).
      auto recv_into = [](Rank& r, int src,
                          std::vector<double>& out) -> sim::CoTask<void> {
        Message m = co_await r.recv(src, kCollTag);
        out = std::move(m.payload);
      };
      co_await sim::when_all(
          engine(),
          send_value(dst, blocks[static_cast<std::size_t>(send_origin)],
                     kCollTag),
          recv_into(*this, src,
                    blocks[static_cast<std::size_t>(recv_origin)]));
    }
  }
  std::vector<double> out;
  for (const auto& b : blocks) out.insert(out.end(), b.begin(), b.end());
  co_return out;
}

sim::CoTask<std::vector<std::vector<double>>> Rank::alltoall_values(
    std::vector<std::vector<double>> send) {
  const int n = size();
  if (auto* obs = world_->observer())
    obs->on_collective(rank_, CollOp::AlltoallValues, -1, -1.0);
  COL_REQUIRE(static_cast<int>(send.size()) == n,
              "alltoall needs one block per destination");
  std::vector<std::vector<double>> recv(static_cast<std::size_t>(n));
  recv[static_cast<std::size_t>(rank_)] =
      std::move(send[static_cast<std::size_t>(rank_)]);
  auto recv_into = [](Rank& r, int src,
                      std::vector<double>& out) -> sim::CoTask<void> {
    Message m = co_await r.recv(src, kCollTag);
    out = std::move(m.payload);
  };
  for (int step = 1; step < n; ++step) {
    const int dst = (rank_ + step) % n;
    const int src = (rank_ - step + n) % n;
    co_await sim::when_all(
        engine(),
        send_value(dst, std::move(send[static_cast<std::size_t>(dst)]),
                   kCollTag),
        recv_into(*this, src, recv[static_cast<std::size_t>(src)]));
  }
  co_return recv;
}

// ---------------------------------------------------------------------------
// World
// ---------------------------------------------------------------------------

World::World(sim::Engine& engine, machine::Network& network,
             machine::Placement placement)
    : engine_(&engine), network_(&network), placement_(std::move(placement)) {
  const int n = placement_.num_ranks();
  COL_REQUIRE(n > 0, "world needs at least one rank");
  ranks_.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    auto rank = std::make_unique<Rank>();
    rank->world_ = this;
    rank->rank_ = r;
    rank->cpu_ = placement_.cpu_of(r);
    ranks_.push_back(std::move(rank));
  }
  // The installed RunContext arms the World: own one observer per factory
  // (each factory attaches its product — observer slot, engine deadlock
  // hook, engine span sink as it needs), fanning events out to all of
  // them so `--check` and `--profile` compose; then the single-slot fault
  // model (`--faults`). A null product leaves the run byte-identical to an
  // unarmed one.
  const sim::RunContext* ctx = sim::current_run_context();
  if (ctx == nullptr) return;
  for (const auto& factory : ctx->world_observers) {
    if (auto product = factory(*this)) {
      owned_observers_.push_back(std::move(product));
    }
  }
  if (owned_observers_.size() == 1 && observer_ == nullptr) {
    observer_ = owned_observers_.front().get();
  } else if (owned_observers_.size() > 1) {
    std::vector<CommObserver*> children;
    children.reserve(owned_observers_.size());
    for (const auto& o : owned_observers_) children.push_back(o.get());
    fanout_ = std::make_unique<ObserverFanout>(std::move(children));
    observer_ = fanout_.get();
  }
  if (ctx->world_faults) {
    if (auto model = ctx->world_faults(*this)) {
      fault_model_owned_ = std::move(model);
      set_fault_model(fault_model_owned_.get());
    }
  }
}

World::~World() {
  // An owned observer (typically simcheck's Checker) registered an engine
  // deadlock hook pointing into itself; sever it before the observer dies.
  // (A profiler severs its own engine span sink in its destructor.)
  if (!owned_observers_.empty()) engine_->set_deadlock_hook(nullptr);
  // The network may outlive this job; don't leave it pointing at a fault
  // model that dies with us.
  if (fault_model_ != nullptr) network_->set_fault_model(nullptr);
}

Rank& World::rank(int r) {
  COL_REQUIRE(r >= 0 && r < size(), "rank index out of range");
  return *ranks_[static_cast<std::size_t>(r)];
}

sim::Task World::rank_main(Rank& r, const Program& program) {
  co_await program(r);
  if (auto* obs = r.world_->observer()) obs->on_rank_finished(r.rank());
}

// ---------------------------------------------------------------------------
// World::Delivery: the retry loop as callback steps
// ---------------------------------------------------------------------------

bool World::Delivery::set_out() {
  if (world_->fault_model_ == nullptr) return transmit();
  wait_ = world_->retry_policy_.timeout;
  return attempt();
}

bool World::Delivery::attempt() {
  machine::FaultModel* fm = world_->fault_model_;
  const machine::MessageVerdict verdict =
      fm->message_verdict(src_cpu_, dst_cpu_, bytes_, serial_, attempt_);
  if (!verdict.dropped) {
    if (verdict.extra_delay > 0.0) {
      world_->engine_->schedule_after(
          verdict.extra_delay,
          sim::Callback::method<&Delivery::after_delay>(this));
      return false;
    }
    return transmit();
  }
  ++world_->messages_dropped_;
  fm->note_message_dropped();
  if (attempt_ >= world_->retry_policy_.max_retries) {
    ++world_->messages_lost_;
    fm->note_message_lost();
    return true;
  }
  // The sender detects the loss by timeout, then retransmits; each
  // successive detection waits `backoff` times longer.
  world_->engine_->schedule_after(
      wait_, sim::Callback::method<&Delivery::after_backoff>(this));
  return false;
}

void World::Delivery::after_backoff() {
  wait_ *= world_->retry_policy_.backoff;
  ++world_->retries_;
  world_->fault_model_->note_retry();
  ++attempt_;
  if (attempt()) resume_sender();
}

bool World::Delivery::transmit() {
  transfer_ = machine::Network::Transfer(
      src_cpu_, dst_cpu_, bytes_,
      sim::Callback::method<&Delivery::arrived>(this));
  if (!world_->network_->inject(transfer_)) return false;
  delivered_->fire();
  return true;
}

void World::Delivery::after_delay() {
  if (transmit()) resume_sender();
}

void World::Delivery::arrived() {
  delivered_->fire();
  resume_sender();
}

double World::run(const Program& program) {
  const double t0 = engine_->now();
  for (auto& r : ranks_) {
    engine_->spawn(rank_main(*r, program));
  }
  engine_->run();
  // Fault windows become spans only after the run, when the makespan is
  // known; the model is a pure listener on the sink (profiled timelines
  // gain a "when was the machine sick" track).
  if (fault_model_ != nullptr) {
    if (auto* sink = engine_->span_sink()) {
      fault_model_->emit_fault_spans(t0, engine_->now(), *sink);
    }
  }
  if (observer_ != nullptr) observer_->on_finalize();
  return engine_->now() - t0;
}

double World::mean_comm_seconds() const {
  double sum = 0.0;
  for (const auto& r : ranks_) sum += r->comm_seconds_;
  return sum / static_cast<double>(ranks_.size());
}

double World::mean_compute_seconds() const {
  double sum = 0.0;
  for (const auto& r : ranks_) sum += r->compute_seconds_;
  return sum / static_cast<double>(ranks_.size());
}

double World::max_compute_seconds() const {
  double mx = 0.0;
  for (const auto& r : ranks_) mx = std::max(mx, r->compute_seconds_);
  return mx;
}

double World::mean_io_seconds() const {
  double sum = 0.0;
  for (const auto& r : ranks_) sum += r->io_seconds_;
  return sum / static_cast<double>(ranks_.size());
}

double World::max_io_seconds() const {
  double mx = 0.0;
  for (const auto& r : ranks_) mx = std::max(mx, r->io_seconds_);
  return mx;
}

}  // namespace columbia::simmpi
